//! Compressed-sparse-row graph storage.
//!
//! All kernels in this crate operate on an undirected [`CsrGraph`]: an
//! offsets array and a flat, per-vertex-sorted target array — the layout
//! GBBS-style frameworks use so that "the neighbours of `v`" is a slice and
//! frontier expansion is a [`scan`](lopram_core::PalPool::scan_copy_in) over
//! degrees.

/// An undirected graph in compressed-sparse-row form.
///
/// Every undirected edge `{u, v}` is stored as the two arcs `u → v` and
/// `v → u`; self-loops are dropped and duplicate edges collapsed at
/// construction.  Each vertex's neighbour slice is sorted ascending, so
/// the layout depends on the edge set alone, not on the edge list's order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` with `v`'s
    /// neighbours; `offsets.len() == vertices + 1`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    targets: Vec<usize>,
}

impl CsrGraph {
    /// Build a graph on `vertices` vertices from an undirected edge list.
    ///
    /// Self-loops are dropped, duplicate edges (in either orientation)
    /// collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= vertices`.
    pub fn from_undirected_edges(vertices: usize, edges: &[(usize, usize)]) -> Self {
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                u < vertices && v < vertices,
                "edge ({u}, {v}) out of range for {vertices} vertices"
            );
            if u != v {
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }
        arcs.sort_unstable();
        arcs.dedup();

        let mut offsets = vec![0usize; vertices + 1];
        for &(u, _) in &arcs {
            offsets[u + 1] += 1;
        }
        for v in 0..vertices {
            offsets[v + 1] += offsets[v];
        }
        let targets = arcs.into_iter().map(|(_, v)| v).collect();
        CsrGraph { offsets, targets }
    }

    /// Build a graph from an edge *stream* visited twice, without ever
    /// materializing the edge list or the doubled arc list.
    ///
    /// `passes` must return an iterator over the same edge sequence on
    /// every call (a seeded generator re-run, a file re-read).  The
    /// builder counting-sorts the arcs in two passes — degree count, then
    /// scatter through a cursor array — so peak extra memory is `O(n)`
    /// beyond the final CSR arrays, versus the `O(m)` edge list plus
    /// `O(2m)` sort buffer of [`from_undirected_edges`](Self::from_undirected_edges).  That is what
    /// lets the benchmark and the million-edge tests build ~10⁶-edge graphs
    /// without holding an edge list.
    ///
    /// Output is *identical* to `from_undirected_edges` on the collected
    /// stream: self-loops dropped, duplicates collapsed, per-vertex
    /// adjacency sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= vertices`.
    pub fn from_undirected_edges_streamed<I>(vertices: usize, passes: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, usize)>,
    {
        // Pass 1: per-vertex arc counts (each kept edge contributes one
        // arc to each endpoint).
        let mut offsets = vec![0usize; vertices + 1];
        for (u, v) in passes() {
            assert!(
                u < vertices && v < vertices,
                "edge ({u}, {v}) out of range for {vertices} vertices"
            );
            if u != v {
                offsets[u + 1] += 1;
                offsets[v + 1] += 1;
            }
        }
        for v in 0..vertices {
            offsets[v + 1] += offsets[v];
        }

        // Pass 2: scatter arcs into place through a cursor array.
        let mut cursor = offsets[..vertices].to_vec();
        let mut targets = vec![0usize; offsets[vertices]];
        for (u, v) in passes() {
            if u != v {
                targets[cursor[u]] = v;
                cursor[u] += 1;
                targets[cursor[v]] = u;
                cursor[v] += 1;
            }
        }

        // Sort + dedup each adjacency list in place, compacting with a
        // write pointer and rebuilding offsets as we go.
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..vertices {
            let end = offsets[v + 1];
            let list = &mut targets[start..end];
            list.sort_unstable();
            let from = start;
            start = end;
            offsets[v] = write;
            let mut prev = usize::MAX;
            for i in from..end {
                let t = targets[i];
                if t != prev {
                    targets[write] = t;
                    write += 1;
                    prev = t;
                }
            }
        }
        offsets[vertices] = write;
        targets.truncate(write);
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (twice the number of undirected edges).
    pub fn arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges.
    pub fn edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbours of `v`, sorted ascending.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Largest degree in the graph (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..self.vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduped_adjacency() {
        // Duplicates in both orientations and a self-loop.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)]);
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[] as &[usize]);
        assert_eq!(g.neighbors(3), &[1]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = CsrGraph::from_undirected_edges(0, &[]);
        assert_eq!(empty.vertices(), 0);
        assert_eq!(empty.arcs(), 0);
        assert_eq!(empty.max_degree(), 0);

        let edgeless = CsrGraph::from_undirected_edges(5, &[]);
        assert_eq!(edgeless.vertices(), 5);
        assert_eq!(edgeless.edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoints() {
        CsrGraph::from_undirected_edges(3, &[(0, 3)]);
    }

    #[test]
    fn streamed_build_equals_materialized_build() {
        let edges = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (4, 0), (3, 4)];
        let streamed = CsrGraph::from_undirected_edges_streamed(5, || edges.iter().copied());
        assert_eq!(streamed, CsrGraph::from_undirected_edges(5, &edges));

        // Degenerate shapes.
        let empty = CsrGraph::from_undirected_edges_streamed(0, std::iter::empty);
        assert_eq!(empty, CsrGraph::from_undirected_edges(0, &[]));
        let loops = CsrGraph::from_undirected_edges_streamed(3, || [(1, 1), (2, 2)].into_iter());
        assert_eq!(loops, CsrGraph::from_undirected_edges(3, &[(1, 1), (2, 2)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn streamed_build_rejects_out_of_range_endpoints() {
        CsrGraph::from_undirected_edges_streamed(3, || std::iter::once((0, 3)));
    }
}
