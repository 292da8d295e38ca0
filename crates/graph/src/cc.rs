//! Connected components: the sequential twin, the partition-and-fuse
//! kernel and a labelling counter.  The production parallel kernel is the
//! sampled concurrent union-find in [`uf`](crate::uf).
//!
//! Every kernel labels each vertex with the **minimum vertex id of its
//! component**, so differential tests can compare outputs directly — no
//! relabelling needed (the property suite still checks equality up to
//! relabelling, which is what the algorithms guarantee in general).
//!
//! The partitioned kernel checks its parent array out of the pool's
//! [`Workspace`](lopram_core::Workspace) arena, so repeated CC calls on
//! one pool (the steady state of a component-tracking service) reuse a
//! single allocation instead of re-materializing an `n`-element array per
//! call.

use lopram_core::PalPool;

use crate::csr::CsrGraph;
use crate::fuse::{fuse, FusionNode};
use crate::partition::PartitionPlan;

/// Sequential connected components: `labels[v]` is the smallest vertex id
/// in `v`'s component — the differential twin of the parallel variants.
pub fn components_seq(graph: &CsrGraph) -> Vec<usize> {
    let n = graph.vertices();
    let mut labels = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if labels[root] != usize::MAX {
            continue;
        }
        // Vertices are visited in increasing id order, so `root` is the
        // minimum of its component.
        labels[root] = root;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = root;
                    stack.push(v);
                }
            }
        }
    }
    labels
}

/// Find the root of `v` in a plain union-find forest over the exclusive
/// slice `parent` (base-shifted by `base`), with full path compression.
/// Plain stores suffice: the fusion tree hands each caller exclusive
/// ownership of the slice it touches.
fn find(parent: &mut [usize], base: usize, v: usize) -> usize {
    let mut root = v;
    while parent[root - base] != root {
        root = parent[root - base];
    }
    let mut cur = v;
    while cur != root {
        cur = std::mem::replace(&mut parent[cur - base], root);
    }
    root
}

/// Union the components of `v` and `u`, hooking the larger root under
/// the smaller — the min-id root of a merged set always survives, which
/// is what makes the final labelling deterministic.
fn unite(parent: &mut [usize], base: usize, v: usize, u: usize) {
    let rv = find(parent, base, v);
    let ru = find(parent, base, u);
    if rv != ru {
        let (lo, hi) = (rv.min(ru), rv.max(ru));
        parent[hi - base] = lo;
    }
}

/// Partitioned connected components: plans a `parts`-way
/// [`PartitionPlan`] and runs [`components_partitioned_with`] on it.
/// Identical min-id labelling to [`components_seq`] for every processor
/// and partition count.
///
/// Exact fork cost, schedule-independent:
/// [`plan_forks`](crate::partition::plan_forks) for the plan plus
/// `(parts − 1) + (chunk_count(n) − 1)` for the solve — one
/// [`fuse`] tree and one final blocked flatten pass.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn components_partitioned(graph: &CsrGraph, pool: &PalPool, parts: usize) -> Vec<usize> {
    let plan = PartitionPlan::new(graph, pool, parts);
    components_partitioned_with(graph, pool, &plan)
}

/// [`components_partitioned`] on a pre-built plan.
///
/// One fusion tree over an arena-backed union-find parent array:
///
/// * **leaf** — partition `k` unions its *internal* edges (both
///   endpoints local — cut arcs are skipped, zero cross-partition
///   traffic) with plain min-hooking on its exclusive parent slice,
///   then fully flattens its range to local stars.
/// * **merge** — replays exactly the cut arcs whose endpoints meet for
///   the first time at this node (left-half sources with right-half
///   targets; the symmetric orientation is skipped), hooking across the
///   reunified subtree slice, then path-compacts the processed boundary
///   endpoints so ancestor merges see near-flat chains — the Afforest
///   progression: local linking first, boundary resolution after.
///
/// The fusion tree's exclusive slices replace the flat kernel's
/// compare-and-swap hooks
/// ([`components_union_find`](crate::uf::components_union_find)) with
/// plain stores; the hook direction (min id wins) makes the result
/// deterministic.  A final read-only [`map_collect`](PalPool::map_collect)
/// chase flattens every vertex to its component's minimum id.
pub fn components_partitioned_with(
    graph: &CsrGraph,
    pool: &PalPool,
    plan: &PartitionPlan<'_>,
) -> Vec<usize> {
    let n = graph.vertices();
    assert_eq!(plan.vertices(), n, "plan was built for a different graph");
    if n == 0 {
        return Vec::new();
    }
    let cuts = plan.cuts();
    let mut parent = pool.workspace().checkout::<usize>();
    parent.extend(0..n);
    let mut state = vec![(); plan.parts()];

    fuse(
        pool,
        cuts,
        &mut parent,
        &mut state,
        &|node: FusionNode<'_, usize, ()>| {
            let FusionNode { vertices, data, .. } = node;
            let base = vertices.start;
            for v in vertices.clone() {
                // Sorted adjacency: the in-range, smaller-id neighbours
                // form one contiguous run — each internal edge once.
                for &u in graph.neighbors(v) {
                    if u >= v {
                        break;
                    }
                    if u >= base {
                        unite(data, base, v, u);
                    }
                }
            }
            for v in vertices.clone() {
                find(data, base, v);
            }
        },
        &|node, (), ()| {
            let FusionNode {
                parts,
                vertices,
                data,
                ..
            } = node;
            let base = vertices.start;
            let mid = parts.start + parts.len() / 2;
            let vsplit = cuts[mid];
            for k in parts.start..mid {
                for &(v, u) in plan.cut_arcs(k) {
                    if u >= vsplit && u < vertices.end {
                        unite(data, base, v, u);
                    }
                }
            }
            // Path compaction over the boundary labels just hooked, so
            // ancestor merges chase O(1) chains from these endpoints.
            for k in parts.start..mid {
                for &(v, u) in plan.cut_arcs(k) {
                    if u >= vsplit && u < vertices.end {
                        find(data, base, v);
                        find(data, base, u);
                    }
                }
            }
        },
    );

    let parent: &[usize] = &parent;
    pool.map_collect(0..n, |v| {
        let mut root = v;
        while parent[root] != root {
            root = parent[root];
        }
        root
    })
}

/// Number of distinct components in a labelling (counts distinct label
/// values, so it works for any labelling — not just the min-id one the
/// algorithms in this module produce).
pub fn component_count(labels: &[usize]) -> usize {
    let mut seen = std::collections::HashSet::with_capacity(labels.len());
    labels.iter().filter(|&&l| seen.insert(l)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn seq_labels_are_component_minima() {
        // Two components: {0, 1, 2} and {3, 4}.
        let g = CsrGraph::from_undirected_edges(5, &[(1, 2), (0, 2), (4, 3)]);
        assert_eq!(components_seq(&g), vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&components_seq(&g)), 2);
    }

    #[test]
    fn parallel_variants_match_sequential() {
        let shapes = [
            gen::gnm(200, 220, 5), // sparse: many components
            gen::gnm(200, 800, 6), // dense: usually one giant component
            gen::grid(9, 13),
            gen::star(100),
            gen::path(173),
            gen::binary_tree(255),
            CsrGraph::from_undirected_edges(64, &[]), // 64 singletons
        ];
        for p in [1, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            for (k, g) in shapes.iter().enumerate() {
                let expected = components_seq(g);
                assert_eq!(
                    components_partitioned(g, &pool, 3),
                    expected,
                    "partitioned CC diverged on shape {k} at p = {p}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        let pool = PalPool::new(2).unwrap();
        assert!(components_seq(&g).is_empty());
        assert!(components_partitioned(&g, &pool, 2).is_empty());
    }
}
