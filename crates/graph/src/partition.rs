//! Cache-sized subgraph partitions: the plan half of the partition-and-
//! fuse execution engine.
//!
//! A [`PartitionPlan`] cuts a [`CsrGraph`] into `parts` **contiguous
//! vertex ranges** along a degree-balanced prefix-sum: vertex `v` weighs
//! `degree(v) + 1` (its adjacency slice plus its own label word — the
//! bytes a local kernel actually touches), the weights are prefix-summed
//! with [`PalPool::scan_copy_in`], and cut `k` lands where the running
//! weight crosses `k/parts` of the total.  Choosing `parts` so that
//! `(arcs + vertices) / parts` words fit in a private cache gives each
//! partition a working set that stays resident for the whole local phase
//! — the fusion-blossom / GBBS recipe of solving per region first.
//!
//! Alongside the ranges the plan materializes each partition's **cut-arc
//! set**: every arc `v → u` whose endpoints live in different partitions,
//! grouped by the partition owning `v` (vertex ranges are contiguous, so
//! grouping by source vertex *is* grouping by source partition).  Local
//! kernels skip exactly these arcs — zero cross-partition traffic — and
//! the fusion tree of [`fuse`](crate::fuse) replays them where the two
//! sides first share an ancestor.  Because the stored graph is
//! undirected (every edge is two arcs), the cut-arc relation is
//! symmetric: `(v, u)` is in `v`'s partition's set iff `(u, v)` is in
//! `u`'s.
//!
//! Every buffer the plan owns — cuts, cut-arc offsets, the cut arcs
//! themselves — is checked out of the pool's
//! [`Workspace`](lopram_core::Workspace) arena, so replanning on the same
//! pool (the steady state of the partition benches) allocates nothing.
//!
//! # Fork accounting
//!
//! Planning runs five blocked passes over the `n = vertices` range —
//! weights ([`map_collect_in`](PalPool::map_collect_in), `C − 1` forks),
//! weight scan ([`scan_copy_in`](PalPool::scan_copy_in), `2(C − 1)`),
//! cut degrees (`C − 1`), cut-degree scan (`2(C − 1)`) and cut-arc
//! expansion ([`expand_in`](PalPool::expand_in), `2(C − 1)`) — for an
//! exact, schedule-independent total of `8 · (C − 1)` forks,
//! `C = pool.chunk_count(vertices)`; see [`plan_forks`].  The cut search
//! itself is a `parts + 1`-iteration binary-search loop, fork-free.

use lopram_core::{PalPool, WorkspaceGuard};

use crate::csr::CsrGraph;

/// A degree-balanced split of a graph into contiguous vertex ranges plus
/// the cut arcs crossing between them.  See the [module docs](self).
pub struct PartitionPlan<'p> {
    parts: usize,
    vertices: usize,
    arcs: usize,
    /// `cuts[k]..cuts[k + 1]` is partition `k`'s vertex range;
    /// `cuts.len() == parts + 1`, `cuts[0] == 0`, `cuts[parts] == n`.
    cuts: WorkspaceGuard<'p, usize>,
    /// `cut_arcs[cut_offsets[k]..cut_offsets[k + 1]]` are partition `k`'s
    /// outgoing cut arcs, ordered by source vertex.
    cut_offsets: WorkspaceGuard<'p, usize>,
    /// All cut arcs `(v, u)` with `owner(v) != owner(u)`, grouped by
    /// `owner(v)`.
    cut_arcs: WorkspaceGuard<'p, (usize, usize)>,
}

impl<'p> PartitionPlan<'p> {
    /// Plan a `parts`-way split of `graph` on `pool`.
    ///
    /// Empty partitions are legal (a graph with fewer heavy vertices than
    /// `parts` may leave trailing ranges empty); every vertex lands in
    /// exactly one partition regardless.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn new(graph: &CsrGraph, pool: &'p PalPool, parts: usize) -> Self {
        assert!(parts > 0, "a partition plan needs at least one partition");
        let n = graph.vertices();
        let ws = pool.workspace();

        // Pass 1 + 2: degree-plus-one weights, prefix-summed.
        let mut weights = ws.checkout::<usize>();
        pool.map_collect_in(0..n, |v| graph.degree(v) + 1, &mut weights);
        let mut prefix = ws.checkout::<usize>();
        let total = pool.scan_copy_in(&weights, 0usize, |a, b| a + b, &mut prefix);

        // Cut search: cut k is the first vertex whose exclusive prefix
        // weight reaches k/parts of the total (monotone in k, so the
        // ranges tile 0..n).
        let mut cuts = ws.checkout::<usize>();
        for k in 0..=parts {
            let target = (total / parts) * k + (total % parts) * k / parts;
            cuts.push(prefix.partition_point(|&w| w < target));
        }
        cuts[parts] = n;

        // Pass 3 + 4: per-vertex cut degrees (how many of v's arcs leave
        // v's partition), prefix-summed into per-partition offsets.
        // Neighbour lists are sorted, so the out-of-range neighbours are
        // the two tails around `[lo, hi)` — two binary searches per
        // vertex, no arc scan.
        let cuts_ref: &[usize] = &cuts;
        pool.map_collect_in(
            0..n,
            |v| {
                let (lo, hi) = owner_range(cuts_ref, v);
                let nb = graph.neighbors(v);
                let a = nb.partition_point(|&u| u < lo);
                let b = nb.partition_point(|&u| u < hi);
                a + (nb.len() - b)
            },
            &mut weights,
        );
        let cut_total = pool.scan_copy_in(&weights, 0usize, |a, b| a + b, &mut prefix);
        let mut cut_offsets = ws.checkout::<usize>();
        for k in 0..=parts {
            let v = cuts[k];
            cut_offsets.push(if v < n { prefix[v] } else { cut_total });
        }

        // Pass 5: expand every vertex's cut arcs into its slot.
        let mut cut_arcs = ws.checkout::<(usize, usize)>();
        pool.expand_in(
            &weights,
            (0usize, 0usize),
            |v, slot| {
                let (lo, hi) = owner_range(cuts_ref, v);
                let nb = graph.neighbors(v);
                let a = nb.partition_point(|&u| u < lo);
                let b = nb.partition_point(|&u| u < hi);
                for (s, &u) in slot.iter_mut().zip(nb[..a].iter().chain(&nb[b..])) {
                    *s = (v, u);
                }
            },
            &mut cut_arcs,
        );

        PartitionPlan {
            parts,
            vertices: n,
            arcs: graph.arcs(),
            cuts,
            cut_offsets,
            cut_arcs,
        }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of vertices in the planned graph.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// The cut array: `cuts()[k]..cuts()[k + 1]` is partition `k`'s
    /// vertex range (`parts + 1` entries, first `0`, last `vertices`).
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// Partition `k`'s vertex range.
    pub fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.cuts[k]..self.cuts[k + 1]
    }

    /// The partition owning vertex `v`.  With empty partitions the owner
    /// is the *last* partition whose range starts at or before `v` — the
    /// unique one whose half-open range contains it.
    pub fn owner(&self, v: usize) -> usize {
        debug_assert!(v < self.vertices);
        self.cuts.partition_point(|&c| c <= v) - 1
    }

    /// Partition `k`'s outgoing cut arcs `(v, u)` (`v` owned by `k`, `u`
    /// owned elsewhere), ordered by source vertex.
    pub fn cut_arcs(&self, k: usize) -> &[(usize, usize)] {
        &self.cut_arcs[self.cut_offsets[k]..self.cut_offsets[k + 1]]
    }

    /// Every cut arc of the plan, grouped by source partition.
    pub fn cut_arcs_all(&self) -> &[(usize, usize)] {
        &self.cut_arcs
    }

    /// Fraction of stored arcs that cross a partition boundary, in
    /// `[0, 1]` (`0.0` for an arcless graph or `parts == 1`).  The
    /// locality headline: the local phase touches `1 − boundary_fraction`
    /// of the arcs with zero cross-partition traffic.
    pub fn boundary_fraction(&self) -> f64 {
        if self.arcs == 0 {
            0.0
        } else {
            self.cut_arcs.len() as f64 / self.arcs as f64
        }
    }
}

/// The half-open vertex range of the partition owning `v`, given the cut
/// array (free function so the planning closures can use it before the
/// plan exists).
fn owner_range(cuts: &[usize], v: usize) -> (usize, usize) {
    let k = cuts.partition_point(|&c| c <= v) - 1;
    (cuts[k], cuts[k + 1])
}

/// Exact fork count of [`PartitionPlan::new`] on `pool` for a graph with
/// `vertices` vertices: five blocked passes, `8 · (chunk_count − 1)`
/// forks, schedule-independent (see the [module docs](self)).
pub fn plan_forks(pool: &PalPool, vertices: usize) -> u64 {
    if vertices == 0 {
        return 0;
    }
    8 * (pool.chunk_count(vertices) as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_invariants(g: &CsrGraph, plan: &PartitionPlan<'_>) {
        let n = g.vertices();
        let parts = plan.parts();
        // Ranges tile 0..n: every vertex in exactly one partition.
        assert_eq!(plan.cuts()[0], 0);
        assert_eq!(plan.cuts()[parts], n);
        assert!(plan.cuts().windows(2).all(|w| w[0] <= w[1]));
        for v in 0..n {
            let k = plan.owner(v);
            assert!(plan.range(k).contains(&v), "owner range must contain v");
        }
        // Cut-arc sets: complete (every crossing arc present exactly
        // once, in its source's group) and symmetric.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            for &u in g.neighbors(v) {
                if plan.owner(v) != plan.owner(u) {
                    expected.push((v, u));
                }
            }
        }
        let mut all: Vec<(usize, usize)> = plan.cut_arcs_all().to_vec();
        for k in 0..parts {
            for &(v, _) in plan.cut_arcs(k) {
                assert_eq!(plan.owner(v), k, "cut arc grouped under wrong partition");
            }
        }
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            all, expected,
            "cut-arc set must be exactly the crossing arcs"
        );
        for &(v, u) in plan.cut_arcs_all() {
            assert!(
                plan.cut_arcs(plan.owner(u)).contains(&(u, v)),
                "cut arcs must be symmetric: ({v}, {u}) without ({u}, {v})"
            );
        }
    }

    #[test]
    fn plan_invariants_across_shapes_and_parts() {
        let pool = PalPool::new(2).unwrap();
        let shapes = [
            gen::gnm(120, 400, 9),
            gen::grid(8, 11),
            gen::star(90),
            gen::path(77),
            gen::binary_tree(63),
            CsrGraph::from_undirected_edges(10, &[]),
            CsrGraph::from_undirected_edges(0, &[]),
        ];
        for g in &shapes {
            for parts in [1, 2, 3, 4, 7] {
                let plan = PartitionPlan::new(g, &pool, parts);
                assert_eq!(plan.parts(), parts);
                check_invariants(g, &plan);
                if parts == 1 {
                    assert!(plan.cut_arcs_all().is_empty());
                    assert_eq!(plan.boundary_fraction(), 0.0);
                }
            }
        }
    }

    #[test]
    fn cuts_balance_degree_weight() {
        // On a path every vertex weighs ~3; a 4-way cut must quarter it.
        let g = gen::path(400);
        let pool = PalPool::new(1).unwrap();
        let plan = PartitionPlan::new(&g, &pool, 4);
        for k in 0..4 {
            let r = plan.range(k);
            let weight: usize = r.map(|v| g.degree(v) + 1).sum();
            assert!(
                (weight as i64 - 300).abs() <= 6,
                "partition {k} weight {weight} far from the 300 target"
            );
        }
    }

    #[test]
    fn plan_fork_count_is_exact() {
        let g = gen::gnm(3000, 9000, 3);
        for p in [1, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let ((), delta) = pool.scoped_metrics(|| {
                let _plan = PartitionPlan::new(&g, &pool, 4);
            });
            assert_eq!(
                delta.forks(),
                plan_forks(&pool, g.vertices()),
                "plan forks diverged at p = {p}"
            );
        }
    }

    #[test]
    fn replanning_is_allocation_free() {
        let g = gen::gnm(500, 2000, 1);
        let pool = PalPool::new(2).unwrap();
        // Warm the arena: same-typed shelf buffers shuffle between roles
        // across calls (LIFO), so capacities converge after a few calls.
        for _ in 0..3 {
            drop(PartitionPlan::new(&g, &pool, 4));
        }
        let before = pool.metrics().snapshot();
        drop(PartitionPlan::new(&g, &pool, 4));
        let delta = pool.metrics().snapshot().delta_since(&before);
        assert_eq!(delta.arena_bytes, 0, "replanning must not grow the arena");
    }
}
