//! Work-efficient connected components: concurrent union-find with
//! CAS-based hooking, path splitting, and Afforest-style sampling.
//!
//! A round-synchronous kernel (label propagation, Shiloach–Vishkin
//! hooking) pays O(diameter) or O(log n) blocked passes — a path graph
//! forces `n − 1` rounds of label propagation.  This module implements
//! the sampled concurrent union-find of Dhulipala–Blelloch–Shun
//! (ConnectIt / Afforest, arXiv 1805.05208) on the blocked primitives,
//! so the pass count is a **constant** (`sample_edges + 1` index passes
//! plus one blocked flatten) regardless of diameter, and the fork count
//! stays an exact, schedule-independent closed form ([`union_find_forks`]).
//!
//! The three phases:
//!
//! 1. **Sample** — `sample_edges` blocked passes link every vertex with
//!    its *r*-th neighbour (r = 0, 1, …).  On most graphs a couple of
//!    edges per vertex already coalesce the bulk of the vertices into
//!    one giant component.
//! 2. **Estimate** — a sequential, read-only scan of ~`sample_vertices`
//!    strided vertices finds the most frequent current root (the giant
//!    component's), costing zero forks.
//! 3. **Finish** — one blocked pass links *all* edges of every vertex
//!    whose root differs from the giant root, then one blocked
//!    [`map_collect_in`](PalPool::map_collect_in) flattens each vertex to its
//!    component minimum.  Skipping giant-rooted vertices is safe under
//!    any interleaving: an edge `(v, u)` is only skipped from `v`'s side
//!    when `v` is already in the giant component, so either `u` links it
//!    from its own side or `u` is giant-rooted too — in which case the
//!    edge connects two vertices already in one set.
//!
//! ## Why the concurrent forest is safe
//!
//! The parent array maintains `parent[v] ≤ v`, and every write strictly
//! *decreases* a cell: hooking CAS-es a root `hi` from `hi` to a smaller
//! root `lo` (so a lost race — `hi` no longer its own parent — retries
//! with fresh roots instead of clobbering), and path splitting uses
//! `fetch_min` with a grandparent, which is always ≤ the parent being
//! replaced.  Monotonically decreasing parents mean no cycles can ever
//! form and every chase terminates.  The minimum vertex id of a
//! component is never hooked under anything (there is no smaller root in
//! its component), so it remains the root and the final labelling is
//! **exactly** [`components_seq`](crate::cc::components_seq)'s
//! minimum-id labelling — not merely equal up to relabelling.
//!
//! The parent and sample buffers come out of the pool's
//! [`Workspace`](lopram_core::Workspace) arena, so a warmed pool runs
//! million-edge CC calls with zero arena growth (the steady state
//! `tests/uf.rs` gates).

use std::sync::atomic::{AtomicUsize, Ordering};

use lopram_core::runtime::cancel;
use lopram_core::PalPool;

use crate::csr::CsrGraph;

/// Tuning knobs for [`components_union_find_with`].
#[derive(Debug, Clone, Copy)]
pub struct UnionFindConfig {
    /// Number of sampling passes: pass `r` links every vertex with its
    /// `r`-th neighbour.  More passes grow the pre-resolved giant
    /// component but cost one blocked index pass each.
    pub sample_edges: usize,
    /// Upper bound on the strided vertex sample used to estimate the
    /// giant component's root (phase 2); the estimate is sequential and
    /// fork-free, so this only trades estimate quality against scan
    /// time.
    pub sample_vertices: usize,
}

impl Default for UnionFindConfig {
    /// Two sampling passes over a ≤1024-vertex root sample — the
    /// Afforest paper's sweet spot for sparse graphs.
    fn default() -> Self {
        UnionFindConfig {
            sample_edges: 2,
            sample_vertices: 1024,
        }
    }
}

/// Read-only chase to the current root (`parent[r] == r`).  Terminates
/// because parents strictly decrease along every chain.
fn chase(parent: &[AtomicUsize], mut v: usize) -> usize {
    loop {
        let p = parent[v].load(Ordering::Acquire);
        if p == v {
            return v;
        }
        v = p;
    }
}

/// Find the root of `v` with **path splitting**: every visited vertex is
/// re-pointed at its grandparent on the way up, halving the chain for
/// later finds.  The splice uses `fetch_min`, so a racing writer that
/// already lowered `parent[v]` further is never overwritten — parents
/// stay monotonically decreasing under any interleaving.
fn find_split(parent: &[AtomicUsize], mut v: usize) -> usize {
    loop {
        let p = parent[v].load(Ordering::Acquire);
        if p == v {
            return v;
        }
        let gp = parent[p].load(Ordering::Acquire);
        if gp == p {
            return p;
        }
        parent[v].fetch_min(gp, Ordering::AcqRel);
        v = p;
    }
}

/// Merge the components of `u` and `v` by hooking the larger of their
/// roots under the smaller.  The hook is a CAS from `hi` to `lo`, which
/// only succeeds while `hi` is still its own parent — a concurrent hook
/// of the same root makes the CAS fail and the loop re-find both roots,
/// so no union is ever lost and the forest keeps exactly one root per
/// set.
fn link(parent: &[AtomicUsize], u: usize, v: usize) {
    let (mut u, mut v) = (u, v);
    loop {
        let ru = find_split(parent, u);
        let rv = find_split(parent, v);
        if ru == rv {
            return;
        }
        let (lo, hi) = (ru.min(rv), ru.max(rv));
        if parent[hi]
            .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        // Lost the race: hi was hooked elsewhere first.  Both roots are
        // still on their vertices' chains, so restart the finds there.
        (u, v) = (lo, hi);
    }
}

/// Phase 1 + 2: checkout and initialise the parent forest, run the
/// sampling passes, and estimate the giant component's root.
fn sample_phase<'ws>(
    graph: &CsrGraph,
    pool: &'ws PalPool,
    config: &UnionFindConfig,
) -> (lopram_core::WorkspaceGuard<'ws, AtomicUsize>, usize) {
    let n = graph.vertices();
    let mut parent = pool.workspace().checkout::<AtomicUsize>();
    parent.extend((0..n).map(AtomicUsize::new));
    {
        let parent: &[AtomicUsize] = &parent;
        for r in 0..config.sample_edges {
            // Round boundary: under `run_cancellable` a fired token
            // unwinds here at the latest.
            cancel::checkpoint();
            pool.for_each_index(0..n, |v| {
                if let Some(&u) = graph.neighbors(v).get(r) {
                    link(parent, v, u);
                }
            });
        }
    }

    // Sequential giant-root estimate over a strided, read-only sample:
    // zero forks, O(sample) chases.  A wrong estimate never breaks
    // correctness — it only shrinks the set of vertices the finish pass
    // may skip.
    let giant = if n == 0 {
        0
    } else {
        let stride = (n / config.sample_vertices.max(1)).max(1);
        let mut roots = pool.workspace().checkout::<usize>();
        let mut v = 0;
        while v < n {
            roots.push(chase(&parent, v));
            v += stride;
        }
        roots.sort_unstable();
        let (mut best, mut best_len, mut run_len) = (roots[0], 0usize, 0usize);
        let mut prev = usize::MAX;
        for &r in roots.iter() {
            run_len = if r == prev { run_len + 1 } else { 1 };
            if run_len > best_len {
                (best, best_len) = (r, run_len);
            }
            prev = r;
        }
        best
    };
    (parent, giant)
}

/// Phase 3: link every edge of every vertex not yet in the giant
/// component, then flatten to minimum-id labels.
fn finish_phase(
    graph: &CsrGraph,
    pool: &PalPool,
    parent: &[AtomicUsize],
    giant: usize,
) -> Vec<usize> {
    let n = graph.vertices();
    if n == 0 {
        return Vec::new();
    }
    cancel::checkpoint();
    pool.for_each_index(0..n, |v| {
        if find_split(parent, v) == giant {
            return;
        }
        for &u in graph.neighbors(v) {
            link(parent, v, u);
        }
    });
    let mut labels = Vec::new();
    pool.map_collect_in(0..n, |v| chase(parent, v), &mut labels);
    labels
}

/// Connected components by sampled concurrent union-find with the
/// default [`UnionFindConfig`]: `labels[v]` is the smallest vertex id in
/// `v`'s component, bit-identical to
/// [`components_seq`](crate::cc::components_seq) for every processor
/// count and schedule.
///
/// Exactly [`union_find_forks`] forks — constant passes regardless of
/// graph diameter, which is what makes this kernel work-efficient where
/// label propagation pays O(diameter) rounds.
pub fn components_union_find(graph: &CsrGraph, pool: &PalPool) -> Vec<usize> {
    components_union_find_with(graph, pool, &UnionFindConfig::default())
}

/// [`components_union_find`] under an explicit [`UnionFindConfig`].
pub fn components_union_find_with(
    graph: &CsrGraph,
    pool: &PalPool,
    config: &UnionFindConfig,
) -> Vec<usize> {
    let (parent, giant) = sample_phase(graph, pool, config);
    finish_phase(graph, pool, &parent, giant)
}

/// The exact, schedule-independent fork count of a
/// [`components_union_find_with`] run on `pool` over a graph with
/// `vertices` vertices and `sample_edges` sampling passes:
/// `(sample_edges + 1)` index passes (each `index_chunk_count − 1` forks)
/// plus one blocked flatten (`chunk_count − 1` forks).  The giant-root
/// estimate is sequential and contributes zero.
pub fn union_find_forks(pool: &PalPool, vertices: usize, sample_edges: usize) -> u64 {
    if vertices == 0 {
        return 0;
    }
    let index_pass = pool.index_chunk_count(vertices) as u64 - 1;
    (sample_edges as u64 + 1) * index_pass + (pool.chunk_count(vertices) as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::components_seq;
    use crate::gen;

    #[test]
    fn union_find_labels_are_component_minima() {
        // Two components: {0, 1, 2} and {3, 4}.
        let g = CsrGraph::from_undirected_edges(5, &[(1, 2), (0, 2), (4, 3)]);
        let pool = PalPool::new(2).unwrap();
        assert_eq!(components_union_find(&g, &pool), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn union_find_matches_sequential_on_generator_shapes() {
        let shapes = [
            gen::gnm(200, 220, 5),
            gen::gnm(200, 800, 6),
            gen::grid(9, 13),
            gen::star(100),
            gen::path(173),
            gen::binary_tree(255),
            CsrGraph::from_undirected_edges(64, &[]),
        ];
        for p in [1, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            for (k, g) in shapes.iter().enumerate() {
                assert_eq!(
                    components_union_find(g, &pool),
                    components_seq(g),
                    "union-find diverged on shape {k} at p = {p}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_yields_no_labels_and_no_forks() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        let pool = PalPool::new(2).unwrap();
        let (labels, delta) = pool.scoped_metrics(|| components_union_find(&g, &pool));
        assert!(labels.is_empty());
        assert_eq!(delta.forks(), 0);
        assert_eq!(union_find_forks(&pool, 0, 2), 0);
    }

    #[test]
    fn degenerate_configs_stay_correct() {
        let g = gen::gnm(96, 300, 11);
        let expected = components_seq(&g);
        let pool = PalPool::new(4).unwrap();
        for config in [
            UnionFindConfig {
                sample_edges: 0,
                sample_vertices: 1024,
            },
            UnionFindConfig {
                sample_edges: 7,
                sample_vertices: 1,
            },
            UnionFindConfig {
                sample_edges: 1,
                sample_vertices: usize::MAX,
            },
        ] {
            assert_eq!(
                components_union_find_with(&g, &pool, &config),
                expected,
                "diverged under {config:?}"
            );
        }
    }
}
