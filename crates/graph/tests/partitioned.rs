//! Property tests for the partition-and-fuse execution engine.
//!
//! Three contracts, checked over random graphs *and* every generator
//! shape, at `p ∈ {1, 2, 4}` × `parts ∈ {1, 2, 4}`:
//!
//! * **partition invariants** — the cuts tile `0..n` (every vertex in
//!   exactly one partition) and the cut-arc sets are complete (exactly
//!   the crossing arcs, grouped under their source's partition) and
//!   symmetric (`(v, u)` recorded iff `(u, v)` is);
//! * **twin equality** — `bfs_partitioned` / `components_partitioned`
//!   reproduce their sequential twins bit-for-bit;
//! * **exact fork accounting** — the plan phase costs exactly
//!   [`plan_forks`], the BFS solve exactly `(levels + 1)(parts − 1)`,
//!   the CC solve exactly `(parts − 1) + (chunk_count(n) − 1)` —
//!   schedule-independent, attributed per phase with
//!   [`PalPool::scoped_metrics`].

use lopram_core::{MetricsSnapshot, PalPool};
use lopram_graph::bfs::bfs_partitioned_with;
use lopram_graph::cc::components_partitioned_with;
use lopram_graph::prelude::*;
use proptest::prelude::*;

/// Processor counts every property is checked under.
const P_SWEEP: [usize; 3] = [1, 2, 4];
/// Partition counts every property is checked under.
const PARTS_SWEEP: [usize; 3] = [1, 2, 4];

/// Build a graph on `n` vertices from raw endpoint pairs by folding the
/// endpoints into range.
fn graph_from(n: usize, raw: &[(usize, usize)]) -> CsrGraph {
    let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// Every generator shape the kernels must agree on.
fn shapes() -> Vec<CsrGraph> {
    vec![
        gnm(120, 420, 13),
        grid(7, 11),
        star(65),
        path(73),
        binary_tree(63),
        CsrGraph::from_undirected_edges(9, &[]),
        CsrGraph::from_undirected_edges(1, &[]),
    ]
}

/// Plan `parts` partitions, then run `solve` on the plan, each inside its
/// own [`PalPool::scoped_metrics`] window: the output, the plan-phase
/// delta and the solve-phase delta.
fn phased<T>(
    g: &CsrGraph,
    pool: &PalPool,
    parts: usize,
    solve: impl FnOnce(&PartitionPlan<'_>) -> T,
) -> (T, MetricsSnapshot, MetricsSnapshot) {
    let (plan, plan_delta) = pool.scoped_metrics(|| PartitionPlan::new(g, pool, parts));
    let (out, solve_delta) = pool.scoped_metrics(|| solve(&plan));
    (out, plan_delta, solve_delta)
}

/// The exact, schedule-independent fork count of the partitioned-BFS
/// solve phase: one fusion tree per frontier round.
fn bfs_solve_forks(dist: &[usize], parts: usize) -> u64 {
    (levels(dist) as u64 + 1) * (parts as u64 - 1)
}

/// The exact fork count of the partitioned-CC solve phase: one fusion
/// tree plus one blocked flatten pass.
fn cc_solve_forks(pool: &PalPool, n: usize, parts: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    (parts as u64 - 1) + (pool.chunk_count(n) as u64 - 1)
}

#[test]
fn partitioned_kernels_match_twins_on_generator_shapes() {
    for (i, g) in shapes().iter().enumerate() {
        let expected_dist = bfs_seq(g, 0);
        let expected_labels = components_seq(g);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            for parts in PARTS_SWEEP {
                let (dist, bfs_plan, bfs_solve) = phased(g, &pool, parts, |plan| {
                    bfs_partitioned_with(g, &pool, plan, 0)
                });
                assert_eq!(
                    dist, expected_dist,
                    "BFS shape {i}, p = {p}, parts = {parts}"
                );
                let (labels, cc_plan, cc_solve) = phased(g, &pool, parts, |plan| {
                    components_partitioned_with(g, &pool, plan)
                });
                assert_eq!(
                    labels, expected_labels,
                    "CC shape {i}, p = {p}, parts = {parts}"
                );
                // Exact per-phase fork accounting on every cell.
                let planned = plan_forks(&pool, g.vertices());
                assert_eq!(bfs_plan.forks(), planned, "BFS plan forks");
                assert_eq!(cc_plan.forks(), planned, "CC plan forks");
                assert_eq!(
                    bfs_solve.forks(),
                    bfs_solve_forks(&dist, parts),
                    "BFS solve forks, shape {i}, p = {p}, parts = {parts}"
                );
                assert_eq!(
                    cc_solve.forks(),
                    cc_solve_forks(&pool, g.vertices(), parts),
                    "CC solve forks, shape {i}, p = {p}, parts = {parts}"
                );
            }
        }
    }
}

#[test]
fn flat_and_partitioned_kernels_agree() {
    let g = gnm(300, 1200, 29);
    let pool = PalPool::new(4).unwrap();
    let flat_dist = bfs_par(&g, &pool, 0);
    let flat_labels = components_union_find(&g, &pool);
    for parts in PARTS_SWEEP {
        assert_eq!(bfs_partitioned(&g, &pool, 0, parts), flat_dist);
        assert_eq!(components_partitioned(&g, &pool, parts), flat_labels);
    }
}

#[test]
fn steady_state_rounds_do_not_grow_the_arena() {
    let g = gnm(400, 1600, 3);
    let pool = PalPool::new(2).unwrap();
    let plan = PartitionPlan::new(&g, &pool, 4);
    // Warm until the same-typed shelf buffers settle into their roles.
    // At p > 1 the leaves' outbox checkouts race, so which buffer lands
    // in which role is schedule-dependent — capacities are monotone, so
    // the shuffle converges, but not in a fixed number of rounds.  Loop
    // until one full round grows the arena by zero bytes.
    let mut settled = false;
    for _ in 0..50 {
        let before = pool.metrics().snapshot();
        let _ = bfs_partitioned_with(&g, &pool, &plan, 0);
        let delta = pool.metrics().snapshot().delta_since(&before);
        if delta.arena_bytes == 0 {
            assert!(delta.arena_hits > 0, "the run must reuse shelved buffers");
            settled = true;
            break;
        }
    }
    assert!(
        settled,
        "partitioned BFS arena growth never settled to zero within 50 rounds"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn partition_invariants_hold(
        n in 1usize..48,
        raw in collection::vec((0usize..64, 0usize..64), 0..160),
        parts in 1usize..6,
    ) {
        let g = graph_from(n, &raw);
        let pool = PalPool::new(2).unwrap();
        let plan = PartitionPlan::new(&g, &pool, parts);

        // Every vertex in exactly one partition: the cuts tile 0..n.
        prop_assert_eq!(plan.cuts()[0], 0);
        prop_assert_eq!(plan.cuts()[parts], n);
        prop_assert!(plan.cuts().windows(2).all(|w| w[0] <= w[1]));
        for v in 0..n {
            let k = plan.owner(v);
            prop_assert!(plan.range(k).contains(&v));
            prop_assert_eq!(
                (0..parts).filter(|&j| plan.range(j).contains(&v)).count(),
                1,
                "vertex {} must land in exactly one partition", v
            );
        }

        // Cut-arc completeness: exactly the crossing arcs, each grouped
        // under its source's partition.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            for &u in g.neighbors(v) {
                if plan.owner(v) != plan.owner(u) {
                    expected.push((v, u));
                }
            }
        }
        expected.sort_unstable();
        let mut got: Vec<(usize, usize)> = plan.cut_arcs_all().to_vec();
        for k in 0..parts {
            for &(v, _) in plan.cut_arcs(k) {
                prop_assert_eq!(plan.owner(v), k);
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, expected);

        // Symmetry: (v, u) is recorded iff (u, v) is.
        for &(v, u) in plan.cut_arcs_all() {
            prop_assert!(
                plan.cut_arcs(plan.owner(u)).contains(&(u, v)),
                "cut arc ({}, {}) lacks its mirror", v, u
            );
        }

        let frac = plan.boundary_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn partitioned_bfs_matches_sequential(
        n in 1usize..48,
        src in 0usize..usize::MAX,
        raw in collection::vec((0usize..64, 0usize..64), 0..160),
    ) {
        let g = graph_from(n, &raw);
        let src = src % n;
        let expected = bfs_seq(&g, src);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            for parts in PARTS_SWEEP {
                let (dist, plan, solve) = phased(&g, &pool, parts, |plan| {
                    bfs_partitioned_with(&g, &pool, plan, src)
                });
                prop_assert_eq!(&dist, &expected, "p = {}, parts = {}", p, parts);
                prop_assert_eq!(plan.forks(), plan_forks(&pool, n));
                prop_assert_eq!(
                    solve.forks(),
                    bfs_solve_forks(&dist, parts),
                    "solve forks, p = {}, parts = {}", p, parts
                );
            }
        }
    }

    #[test]
    fn partitioned_cc_matches_sequential(
        n in 1usize..40,
        raw in collection::vec((0usize..64, 0usize..64), 0..120),
    ) {
        let g = graph_from(n, &raw);
        let expected = components_seq(&g);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            for parts in PARTS_SWEEP {
                let (labels, plan, solve) = phased(&g, &pool, parts, |plan| {
                    components_partitioned_with(&g, &pool, plan)
                });
                prop_assert_eq!(&labels, &expected, "p = {}, parts = {}", p, parts);
                prop_assert_eq!(plan.forks(), plan_forks(&pool, n));
                prop_assert_eq!(
                    solve.forks(),
                    cc_solve_forks(&pool, n, parts),
                    "solve forks, p = {}, parts = {}", p, parts
                );
            }
        }
    }
}
