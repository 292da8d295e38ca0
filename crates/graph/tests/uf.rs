//! Property tests for the sampled concurrent union-find kernel family.
//!
//! Four contracts, checked over random graphs *and* every generator
//! shape, at `p ∈ {1, 2, 4}` across [`UnionFindConfig`] sweeps:
//!
//! * **twin equality** — `components_union_find` reproduces
//!   `components_seq`'s minimum-id labelling bit-for-bit (the CAS
//!   forest's min-hooking makes the result exact, not merely equal up to
//!   relabelling);
//! * **exact fork accounting** — every run costs exactly
//!   [`union_find_forks`] forks, schedule-independent, measured with
//!   [`PalPool::scoped_metrics`]; the `sample_edges: 0` sweep row is the
//!   finish pass plus blocked flatten alone;
//! * **zero warm-arena growth** — after the settling warmup, repeated
//!   runs on one pool check the parent and sample buffers out of the
//!   arena without growing it;
//! * **million-edge scale** — a streamed `G(n, m)` build at ~10⁶ edges
//!   matches the sequential twin at every `p`, at the exact fork count
//!   (`LOPRAM_TEST_REPEAT ≥ 100` — the CI runtime-stress setting — widens
//!   it to ~4·10⁶ edges).
//!
//! A contention stress rides along: a long path at `p = 4`, hammered
//! `LOPRAM_TEST_REPEAT` times (CI's runtime-stress job sets 200), where a
//! lost hook or a torn chase leaves some label above 0.

use lopram_core::PalPool;
use lopram_graph::cc::components_seq;
use lopram_graph::prelude::*;
use proptest::prelude::*;

/// Processor counts every property is checked under.
const P_SWEEP: [usize; 3] = [1, 2, 4];

/// Stress repeat count: `LOPRAM_TEST_REPEAT` if set, else a quick default.
fn repeat() -> usize {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Build a graph on `n` vertices from raw endpoint pairs by folding the
/// endpoints into range.
fn graph_from(n: usize, raw: &[(usize, usize)]) -> CsrGraph {
    let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// Every generator shape the kernel must agree on, including a graph
/// with self-loops (dropped by CSR construction, but the raw pair is
/// exercised by `graph_from` in the property suite below).
fn shapes() -> Vec<CsrGraph> {
    vec![
        gnm(120, 420, 13),
        gnm(200, 4000, 17), // dense: clamped near the complete graph
        grid(7, 11),
        star(65),
        path(73),
        path_permuted(97, 29),
        binary_tree(63),
        CsrGraph::from_undirected_edges(5, &[(0, 0), (1, 1), (1, 2)]), // self-loops
        CsrGraph::from_undirected_edges(9, &[]),
        CsrGraph::from_undirected_edges(1, &[]),
    ]
}

#[test]
fn union_find_matches_twin_on_generator_shapes_with_exact_forks() {
    let configs = [
        UnionFindConfig::default(),
        UnionFindConfig {
            sample_edges: 0,
            sample_vertices: 64,
        },
        UnionFindConfig {
            sample_edges: 4,
            sample_vertices: 1,
        },
    ];
    for (i, g) in shapes().iter().enumerate() {
        let expected = components_seq(g);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            for config in &configs {
                let (labels, run) =
                    pool.scoped_metrics(|| components_union_find_with(g, &pool, config));
                assert_eq!(
                    labels, expected,
                    "shape {i}, p = {p}, k = {}",
                    config.sample_edges
                );
                // Exact, schedule-independent fork accounting: the whole
                // run costs the closed form (the `sample_edges: 0` config
                // pins the finish pass + flatten on their own).
                assert_eq!(
                    run.forks(),
                    union_find_forks(&pool, g.vertices(), config.sample_edges),
                    "total forks, shape {i}, p = {p}, k = {}",
                    config.sample_edges
                );
            }
        }
    }
}

#[test]
fn union_find_converges_on_long_path_under_contention() {
    let g = path(2048);
    let expected = components_seq(&g);
    let pool = PalPool::new(4).unwrap();
    for round in 0..repeat() {
        assert_eq!(
            components_union_find(&g, &pool),
            expected,
            "union-find diverged on iteration {round}"
        );
    }
}

#[test]
fn steady_state_rounds_do_not_grow_the_arena() {
    let g = gnm(400, 1600, 3);
    for p in P_SWEEP {
        let pool = PalPool::new(p).unwrap();
        // Warm until the same-typed shelf buffers settle into their
        // roles (schedule-dependent at p > 1, monotone, so convergent —
        // the warmup-to-fixpoint rule of ARCHITECTURE.md's arena section).
        let mut settled = false;
        for _ in 0..50 {
            let before = pool.metrics().snapshot();
            let _ = components_union_find(&g, &pool);
            let delta = pool.metrics().snapshot().delta_since(&before);
            if delta.arena_bytes == 0 {
                assert!(delta.arena_hits > 0, "the run must reuse shelved buffers");
                settled = true;
                break;
            }
        }
        assert!(
            settled,
            "union-find arena growth never settled to zero within 50 rounds at p = {p}"
        );
    }
}

#[test]
fn million_edge_streamed_graph_matches_twin() {
    // ~10⁶ arcs without ever materializing the edge list; CI's
    // runtime-stress job (LOPRAM_TEST_REPEAT=200, release profile)
    // widens the same check to ~4·10⁶ edges.
    let stress = std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let (n, m) = if stress >= 100 {
        (1 << 19, 1 << 22)
    } else {
        (1 << 17, 1 << 19)
    };
    let g = gnm_streamed(n, m, 42);
    assert_eq!(g.edges(), m, "the streamed build must realise all m edges");
    let expected = components_seq(&g);
    for p in P_SWEEP {
        let pool = PalPool::new(p).unwrap();
        let (labels, run) = pool.scoped_metrics(|| components_union_find(&g, &pool));
        assert_eq!(labels, expected, "diverged at p = {p} on G({n}, {m})");
        assert_eq!(
            run.forks(),
            union_find_forks(&pool, n, 2),
            "fork closed form at p = {p} on G({n}, {m})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn union_find_matches_sequential(
        n in 1usize..48,
        raw in collection::vec((0usize..64, 0usize..64), 0..160),
        sample_edges in 0usize..4,
    ) {
        let g = graph_from(n, &raw);
        let expected = components_seq(&g);
        let config = UnionFindConfig {
            sample_edges,
            sample_vertices: 32,
        };
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            let (labels, run) =
                pool.scoped_metrics(|| components_union_find_with(&g, &pool, &config));
            prop_assert_eq!(&labels, &expected, "p = {}, k = {}", p, sample_edges);
            prop_assert_eq!(
                run.forks(),
                union_find_forks(&pool, n, sample_edges),
                "forks, p = {}, k = {}", p, sample_edges
            );
        }
    }

    #[test]
    fn component_count_is_consistent_across_kernels(
        n in 1usize..40,
        raw in collection::vec((0usize..64, 0usize..64), 0..120),
    ) {
        let g = graph_from(n, &raw);
        let pool = PalPool::new(2).unwrap();
        let seq = components_seq(&g);
        let uf = components_union_find(&g, &pool);
        prop_assert_eq!(&uf, &seq);
        prop_assert_eq!(component_count(&uf), component_count(&seq));
    }
}
