//! Replay round-trip properties: a trace captured from a real `PalPool`
//! must (a) reproduce the pool's own `RunMetrics` accounting from the
//! event stream alone, (b) capture every event (no buffer overflow),
//! (c) replay at the *capture* configuration to exactly the recorded
//! fork and steal totals, and (d) replay at `p = 1` to a steal-free,
//! fully elided prediction — the property contract of the trace/replay
//! loop.
//!
//! Workloads are random mixes of binary join trees (non-pass forks, whose
//! call sites are configuration-independent) and blocked scans (pass
//! forks, which the replayer recounts per configuration) so both halves of
//! the fork-recount identity are exercised; cross-configuration fork
//! predictions are validated against fresh measured pools — for those
//! mixes and for a traced `bfs_par` on a seeded G(n, m).
//!
//! Two further workload families extend the coverage beyond the balanced
//! shapes:
//!
//! * the **unbalanced divide-and-conquer tree** (each level joins a
//!   cheap leaf against the rest of the chain) — maximally skewed join
//!   structure, still configuration-independent, so cross-configuration
//!   fork prediction must stay exact;
//! * a **DP wavefront** (`EditDistance` under `solve_wavefront`, on
//!   `.grain(1)` pools so that its levels fork at all) — its forks are
//!   the `join` trees of `for_each_index`, which records no `Pass`
//!   event, so the replayer carries them *as recorded*.  Their count is a
//!   pure function of `(level widths, p)` but `p`-*dependent*
//!   (`index_chunk_count − 1` per level), so replay exactness holds at
//!   the capture configuration (and against a fresh pool at the capture
//!   `p`), while cross-`p` prediction is deliberately out of contract
//!   for index-pass workloads and excluded here.

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::{DagTrace, PalPool, TraceConfig};
use lopram_dp::prelude::{solve_sequential, solve_wavefront, EditDistance};
use lopram_graph::bfs::{bfs_par, bfs_seq};
use lopram_graph::gen::gnm;
use lopram_sim::replay::{ReplayGrain, TraceReplay};
use proptest::prelude::*;

/// Processor counts every property is checked under.
const P_SWEEP: [usize; 3] = [1, 2, 4];

/// Scan lengths are drawn from both sides of the default policy's wake
/// floor: below it an adaptive capture records one-block passes (zero
/// forks, recounted to real forks under a pinned grain), above it the
/// capture itself forks.
const MAX_LEN: usize = 2 * WAKE_GRAIN;

fn join_tree(pool: &PalPool, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = pool.join(|| join_tree(pool, depth - 1), || join_tree(pool, depth - 1));
    a + b
}

/// The unbalanced divide-and-conquer shape: each level forks a trivial
/// leaf against the rest of the chain, so the tree
/// is a maximally skewed chain of `depth` joins — `depth` forks total,
/// configuration-independent.
fn unbalanced(pool: &PalPool, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (leaf, rest) = pool.join(|| 1u64, || unbalanced(pool, depth - 1));
    leaf + rest
}

/// A traced pool builder at `p`.
fn traced_pool(p: usize) -> PalPool {
    PalPool::builder()
        .processors(p)
        .trace(TraceConfig::default())
        .build()
        .unwrap()
}

/// Assert the capture-fidelity half of the contract: lossless capture,
/// summary == RunMetrics.
#[track_caller]
fn assert_capture_fidelity(trace: &DagTrace, m: &lopram_core::MetricsSnapshot, p: usize) {
    assert!(trace.is_complete(), "p = {p}: capture dropped events");
    let s = trace.summary();
    assert_eq!(s.forks, m.forks(), "forks, p = {p}");
    assert_eq!(s.elided, m.elided, "elided, p = {p}");
    assert_eq!(s.spawned, m.spawned, "spawned, p = {p}");
    assert_eq!(s.inlined, m.inlined, "inlined, p = {p}");
    assert_eq!(s.steals, m.steals, "steals, p = {p}");
    assert_eq!(s.unclassified, 0, "quiesced capture, p = {p}");
}

/// Run `depth`-deep join trees and a scan over `len` elements on a traced
/// pool; return the drained capture plus the pool's final counters.
fn capture(p: usize, depth: u32, len: usize) -> (DagTrace, lopram_core::MetricsSnapshot) {
    let pool = PalPool::builder()
        .processors(p)
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    let leaves = join_tree(&pool, depth);
    assert_eq!(leaves, 1u64 << depth);
    if len > 0 {
        let input: Vec<u64> = (0..len as u64).collect();
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut Vec::new());
        assert_eq!(total, input.iter().sum::<u64>());
    }
    let metrics = pool.metrics().snapshot();
    let trace = pool.take_trace().expect("tracing was on");
    (trace, metrics)
}

/// The cross-configuration half of the contract: capture `workload` on a
/// traced adaptive pool at `capture_p`, then hold the replay-predicted
/// fork count of every `(p, grain)` in `P_SWEEP × {adaptive, fixed}` to a
/// fresh untraced pool that runs the same workload at that configuration.
#[track_caller]
fn assert_cross_config_forks(capture_p: usize, fixed: usize, workload: impl Fn(&PalPool)) {
    let traced = traced_pool(capture_p);
    workload(&traced);
    let trace = traced.take_trace().expect("tracing was on");
    assert!(
        trace.is_complete(),
        "capture p = {capture_p} dropped events"
    );
    let replay = TraceReplay::from_trace(trace);
    for grain in [ReplayGrain::Adaptive, ReplayGrain::Fixed(fixed)] {
        for p in P_SWEEP {
            let mut builder = PalPool::builder().processors(p);
            if let ReplayGrain::Fixed(min) = grain {
                builder = builder.grain(min);
            }
            let pool = builder.build().unwrap();
            workload(&pool);
            assert_eq!(
                replay.predict(p, 2.0, grain).forks,
                pool.metrics().forks(),
                "capture p = {capture_p} -> (p = {p}, {grain:?})"
            );
        }
    }
}

/// The graph kernel the replayer was built for: every fork of a
/// level-synchronous BFS is a blocked-pass fork, and frontier sets — hence
/// every pass length — are pure in `(graph, src)`, so the recount must be
/// exact.  2¹⁷ arcs: the middle levels clear `WAKE_GRAIN` and fork in the
/// adaptive capture itself, the first and last are one-block passes that
/// only fork under the pinned grain.
#[test]
fn bfs_cross_config_fork_prediction_matches_fresh_pools() {
    let graph = gnm(1 << 13, 1 << 16, 42);
    assert!(graph.arcs() >= WAKE_GRAIN);
    let expected = bfs_seq(&graph, 0);
    for capture_p in P_SWEEP {
        assert_cross_config_forks(capture_p, 64, |pool| {
            assert_eq!(
                bfs_par(&graph, pool, 0),
                expected,
                "p = {}",
                pool.processors()
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // (a) + (b): the capture is complete and reproduces the pool's
    // accounting, at every p.
    #[test]
    fn capture_reproduces_run_metrics_and_roundtrips(
        depth in 0u32..7,
        len in 0usize..MAX_LEN,
    ) {
        for p in P_SWEEP {
            let (trace, m) = capture(p, depth, len);
            prop_assert!(trace.is_complete(), "p = {}: capture dropped events", p);
            let s = trace.summary();
            prop_assert_eq!(s.forks, m.forks(), "forks, p = {}", p);
            prop_assert_eq!(s.elided, m.elided, "elided, p = {}", p);
            prop_assert_eq!(s.spawned, m.spawned, "spawned, p = {}", p);
            prop_assert_eq!(s.inlined, m.inlined, "inlined, p = {}", p);
            prop_assert_eq!(s.steals, m.steals, "steals, p = {}", p);
            prop_assert_eq!(s.unclassified, 0u64, "quiesced capture, p = {}", p);
        }
    }

    // (c): replaying at the capture configuration is the identity on the
    // recorded fork and steal totals.
    #[test]
    fn replay_at_capture_config_is_the_identity(
        depth in 0u32..7,
        len in 0usize..MAX_LEN,
    ) {
        for p in P_SWEEP {
            let (trace, _) = capture(p, depth, len);
            let replay = TraceReplay::from_trace(trace);
            let recorded = replay.recorded();
            let same = replay.predict(p, 2.0, ReplayGrain::Adaptive);
            prop_assert!(same.at_capture_config, "p = {}", p);
            prop_assert_eq!(same.forks, recorded.forks, "forks, p = {}", p);
            prop_assert_eq!(same.elided, recorded.elided, "elided, p = {}", p);
            prop_assert_eq!(same.scheduled, recorded.scheduled, "scheduled, p = {}", p);
            prop_assert_eq!(same.steals, recorded.steals, "steals, p = {}", p);
        }
    }

    // (d): a single-processor replay is steal-free and fully elided, no
    // matter what configuration the capture came from.
    #[test]
    fn replay_at_p1_is_steal_free(
        depth in 0u32..7,
        len in 0usize..MAX_LEN,
    ) {
        for p in P_SWEEP {
            let (trace, _) = capture(p, depth, len);
            let replay = TraceReplay::from_trace(trace);
            let one = replay.predict(1, 2.0, ReplayGrain::Adaptive);
            prop_assert_eq!(one.steals, 0u64, "capture p = {}", p);
            prop_assert_eq!(one.cutoff, 0usize, "capture p = {}", p);
            prop_assert_eq!(one.elided, one.forks, "capture p = {}", p);
            prop_assert_eq!(one.scheduled, 0u64, "capture p = {}", p);
            prop_assert!(
                (one.speedup() - 1.0).abs() < 1e-12,
                "p = 1 replays sequentially (capture p = {})", p
            );
        }
    }

    // Cross-configuration fork prediction: join call sites are
    // configuration-independent and pass forks are recounted with the
    // pool's own grain policy, so a capture at any p predicts the fork
    // count of a fresh pool at any other (p', grain') exactly.
    #[test]
    fn cross_config_fork_prediction_matches_fresh_pools(
        depth in 0u32..6,
        len in 0usize..MAX_LEN,
        capture_p_idx in 0usize..3,
    ) {
        assert_cross_config_forks(P_SWEEP[capture_p_idx], 32, |pool| {
            join_tree(pool, depth);
            if len > 0 {
                let input: Vec<u64> = (0..len as u64).collect();
                pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut Vec::new());
            }
        });
    }

    // The unbalanced chain: the maximally skewed join tree must satisfy
    // the whole contract — capture fidelity, identity replay, steal-free
    // p = 1, and exact cross-configuration fork prediction (all its forks
    // are configuration-independent call sites: exactly `depth` at any
    // (p, grain)).
    #[test]
    fn unbalanced_tree_replay_is_exact_across_configs(
        depth in 0u32..24,
        capture_p_idx in 0usize..3,
    ) {
        let capture_p = P_SWEEP[capture_p_idx];
        let pool = traced_pool(capture_p);
        let leaves = unbalanced(&pool, depth);
        prop_assert_eq!(leaves, depth as u64 + 1);
        let m = pool.metrics().snapshot();
        prop_assert_eq!(m.forks(), depth as u64, "one fork per chain level");
        let trace = pool.take_trace().expect("tracing was on");
        assert_capture_fidelity(&trace, &m, capture_p);

        let replay = TraceReplay::from_trace(trace);
        let recorded = replay.recorded();
        let same = replay.predict(capture_p, 2.0, ReplayGrain::Adaptive);
        prop_assert!(same.at_capture_config);
        prop_assert_eq!(same.forks, recorded.forks);
        prop_assert_eq!(same.steals, recorded.steals);
        let one = replay.predict(1, 2.0, ReplayGrain::Adaptive);
        prop_assert_eq!(one.steals, 0u64);
        prop_assert_eq!(one.elided, one.forks);
        prop_assert_eq!(one.scheduled, 0u64);
        for p in P_SWEEP {
            let predicted = replay.predict(p, 2.0, ReplayGrain::Adaptive);
            let fresh = PalPool::new(p).unwrap();
            unbalanced(&fresh, depth);
            prop_assert_eq!(
                predicted.forks,
                fresh.metrics().forks(),
                "capture p = {} -> p = {}", capture_p, p
            );
            prop_assert_eq!(predicted.forks, depth as u64);
        }
    }

    // A DP wavefront (edit distance on `.grain(1)` pools, where every
    // antidiagonal of two or more cells is forked — a default pool runs
    // levels this light as plain loops and would record nothing): every
    // fork is in a `for_each_index` join tree the replayer carries as
    // recorded.  Those counts are pure in (level widths, p) but
    // p-dependent, so the contract here is capture fidelity, identity
    // replay, steal-free p = 1, and fork exactness against a fresh pool at
    // the *capture* p — cross-p prediction is out of contract for
    // index-pass workloads (see module docs).
    #[test]
    fn dp_wavefront_replay_is_exact_at_capture_config(
        len in 2usize..24,
        seed in 0usize..1000,
    ) {
        let text = |salt: usize| -> Vec<u8> {
            (0..len).map(|i| b"acgt"[(i * salt + seed + i / 3) % 4]).collect()
        };
        let problem = EditDistance::new(text(3), text(7));
        let expected = solve_sequential(&problem).goal;
        for p in P_SWEEP {
            let pinned = || PalPool::builder().processors(p).grain(1);
            let pool = pinned().trace(TraceConfig::default()).build().unwrap();
            let solution = solve_wavefront(&problem, &pool);
            prop_assert_eq!(solution.goal, expected, "wavefront diverged at p = {}", p);
            let m = pool.metrics().snapshot();
            let trace = pool.take_trace().expect("tracing was on");
            assert_capture_fidelity(&trace, &m, p);

            let replay = TraceReplay::from_trace(trace);
            let recorded = replay.recorded();
            prop_assert!(recorded.forks > 0, "nothing forked at p = {}", p);
            let same = replay.predict(p, 2.0, ReplayGrain::Fixed(1));
            prop_assert!(same.at_capture_config, "p = {}", p);
            prop_assert_eq!(same.forks, recorded.forks, "identity forks, p = {}", p);
            prop_assert_eq!(same.steals, recorded.steals, "identity steals, p = {}", p);
            let one = replay.predict(1, 2.0, ReplayGrain::Fixed(1));
            prop_assert_eq!(one.steals, 0u64, "p = {}", p);
            prop_assert_eq!(one.scheduled, 0u64, "p = {}", p);
            prop_assert_eq!(one.elided, one.forks, "p = {}", p);
            // Replay exactness against a fresh measured pool at the
            // capture configuration: index-pass fork counts are
            // deterministic at fixed p.
            let fresh = pinned().build().unwrap();
            let fresh_solution = solve_wavefront(&problem, &fresh);
            prop_assert_eq!(fresh_solution.goal, expected);
            prop_assert_eq!(
                same.forks,
                fresh.metrics().forks(),
                "fresh pool at capture p = {}", p
            );
        }
    }
}
