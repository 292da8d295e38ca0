//! Capture fidelity: a trace drained from a quiesced `PalPool` is
//! complete (no event lost to a full buffer) and its
//! [`summary`](lopram_core::DagTrace::summary) reproduces the pool's own
//! `RunMetrics` on every counter — `forks`, `elided`, `spawned`,
//! `inlined` and `steals` — with nothing left unclassified.
//!
//! Two workload families, each at p ∈ {1, 2, 4}:
//!
//! * random mixes of binary join trees (plain `Fork` events) and a
//!   blocked scan over lengths on both sides of the default wake floor
//!   (`Pass` events, and the pass forks above the floor);
//! * the **unbalanced divide-and-conquer chain** — each level joins a
//!   cheap leaf against the rest of the chain — the maximally skewed join
//!   structure, whose `depth` forks are the same at every p.

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::{DagTrace, MetricsSnapshot, PalPool, TraceConfig};
use proptest::prelude::*;

/// Processor counts every property is checked under.
const P_SWEEP: [usize; 3] = [1, 2, 4];

/// Scan lengths are drawn from both sides of the default policy's wake
/// floor: below it a pass is one block and forks nothing, above it the
/// pass forks.
const MAX_LEN: usize = 2 * WAKE_GRAIN;

fn join_tree(pool: &PalPool, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = pool.join(|| join_tree(pool, depth - 1), || join_tree(pool, depth - 1));
    a + b
}

/// The unbalanced divide-and-conquer shape: each level forks a trivial
/// leaf against the rest of the chain, so the tree is a maximally skewed
/// chain of `depth` joins — `depth` forks at any p.
fn unbalanced(pool: &PalPool, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (leaf, rest) = pool.join(|| 1u64, || unbalanced(pool, depth - 1));
    leaf + rest
}

fn traced_pool(p: usize) -> PalPool {
    PalPool::builder()
        .processors(p)
        .trace(TraceConfig::default())
        .build()
        .unwrap()
}

/// Lossless capture and `summary() == RunMetrics` on every counter.
#[track_caller]
fn assert_capture_fidelity(trace: &DagTrace, m: &MetricsSnapshot, p: usize) {
    assert!(trace.is_complete(), "p = {p}: capture dropped events");
    let s = trace.summary();
    assert_eq!(s.forks, m.forks(), "forks, p = {p}");
    assert_eq!(s.elided, m.elided, "elided, p = {p}");
    assert_eq!(s.spawned, m.spawned, "spawned, p = {p}");
    assert_eq!(s.inlined, m.inlined, "inlined, p = {p}");
    assert_eq!(s.steals, m.steals, "steals, p = {p}");
    assert_eq!(s.unclassified, 0, "quiesced capture, p = {p}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn join_trees_and_scans_capture_every_counter(
        depth in 0u32..7,
        len in 0usize..MAX_LEN,
    ) {
        for p in P_SWEEP {
            let pool = traced_pool(p);
            prop_assert_eq!(join_tree(&pool, depth), 1u64 << depth);
            if len > 0 {
                let input: Vec<u64> = (0..len as u64).collect();
                let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut Vec::new());
                prop_assert_eq!(total, input.iter().sum::<u64>());
            }
            let m = pool.metrics().snapshot();
            let trace = pool.take_trace().expect("tracing was on");
            assert_capture_fidelity(&trace, &m, p);
        }
    }

    #[test]
    fn unbalanced_chain_capture_is_exact(depth in 0u32..24) {
        for p in P_SWEEP {
            let pool = traced_pool(p);
            prop_assert_eq!(unbalanced(&pool, depth), depth as u64 + 1);
            let m = pool.metrics().snapshot();
            prop_assert_eq!(m.forks(), depth as u64, "one fork per chain level, p = {}", p);
            let trace = pool.take_trace().expect("tracing was on");
            assert_capture_fidelity(&trace, &m, p);
        }
    }
}
