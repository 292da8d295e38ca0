//! Regression tests for the α·log p sequential cutoff (§3.1 / Figure 2):
//! forks below the top `⌈α·log₂ p⌉` recursion levels must degenerate to
//! plain sequential calls — `spawned == 0` for them, no scheduler job ever
//! created — while the levels above keep the full §3.1 migration behaviour
//! (`runtime_migration.rs` forces a steal with the cutoff on and off).

use std::sync::atomic::{AtomicUsize, Ordering};

use lopram_core::{assert_metrics_consistent, PalPool, TraceConfig};

/// Iteration count for the repeated tests, overridable via
/// `LOPRAM_TEST_REPEAT` (the CI `runtime-stress` job raises it).
fn repeat(default: usize) -> usize {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn join_tree(pool: &PalPool, depth: u32, leaves: &AtomicUsize) {
    if depth == 0 {
        leaves.fetch_add(1, Ordering::Relaxed);
        return;
    }
    pool.join(
        || join_tree(pool, depth - 1, leaves),
        || join_tree(pool, depth - 1, leaves),
    );
}

/// The headline regression: a run that is entirely below the cutoff (a
/// one-processor pool has cutoff depth 0) records `spawned == 0` — not a
/// single fork became a scheduler job — yet computes everything.
#[test]
fn below_cutoff_run_records_zero_spawns() {
    for i in 0..repeat(5) {
        let pool = PalPool::new(1).unwrap();
        assert_eq!(pool.cutoff_depth(), Some(0));
        let leaves = AtomicUsize::new(0);
        join_tree(&pool, 8, &leaves);
        assert_eq!(leaves.load(Ordering::Relaxed), 256, "iteration {i}");
        let m = pool.metrics();
        assert_eq!(m.spawned(), 0, "iteration {i}: below-cutoff forks spawned");
        assert_eq!(m.inlined(), 0, "iteration {i}: below-cutoff forks queued");
        assert_eq!(m.steals(), 0, "iteration {i}");
        assert_metrics_consistent(m, 255); // so all 255 joins were elided
    }
}

/// The cutoff splits the tree exactly: on p = 2 (cutoff 2) a depth-5 binary
/// join tree schedules precisely the three joins of depths 0–1 and elides
/// the 28 deeper ones.  Exactness across repeats also proves the recursion
/// depth travels with stolen subtrees — a thief restarting at depth 0 would
/// schedule extra levels nondeterministically.
#[test]
fn cutoff_splits_the_tree_deterministically() {
    for i in 0..repeat(10) {
        let pool = PalPool::new(2).unwrap();
        assert_eq!(pool.cutoff_depth(), Some(2));
        let leaves = AtomicUsize::new(0);
        join_tree(&pool, 5, &leaves);
        assert_eq!(leaves.load(Ordering::Relaxed), 32, "iteration {i}");
        let m = pool.metrics();
        assert_eq!(
            m.spawned() + m.inlined(),
            3,
            "iteration {i}: joins above the cutoff (depths 0-1)"
        );
        assert_eq!(m.elided(), 28, "iteration {i}: joins below the cutoff");
        assert_metrics_consistent(m, 31);
    }
}

/// Disabling the throttle restores the old behaviour: every fork is a
/// scheduler job, none are elided — and the result is identical.
#[test]
fn no_cutoff_schedules_every_fork() {
    let pool = PalPool::builder()
        .processors(2)
        .no_cutoff()
        .build()
        .unwrap();
    assert_eq!(pool.cutoff_depth(), None);
    let leaves = AtomicUsize::new(0);
    join_tree(&pool, 5, &leaves);
    assert_eq!(leaves.load(Ordering::Relaxed), 32);
    let m = pool.metrics();
    assert_eq!(m.elided(), 0);
    assert_metrics_consistent(m, 31); // every one of the 31 forks scheduled
}

/// §3.2: "the algorithm must execute properly for any value of p" — with
/// the throttle on, off, and at tuned α, across processor counts, under
/// repetition.
#[test]
fn results_agree_for_all_cutoff_configurations() {
    fn sum(pool: &PalPool, data: &[u64]) -> u64 {
        if data.len() <= 8 {
            return data.iter().sum();
        }
        let (lo, hi) = data.split_at(data.len() / 2);
        let (a, b) = pool.join(|| sum(pool, lo), || sum(pool, hi));
        a + b
    }
    let data: Vec<u64> = (0..4096).collect();
    let expected: u64 = data.iter().sum();
    for i in 0..repeat(3) {
        for p in [1usize, 2, 3, 4] {
            let default_pool = PalPool::new(p).unwrap();
            let tuned = PalPool::builder().processors(p).alpha(1.0).build().unwrap();
            let raw = PalPool::builder()
                .processors(p)
                .no_cutoff()
                .build()
                .unwrap();
            for pool in [&default_pool, &tuned, &raw] {
                assert_eq!(
                    sum(pool, &data),
                    expected,
                    "iteration {i}, p = {p}, cutoff = {:?}",
                    pool.cutoff_depth()
                );
            }
        }
    }
}

/// A multi-way fork obeys the same throttle: below the cutoff the blocks
/// of a `for_each_index` join tree run inline, immediately, in index
/// (creation) order, without creating scheduler jobs.
#[test]
fn scope_spawns_below_cutoff_run_inline_in_creation_order() {
    let pool = PalPool::new(1).unwrap();
    let order = std::sync::Mutex::new(Vec::new());
    pool.for_each_index(0..16, |i| order.lock().unwrap().push(i));
    assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    let m = pool.metrics();
    assert_eq!(m.spawned(), 0);
    assert_eq!(m.inlined(), 0);
    // p = 1 ⇒ 4 blocks of 4 indices: three forks, every one elided.
    assert_eq!(pool.index_chunk_count(16), 4);
    assert_eq!(m.elided(), 3);
}

/// Elided joins keep the scheduled path's panic contract: `b` executes
/// even when `a` unwinds (a stolen `b` always runs), and `a`'s panic takes
/// precedence — side effects must not depend on which side of the cutoff a
/// fork landed, nor on whether the pool is traced.
#[test]
fn elided_join_runs_b_even_when_a_panics() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // p = 1, cutoff 0: every join elided, on the plain and the traced pool.
    let traced_pool = PalPool::builder()
        .processors(1)
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    for (pool, traced) in [(PalPool::new(1).unwrap(), false), (traced_pool, true)] {
        let b_ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || panic!("child a failed"),
                || {
                    b_ran.fetch_add(1, Ordering::SeqCst);
                },
            );
        }));
        assert!(result.is_err(), "a's panic propagates");
        assert_eq!(b_ran.load(Ordering::SeqCst), 1, "b still ran");
        let trace = pool.take_trace();
        assert_eq!(trace.is_some(), traced);
        if let Some(trace) = trace {
            let s = trace.summary();
            assert_eq!(
                (s.forks, s.elided),
                (1, 1),
                "the panicking fork is recorded"
            );
        }
        // And the pool stays usable.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }
}

/// Depth is tracked per pool: recursion accumulated on one pool must not
/// be charged against another pool's cutoff — a pool entered at its
/// logical root schedules normally even when the calling computation is
/// already deep in a different pool's tree.
#[test]
fn cutoff_depth_is_tracked_per_pool() {
    fn deep(outer: &PalPool, inner: &PalPool, depth: u32) {
        if depth == 0 {
            // inner's logical root, reached at depth 4 of outer's tree:
            // inner must schedule this fork, not elide it.
            inner.join(|| (), || ());
            return;
        }
        outer.join(|| deep(outer, inner, depth - 1), || ());
    }
    let outer = PalPool::builder()
        .processors(2)
        .no_cutoff()
        .build()
        .unwrap();
    let inner = PalPool::new(2).unwrap(); // cutoff 2 < outer recursion depth
    deep(&outer, &inner, 4);
    let m = inner.metrics();
    assert_eq!(m.elided(), 0, "inner pool starts at its own depth 0");
    assert_eq!(m.spawned() + m.inlined(), 1);
}

/// Index passes inside a join subtree inherit the subtree's depth: once
/// the recursion is past the cutoff, `for_each_index` and friends stop
/// creating jobs too.
#[test]
fn data_parallel_helpers_inherit_the_depth() {
    let pool = PalPool::builder().processors(2).alpha(0.5).build().unwrap();
    // cutoff = ⌈0.5·log₂ 2⌉ = 1: the outer join is scheduled, everything
    // inside it is below the cutoff.
    assert_eq!(pool.cutoff_depth(), Some(1));
    let hits = AtomicUsize::new(0);
    pool.join(
        || {
            pool.for_each_index(0..100, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
        },
        || (),
    );
    assert_eq!(hits.load(Ordering::Relaxed), 100);
    let m = pool.metrics();
    // One scheduled fork (the outer join's b); every fork of the inner
    // for_each_index join tree was elided.
    assert_eq!(m.spawned() + m.inlined(), 1);
    let index_forks = pool.index_chunk_count(100) as u64 - 1;
    assert_eq!(m.elided(), index_forks, "inner index forks must be elided");
    // 1 outer join + `index_chunk_count(100) − 1` index forks, all
    // accounted.
    assert_metrics_consistent(m, 1 + index_forks);
}
