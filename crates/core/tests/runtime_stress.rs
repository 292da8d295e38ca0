//! Stress tests shaking out races in the work-stealing pal-thread runtime.
//!
//! Each test loops `LOPRAM_TEST_REPEAT` times (default 100) so the CI
//! `runtime-stress` job can crank the repetition up on the 1-CPU host,
//! where thread interleavings are decided by preemption and are the
//! nastiest kind of nondeterministic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use lopram_core::{
    assert_metrics_consistent, run_cancellable, CancelReason, CancelToken, ChaosConfig, PalPool,
    SeqExecutor, TraceConfig,
};

fn repeat(default: usize) -> usize {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fib(pool: &PalPool, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
    a + b
}

/// Nested joins under contention: many forks, deep recursion, every result
/// must come back exact and the pool must stay consistent across runs.
#[test]
fn nested_join_stress() {
    let pool = PalPool::new(4).unwrap();
    for i in 0..repeat(100) {
        assert_eq!(fib(&pool, 12), 144, "iteration {i}");
    }
    let m = pool.metrics();
    // Every fork is accounted exactly once: fib(12) forks fib(n>=2) calls,
    // i.e. 232 joins per iteration — scheduled (spawned/inlined) above the
    // α·log p cutoff depth, elided below it.
    assert_metrics_consistent(m, 232 * repeat(100) as u64);
    assert!(
        m.elided() > 0,
        "fib(12) on p = 4 recurses past the cutoff depth of {:?}",
        pool.cutoff_depth()
    );
}

/// Index passes under contention: every block of a `for_each_index` join
/// tree runs exactly once per iteration, including passes nested inside a
/// block, and each pass costs exactly `C − 1` forks.
#[test]
fn scope_stress() {
    let pool = PalPool::new(4).unwrap();
    let (outer, inner) = (pool.index_chunk_count(16), pool.index_chunk_count(4));
    assert_eq!((outer, inner), (16, 4));
    for i in 0..repeat(100) {
        let counter = AtomicUsize::new(0);
        pool.for_each_index(0..16, |_| {
            pool.for_each_index(0..4, |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64, "iteration {i}");
    }
    let forks_per_iteration = (outer - 1) + 16 * (inner - 1);
    assert_metrics_consistent(pool.metrics(), (forks_per_iteration * repeat(100)) as u64);
}

/// Panic propagation under contention: a panicking child must unwind out of
/// `join` no matter which processor ran it (stolen or inlined), and the
/// pool must be fully usable afterwards — no lost workers, no stuck
/// latches, no leaked pending tasks.
#[test]
fn panic_propagation_stress() {
    let pool = PalPool::new(4).unwrap();
    for i in 0..repeat(100) {
        // Alternate which side panics so both the direct-execution path (a)
        // and the pending-task path (b) are exercised.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if i % 2 == 0 {
                pool.join(|| fib(&pool, 6), || -> u64 { panic!("child b failed") });
            } else {
                pool.join(|| -> u64 { panic!("child a failed") }, || fib(&pool, 6));
            }
        }));
        assert!(result.is_err(), "iteration {i}: panic must propagate");
        // The pool must keep working after every unwind.
        assert_eq!(fib(&pool, 8), 21, "iteration {i}: pool usable after panic");
    }
}

/// Panics inside `for_each_index` blocks: every other block still runs,
/// and the first (leftmost) panic propagates once all blocks finished,
/// across many repetitions.
#[test]
fn scope_panic_stress() {
    let pool = PalPool::new(2).unwrap();
    // One index per block, so a panicking index takes no sibling with it.
    assert_eq!(pool.index_chunk_count(8), 8);
    for i in 0..repeat(100) {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(0..8, |k| match k {
                3 => panic!("block 3 failed"),
                6 => panic!("block 6 failed"),
                _ => {
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            });
        }));
        let payload = result.expect_err("a block panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"block 3 failed"),
            "iteration {i}: the first panic wins"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 6, "iteration {i}: siblings ran");
    }
}

/// `PalPool::metrics()` is safe to call from several observer threads while
/// the pool is working: the delta-sync against the runtime's counters must
/// serialize its baseline reads, or a racing observer computes a negative
/// delta (a debug-build underflow panic, garbage counters in release).
#[test]
fn concurrent_metrics_reads_are_safe() {
    let pool = PalPool::new(2).unwrap();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..repeat(100) {
                    let m = pool.metrics();
                    // Total accounting never exceeds what was created.
                    assert!(m.steals() <= m.spawned());
                }
            });
        }
        for _ in 0..repeat(100).div_ceil(4) {
            assert_eq!(fib(&pool, 8), 21);
        }
    });
    let m = pool.metrics();
    assert!(m.spawned() + m.inlined() > 0);
}

/// Several observer threads drive blocked scans through *one shared pool*
/// concurrently: the primitives keep per-call state on the stack and in
/// call-local buffers, so interleaved scans must neither corrupt each
/// other's prefixes nor wedge the pool.
#[test]
fn concurrent_scans_share_one_pool() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..2048).collect();
    let expected_total: u64 = input.iter().sum();
    std::thread::scope(|s| {
        for t in 0..3 {
            let pool = &pool;
            let input = &input;
            s.spawn(move || {
                for i in 0..repeat(100).div_ceil(2) {
                    let scan = pool.scan(input, 0u64, |a, b| a + b);
                    assert_eq!(scan.total, expected_total, "thread {t}, iteration {i}");
                    assert_eq!(scan.exclusive[1], 0, "thread {t}, iteration {i}");
                    assert_eq!(
                        scan.exclusive[2047],
                        expected_total - 2047,
                        "thread {t}, iteration {i}"
                    );
                }
            });
        }
    });
    // The counters raced with each other but the invariant must hold.
    let m = pool.metrics();
    assert!(m.steals() <= m.spawned());
}

/// Concurrent packs and reductions on one shared pool, mixed with joins —
/// the pattern graph kernels produce when several workloads share a
/// processor pool.
#[test]
fn concurrent_mixed_primitives_share_one_pool() {
    let pool = PalPool::new(3).unwrap();
    let input: Vec<u64> = (0..1024).collect();
    std::thread::scope(|s| {
        let pool = &pool;
        let input = &input;
        s.spawn(move || {
            for i in 0..repeat(100).div_ceil(4) {
                let kept = pool.pack(input, |_, x| x % 3 == 0);
                assert_eq!(kept.len(), 342, "iteration {i}");
            }
        });
        s.spawn(move || {
            for i in 0..repeat(100).div_ceil(4) {
                let hist = pool.reduce_by_index(0..1024, 4, 0u64, |v| (v % 4, 1), |a, b| a + b);
                assert_eq!(hist, vec![256; 4], "iteration {i}");
            }
        });
        for i in 0..repeat(100).div_ceil(4) {
            assert_eq!(fib(pool, 10), 55, "iteration {i}");
        }
    });
}

/// `map_reduce` folds its blocks in index order, whichever block finishes
/// first: a concatenation (associative, not commutative) must come back as
/// `0..n` on every repeat, for `index_chunk_count(n) − 1` forks.
#[test]
fn map_reduce_folds_in_index_order_under_contention() {
    let n = 4096;
    let expected: Vec<usize> = (0..n).collect();
    let concat = |mut a: Vec<usize>, b: Vec<usize>| {
        a.extend(b);
        a
    };
    for p in [2usize, 4] {
        let pool = PalPool::new(p).unwrap();
        let forks = pool.index_chunk_count(n) as u64 - 1;
        for round in 0..repeat(100) {
            let (got, m) =
                pool.scoped_metrics(|| pool.map_reduce(0..n, Vec::new(), |i| vec![i], concat));
            assert!(
                got == expected,
                "p = {p}, iteration {round}: out of index order"
            );
            assert_eq!(m.forks(), forks, "p = {p}, iteration {round}");
        }
    }
}

/// A panic inside a primitive's map/predicate unwinds out of the primitive
/// and leaves the pool fully reusable — no lost workers, no stuck blocks,
/// no poisoned deques — matching the `join` panic contract the primitives
/// are built on.
#[test]
fn panic_in_primitive_map_leaves_pool_reusable() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..512).collect();
    let expected_total: u64 = input.iter().sum();
    for i in 0..repeat(100).div_ceil(2) {
        // Rotate the poisoned element through different blocks, and the
        // panic through all three primitive shapes.
        let bad = (i * 97) % 512;
        let result = catch_unwind(AssertUnwindSafe(|| match i % 3 {
            0 => {
                pool.scan(&input, 0u64, |a, b| {
                    assert!(*b != bad as u64, "poisoned scan element");
                    a + b
                });
            }
            1 => {
                pool.pack(&input, |j, _| {
                    assert!(j != bad, "poisoned pack element");
                    true
                });
            }
            _ => {
                pool.map_collect(0..512, |j| {
                    assert!(j != bad, "poisoned map element");
                    j
                });
            }
        }));
        assert!(result.is_err(), "iteration {i}: panic must propagate");
        // The pool keeps answering exactly after every unwind.
        let scan = pool.scan(&input, 0u64, |a, b| a + b);
        assert_eq!(scan.total, expected_total, "iteration {i}");
        assert_eq!(fib(&pool, 8), 21, "iteration {i}");
    }
}

/// Tracing must be an observer, never a participant: a traced pool under
/// nested-join contention produces the same results and the same
/// schedule-independent counters (`forks`, `elided`) as an untraced twin,
/// and its own trace reproduces those counters event-for-event.
#[test]
fn tracing_on_equals_tracing_off_under_stress() {
    let plain = PalPool::new(4).unwrap();
    let traced = PalPool::builder()
        .processors(4)
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    let iterations = repeat(100);
    for i in 0..iterations {
        assert_eq!(fib(&plain, 12), 144, "iteration {i} (untraced)");
        assert_eq!(fib(&traced, 12), 144, "iteration {i} (traced)");
    }
    let mp = plain.metrics().snapshot();
    let mt = traced.metrics().snapshot();
    // forks and elided are properties of the program, not the schedule —
    // and must not become properties of the tracer either.  (The
    // spawned-vs-inlined split and the steal count *are* schedule-dependent
    // and may differ between the two pools.)
    assert_eq!(mp.forks(), mt.forks(), "tracing changed the fork count");
    assert_eq!(mp.elided, mt.elided, "tracing changed the elision count");
    assert_metrics_consistent(traced.metrics(), 232 * iterations as u64);
    // The capture agrees with the pool's own accounting on every counter,
    // including the racy ones — the trace records the actual schedule.
    let trace = traced.take_trace().expect("tracing was on");
    assert!(trace.is_complete() || trace.dropped > 0);
    if trace.is_complete() {
        let s = trace.summary();
        assert_eq!(s.forks, mt.forks());
        assert_eq!(s.elided, mt.elided);
        assert_eq!(s.spawned, mt.spawned);
        assert_eq!(s.inlined, mt.inlined);
        assert_eq!(s.steals, mt.steals);
    }
}

/// Panics under tracing: the tracer sits on the fork/join hot path, so a
/// panicking child must still unwind cleanly, the pool must stay usable,
/// and every capture window must stay drainable — no deadlocks on the
/// drain lock, no stuck per-worker buffers.
#[test]
fn panic_propagation_with_tracing_on() {
    let pool = PalPool::builder()
        .processors(4)
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    for i in 0..repeat(100) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if i % 2 == 0 {
                pool.join(|| fib(&pool, 6), || -> u64 { panic!("child b failed") });
            } else {
                pool.join(|| -> u64 { panic!("child a failed") }, || fib(&pool, 6));
            }
        }));
        assert!(result.is_err(), "iteration {i}: panic must propagate");
        assert_eq!(fib(&pool, 8), 21, "iteration {i}: pool usable after panic");
        // Draining mid-stress must always work; the window includes the
        // panicked join, whose fork event is recorded at the call site
        // even though the child never exited.
        if i % 10 == 9 {
            let trace = pool.take_trace().expect("tracing was on");
            assert!(trace.summary().forks > 0, "iteration {i}: window not empty");
        }
    }
}

/// Repeated capture windows reuse the preallocated per-worker buffers: the
/// arena must not grow after the tracer's construction-time checkout, no
/// matter how many windows are drained.
#[test]
fn repeated_trace_windows_do_not_grow_the_arena() {
    let pool = PalPool::builder()
        .processors(2)
        .trace(TraceConfig {
            capacity_per_worker: 1 << 12,
        })
        .build()
        .unwrap();
    let after_build = pool.workspace().stats().grown_bytes;
    assert!(after_build > 0, "trace buffers are arena-accounted");
    let input: Vec<u64> = (0..4096).collect();
    for i in 0..repeat(100).div_ceil(2) {
        pool.scan(&input, 0u64, |a, b| a + b);
        fib(&pool, 10);
        let trace = pool.take_trace().expect("tracing was on");
        assert!(trace.summary().forks > 0, "iteration {i}");
    }
    // Warm up once for the scan's own workspace buffers, then the steady
    // state is allocation-free *including* the tracer.
    let steady = pool.workspace().stats().grown_bytes;
    pool.scan(&input, 0u64, |a, b| a + b);
    let _ = pool.take_trace();
    assert_eq!(
        pool.workspace().stats().grown_bytes,
        steady,
        "a steady-state traced scan + drain must not grow the arena"
    );
}

/// The service-boundary poisoning regression: after a *panicking job* —
/// a whole computation unwinding out of the pool, primitives and arena
/// buffers included — the pool and the workspace arena stay reusable
/// with **zero arena growth** on the next warm call.  This is the
/// property `lopram-serve` relies on to isolate a crashing tenant: the
/// unwind must not leak checked-out buffers (which would force the next
/// checkout to miss and grow) or wedge a worker.
#[test]
fn panicking_job_leaves_pool_and_arena_warm() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..2048).collect();
    let expected_total: u64 = input.iter().sum();
    let mut scanned = Vec::new();
    let mut packed = Vec::new();
    // Warm every buffer the job mix touches.
    pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
    pool.pack_in(&input, |_, x| x % 3 == 0, &mut packed);
    let warm = pool.workspace().stats().grown_bytes;
    for i in 0..repeat(100).div_ceil(2) {
        // A "job": joins above, a primitive below, panicking mid-pass in
        // a rotating block.
        let bad = (i * 131) % 2048;
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || {
                    pool.scan_copy_in(
                        &input,
                        0u64,
                        |a, b| {
                            assert!(b != bad as u64, "poisoned job element");
                            a + b
                        },
                        &mut scanned,
                    )
                },
                || fib(&pool, 6),
            )
        }));
        assert!(result.is_err(), "iteration {i}: panic must propagate");
        // Next warm call: exact results, zero arena growth.
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
        assert_eq!(total, expected_total, "iteration {i}");
        pool.pack_in(&input, |_, x| x % 3 == 0, &mut packed);
        assert_eq!(packed.len(), 683, "iteration {i}");
        assert_eq!(
            pool.workspace().stats().grown_bytes,
            warm,
            "iteration {i}: a panicking job must not grow the arena"
        );
    }
}

/// Cancellation unwinds through fork boundaries and chunk boundaries,
/// across schedules: a token fired mid-computation stops the job with
/// `Err(Cancelled)` — never a panic, never a wedged pool — and the next
/// warm call over the same pool stays allocation-free and exact.
#[test]
fn cancellation_unwind_leaves_pool_and_arena_warm() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..2048).collect();
    let expected_total: u64 = input.iter().sum();
    let mut scanned = Vec::new();
    pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
    let warm = pool.workspace().stats().grown_bytes;
    for i in 0..repeat(100).div_ceil(2) {
        let token = CancelToken::new();
        let fire_at = (i * 131) % 2048;
        let inner = token.clone();
        let result = run_cancellable(&token, || {
            pool.scan_copy_in(
                &input,
                0u64,
                |a, b| {
                    if b == fire_at as u64 {
                        // Client "hangs up" mid-scan; the next checkpoint
                        // (fork or chunk boundary) observes it.
                        inner.cancel();
                    }
                    a + b
                },
                &mut scanned,
            )
        });
        assert_eq!(
            result,
            Err(CancelReason::Cancelled),
            "iteration {i}: cancel must surface as Err, not a panic"
        );
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
        assert_eq!(total, expected_total, "iteration {i}");
        assert_eq!(
            pool.workspace().stats().grown_bytes,
            warm,
            "iteration {i}: a cancelled job must not grow the arena"
        );
    }
}

/// A token that is cancelled while *another* computation shares the pool:
/// the unrelated computation must never observe the foreign token (the
/// ambient token travels with scheduled pal-threads, it is not a property
/// of the worker), so its results stay exact while the cancellable job
/// unwinds.
#[test]
fn cancelled_job_does_not_perturb_a_concurrent_job() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..2048).collect();
    let expected_total: u64 = input.iter().sum();
    std::thread::scope(|s| {
        let pool = &pool;
        let input = &input;
        // Victim thread: plain, un-cancellable scans — every one exact.
        s.spawn(move || {
            for i in 0..repeat(100).div_ceil(2) {
                let scan = pool.scan_copy(input, 0u64, |a, b| a + b);
                assert_eq!(scan.total, expected_total, "victim iteration {i}");
            }
        });
        // Hostile thread: cancellable scans whose token fires mid-pass.
        for i in 0..repeat(100).div_ceil(2) {
            let token = CancelToken::new();
            let inner = token.clone();
            let fire_at = (i * 197) % 2048;
            let result = run_cancellable(&token, || {
                pool.scan_copy(input, 0u64, |a, b| {
                    if b == fire_at as u64 {
                        inner.cancel();
                    }
                    a + b
                })
            });
            assert_eq!(
                result,
                Err(CancelReason::Cancelled),
                "hostile iteration {i}"
            );
        }
    });
    let m = pool.metrics();
    assert!(m.steals() <= m.spawned());
}

/// Deadline-carrying tokens self-fire through the strided checkpoint
/// clock: a job that overruns its deadline stops with `DeadlineExceeded`
/// in bounded work, and an identical job with a generous deadline
/// completes exactly.
#[test]
fn deadline_blown_job_stops_and_generous_deadline_completes() {
    let pool = PalPool::new(2).unwrap();
    let input: Vec<u64> = (0..2048).collect();
    let expected_total: u64 = input.iter().sum();
    for i in 0..repeat(100).div_ceil(4) {
        // Already-expired deadline: the entry poll alone must stop it.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        let result = run_cancellable(&expired, || pool.scan_copy(&input, 0u64, |a, b| a + b));
        assert_eq!(result, Err(CancelReason::DeadlineExceeded), "iteration {i}");

        // A deadline the job cannot plausibly blow: completes exactly.
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        let result = run_cancellable(&generous, || pool.scan_copy(&input, 0u64, |a, b| a + b));
        assert_eq!(result.map(|s| s.total), Ok(expected_total), "iteration {i}");
    }
}

/// The pool agrees with the sequential executor under repeated contention,
/// with and without the α·log p cutoff — §3.2's "the algorithm must execute
/// properly for any value of p".
#[test]
fn schedulers_agree_under_stress() {
    let data: Vec<u64> = (0..2048).collect();
    let expected: u64 = data.iter().sum();

    fn sum<E: lopram_core::Executor>(exec: &E, data: &[u64]) -> u64 {
        if data.len() <= 16 {
            return data.iter().sum();
        }
        let (lo, hi) = data.split_at(data.len() / 2);
        let (a, b) = exec.join(|| sum(exec, lo), || sum(exec, hi));
        a + b
    }

    assert_eq!(sum(&SeqExecutor, &data), expected);
    let pal = PalPool::new(3).unwrap();
    let raw = PalPool::builder()
        .processors(3)
        .no_cutoff()
        .build()
        .unwrap();
    for i in 0..repeat(100) {
        assert_eq!(sum(&pal, &data), expected, "PalPool iteration {i}");
        assert_eq!(sum(&raw, &data), expected, "no-cutoff iteration {i}");
    }
}

/// Differential under scheduler chaos: the same join tree on a clean pool
/// and on seeded-chaos pools (dropped and delayed wake-ups, forced steal
/// retries) — bit-identical results and exact fork accounting.  A fresh
/// pool per repetition, so every seed's faults fire again each time.
#[test]
fn seeded_chaos_does_not_change_results_or_fork_accounting() {
    fn sum(pool: &PalPool, data: &[u64]) -> u64 {
        if data.len() <= 8 {
            return data.iter().sum();
        }
        let (lo, hi) = data.split_at(data.len() / 2);
        let (a, b) = pool.join(|| sum(pool, lo), || sum(pool, hi));
        a + b
    }

    // 2048 elements with a leaf of 8: 2048 / 8 − 1 = 255 joins.
    let data: Vec<u64> = (0..2048).collect();
    let expected = sum(&PalPool::new(2).unwrap(), &data);
    for i in 0..repeat(100) {
        for seed in [3u64, 11, 29] {
            let pool = PalPool::builder()
                .processors(2)
                .chaos(ChaosConfig::seeded(seed))
                .build()
                .unwrap();
            assert_eq!(sum(&pool, &data), expected, "seed {seed} iteration {i}");
            assert_metrics_consistent(pool.metrics(), 255);
        }
    }
}
