//! Regression tests for the Theorem 1 migration property (§3.1): a
//! pal-thread that could not be activated at creation time must remain
//! *available* to any processor that frees up later.
//!
//! The eager spawn-or-inline shim of PR 1 fails these tests — a fork that
//! was not granted a thread at creation was folded into its parent forever —
//! which is exactly the divergence the work-stealing runtime fixes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use lopram_core::{assert_metrics_consistent, PalPool};

/// Iteration count for the repeated tests, overridable via
/// `LOPRAM_TEST_REPEAT` (the CI `runtime-stress` job raises it).
fn repeat(default: usize) -> usize {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Spin (sleeping, not burning the CPU — the CI host has one core) until
/// `flag` is set, failing loudly if the scheduler never delivers it.
fn await_flag(flag: &AtomicBool, what: &str) {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what}: the pending pal-thread was never migrated to a freed processor \
             (the scheduler implements the eager no-migration rule)"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

/// §3.1 / Figure 2: with `p = 2`, one fast and one slow subtree, the
/// processor freed by the fast subtree must pick up a pal-thread that was
/// still pending — not have been irrevocably inlined — when both processors
/// were busy at its creation time.
///
/// Construction: the outer join occupies worker A (running `slow_left`) and
/// worker B (stealing `fast_right`, which finishes quickly).  `slow_left`
/// then forks an inner pal-thread while B is still busy and blocks until
/// that inner fork has actually *run*.  Only a scheduler that keeps the
/// fork pending and lets the freed worker B steal it can make progress; an
/// eager scheduler commits the fork to inline execution (after its parent,
/// which is circularly waiting for it) and times out.
#[test]
fn freed_processor_picks_up_pending_pal_thread() {
    picks_up_pending_pal_thread(|| PalPool::new(2).unwrap());
}

/// The same forced steal on the raw runtime, with the α·log p throttle off:
/// a throttle regression must not hide behind the default pool's steals,
/// nor a runtime regression behind the throttle.
#[test]
fn freed_processor_picks_up_pending_pal_thread_without_cutoff() {
    picks_up_pending_pal_thread(|| {
        PalPool::builder()
            .processors(2)
            .no_cutoff()
            .build()
            .unwrap()
    });
}

fn picks_up_pending_pal_thread(new_pool: impl Fn() -> PalPool) {
    for _ in 0..repeat(3) {
        let pool = new_pool();
        let inner_ran = AtomicBool::new(false);
        let parent_thread: Mutex<Option<ThreadId>> = Mutex::new(None);
        let inner_thread: Mutex<Option<ThreadId>> = Mutex::new(None);

        pool.join(
            // Slow left subtree: holds its processor until the inner
            // pending pal-thread has been executed by someone.
            || {
                *parent_thread.lock().unwrap() = Some(thread::current().id());
                pool.join(
                    || await_flag(&inner_ran, "inner fork"),
                    // The pending pal-thread: created while both processors
                    // are busy, so it sits in the deque until worker B
                    // frees up and steals it.
                    || {
                        *inner_thread.lock().unwrap() = Some(thread::current().id());
                        inner_ran.store(true, Ordering::Release);
                    },
                );
            },
            // Fast right subtree: finishes early, freeing its processor.
            || thread::sleep(Duration::from_millis(20)),
        );

        let parent = parent_thread.lock().unwrap().expect("left subtree ran");
        let inner = inner_thread.lock().unwrap().expect("inner fork ran");
        assert_ne!(
            parent, inner,
            "the pending pal-thread must run on the freed processor, not inline in its parent"
        );
        let m = pool.metrics();
        assert!(
            m.steals() >= 1,
            "migration must be visible in RunMetrics::steals (got {})",
            m.steals()
        );
        // Two joins ran (outer + inner), each forking once — and a stolen
        // fork is still a granted fork, so the accounting stays exact.
        assert_metrics_consistent(m, 2);
    }
}

/// Satellite check for the metrics gap: a recursive mergesort on `p = 4`
/// must record nonzero counts for *both* spawn decisions — some pal-threads
/// stolen by idle processors, some popped back and inlined by their parent.
/// (On the PR 1 shim `inlined()` always read 0 on the default pool.)
#[test]
fn mergesort_records_spawned_and_inlined() {
    fn merge_sort(pool: &PalPool, data: &mut [i64], scratch: &mut [i64]) {
        if data.len() <= 32 {
            data.sort_unstable();
            return;
        }
        let mid = data.len() / 2;
        let (dl, dr) = data.split_at_mut(mid);
        let (sl, sr) = scratch.split_at_mut(mid);
        pool.join(|| merge_sort(pool, dl, sl), || merge_sort(pool, dr, sr));
        // Merge the sorted halves through the scratch buffer.
        let (mut i, mut j) = (0, 0);
        for slot in scratch.iter_mut() {
            if j >= dr.len() || (i < dl.len() && dl[i] <= dr[j]) {
                *slot = dl[i];
                i += 1;
            } else {
                *slot = dr[j];
                j += 1;
            }
        }
        let n = dl.len() + dr.len();
        let merged: Vec<i64> = scratch[..n].to_vec();
        dl.iter_mut()
            .chain(dr.iter_mut())
            .zip(merged)
            .for_each(|(d, s)| *d = s);
    }

    let pool = PalPool::new(4).unwrap();
    let n = 1 << 17;
    // One sort subdivides 2^17 keys down to 32-key leaves: 4096 leaves,
    // hence exactly 4095 joins — a schedule-independent count the
    // accounting must reproduce exactly, however the forks were resolved.
    let forks_per_sort = (n / 32 - 1) as u64;
    // A few tries absorb scheduling noise on the single-core CI host;
    // one run of 4095 forks against three hungry workers is normally enough.
    for attempt in 0..3u64 {
        let mut data: Vec<i64> = (0..n as i64)
            .map(|x| (x * 2_654_435_761) % 1_000_003)
            .collect();
        let mut scratch = vec![0i64; n];
        merge_sort(&pool, &mut data, &mut scratch);
        assert!(data.windows(2).all(|w| w[0] <= w[1]), "sort is correct");
        let m = pool.metrics();
        assert_metrics_consistent(m, (attempt + 1) * forks_per_sort);
        if m.spawned() > 0 && m.inlined() > 0 {
            return;
        }
        eprintln!(
            "attempt {attempt}: spawned = {}, inlined = {} — retrying",
            m.spawned(),
            m.inlined()
        );
    }
    let m = pool.metrics();
    panic!(
        "recursive mergesort on p = 4 must exercise both scheduling outcomes; \
         got spawned = {}, inlined = {}",
        m.spawned(),
        m.inlined()
    );
}

/// Steal order follows creation order: with one worker forking twice while
/// the other worker is the only free processor, the older pending
/// pal-thread is activated first (§3.1's "consistent with order of
/// creation" rule).
#[test]
fn pending_pal_threads_are_activated_oldest_first() {
    for _ in 0..repeat(3) {
        let pool = PalPool::new(2).unwrap();
        let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let both_done = AtomicBool::new(false);
        pool.join(
            || {
                // Fork a second pending pal-thread under the first, then
                // hold this processor until the other worker has drained
                // both, oldest first.
                pool.join(
                    || await_flag(&both_done, "younger fork"),
                    || {
                        order.lock().unwrap().push("younger");
                        both_done.store(true, Ordering::Release);
                    },
                );
            },
            || {
                order.lock().unwrap().push("older");
            },
        );
        let order = order.lock().unwrap();
        assert_eq!(
            *order,
            vec!["older", "younger"],
            "the idle processor must take the oldest pending pal-thread first"
        );
    }
}
