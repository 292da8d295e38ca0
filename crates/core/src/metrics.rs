//! Scheduling metrics.
//!
//! The paper's analysis is in terms of wall-clock parallel time `T_p(n)`
//! versus sequential time `T(n) = T_1(n)` (§3.2, §4.1); the benchmark
//! measures both.  The runtime counts how many pal-threads were granted
//! their own processor versus how
//! many were folded into their parent (the paper's "no free cores ⇒ run
//! sequentially" rule), which makes the cutoff depth of Figure 2 observable.
//!
//! On the work-stealing [`PalPool`](crate::PalPool) a pal-thread is granted
//! a processor precisely by being *stolen*: an idle processor picks the
//! oldest pending pal-thread off another processor's deque (§3.1's "pending
//! pal-threads are activated … as resources become available").  The
//! [`steals`](RunMetrics::steals) counter records those migrations.
//!
//! A fourth outcome exists since the α·log p sequential cutoff landed: a
//! fork issued below the top `⌈α·log₂ p⌉` recursion levels is **elided** —
//! executed as a plain nested call without ever creating a scheduler job
//! (the paper's "below depth `log_a p` everything runs sequentially",
//! Figure 2).  The [`elided`](RunMetrics::elided) counter records those, so
//! `spawned + inlined + elided` still accounts for every pal-thread
//! creation point exactly once.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing one run of a pal-thread computation.
#[derive(Debug, Default)]
pub struct RunMetrics {
    /// Number of pal-threads that received a dedicated processor.
    pub spawned: AtomicU64,
    /// Number of pal-threads executed inline by their parent because all
    /// `p` processors were busy.
    pub inlined: AtomicU64,
    /// Number of pending pal-threads that migrated to a processor other
    /// than their creator (successful steals).
    pub steals: AtomicU64,
    /// Number of pal-thread creation points elided by the α·log p depth
    /// cutoff: the fork ran as a plain sequential call and no scheduler job
    /// was ever created for it.
    pub elided: AtomicU64,
    /// Workspace-arena checkouts served by a shelved buffer (see
    /// [`Workspace`](crate::runtime::Workspace)): scratch the primitives
    /// reused instead of allocating.
    pub arena_hits: AtomicU64,
    /// Cumulative bytes of workspace-arena buffer growth.  Stops moving
    /// once a steady-state workload has warmed the arena — the
    /// allocation-free property the reuse tests assert.
    pub arena_bytes: AtomicU64,
}

impl RunMetrics {
    /// Create a zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a fork below the sequential cutoff depth was elided
    /// (executed as a plain call, no scheduler job created).
    pub fn record_elided(&self) {
        self.elided.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of pal-threads granted a processor so far.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Number of pal-threads folded into their parent so far.
    pub fn inlined(&self) -> u64 {
        self.inlined.load(Ordering::Relaxed)
    }

    /// Number of pending pal-thread migrations (steals) so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Number of forks elided by the sequential cutoff so far.
    pub fn elided(&self) -> u64 {
        self.elided.load(Ordering::Relaxed)
    }

    /// Workspace-arena checkouts served by a reused buffer so far.
    pub fn arena_hits(&self) -> u64 {
        self.arena_hits.load(Ordering::Relaxed)
    }

    /// Cumulative workspace-arena buffer growth in bytes so far.
    pub fn arena_bytes(&self) -> u64 {
        self.arena_bytes.load(Ordering::Relaxed)
    }

    /// Total pal-thread creation points so far: every fork is either
    /// granted a processor (`spawned`), folded into its parent (`inlined`)
    /// or elided by the α·log p cutoff (`elided`) — never lost, never
    /// double-counted.
    pub fn forks(&self) -> u64 {
        self.spawned() + self.inlined() + self.elided()
    }

    /// Snapshot the counters into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            spawned: self.spawned(),
            inlined: self.inlined(),
            steals: self.steals(),
            elided: self.elided(),
            arena_hits: self.arena_hits(),
            arena_bytes: self.arena_bytes(),
        }
    }
}

/// A plain-value copy of [`RunMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Pal-threads granted a processor.
    pub spawned: u64,
    /// Pal-threads folded into their parent.
    pub inlined: u64,
    /// Pending pal-thread migrations (steals).
    pub steals: u64,
    /// Forks elided by the α·log p sequential cutoff.
    pub elided: u64,
    /// Workspace-arena checkouts served by a reused buffer.
    pub arena_hits: u64,
    /// Cumulative workspace-arena buffer growth in bytes.
    pub arena_bytes: u64,
}

impl MetricsSnapshot {
    /// Total pal-thread creation points: `spawned + inlined + elided`.
    pub fn forks(&self) -> u64 {
        self.spawned + self.inlined + self.elided
    }

    /// Counter movement between `earlier` and `self` (`self - earlier`,
    /// fieldwise).
    ///
    /// The scheduling counters are monotone, so their deltas use plain
    /// subtraction and panic on a reversed pair in debug builds.
    /// `arena_bytes` is a signed (two's-complement) net — a workload that
    /// shrinks shelved buffers can legitimately move it down — so its
    /// delta wraps instead; re-interpreting the wrapped value as `i64`
    /// yields the signed growth of the window.  This is the snapshot-side
    /// half of [`PalPool::scoped_metrics`](crate::PalPool::scoped_metrics).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            spawned: self.spawned - earlier.spawned,
            inlined: self.inlined - earlier.inlined,
            steals: self.steals - earlier.steals,
            elided: self.elided - earlier.elided,
            arena_hits: self.arena_hits - earlier.arena_hits,
            arena_bytes: self.arena_bytes.wrapping_sub(earlier.arena_bytes),
        }
    }
}

/// Assert the full fork-accounting invariant of a pal-thread run: every one
/// of the `expected_forks` creation points is accounted exactly once as
/// `spawned`, `inlined` or `elided`, and migrations never exceed grants
/// (`steals <= spawned`).  On a [`PalPool`](crate::PalPool) a fork is
/// granted a processor only by being stolen, so the two are equal there;
/// the check stays `<=` so a counter fed from elsewhere can grant without
/// migrating.
///
/// The fork count of a pal-thread computation is a property of the program
/// structure alone — which `join` calls execute — not of the schedule, so
/// tests can assert it exactly even on a racy host.  Used by
/// `runtime_cutoff.rs`, `runtime_migration.rs` and the `lopram-graph`
/// differential suite in place of ad-hoc counter arithmetic.
#[track_caller]
pub fn assert_metrics_consistent(metrics: &RunMetrics, expected_forks: u64) {
    let snap = metrics.snapshot();
    assert_eq!(
        snap.forks(),
        expected_forks,
        "spawned ({}) + inlined ({}) + elided ({}) must account for every fork",
        snap.spawned,
        snap.inlined,
        snap.elided,
    );
    assert!(
        snap.steals <= snap.spawned,
        "steals ({}) cannot exceed spawned ({}): every migration is a processor grant",
        snap.steals,
        snap.spawned,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let m = RunMetrics::new();
        m.spawned.fetch_add(2, Ordering::Relaxed);
        m.inlined.fetch_add(1, Ordering::Relaxed);
        m.steals.fetch_add(1, Ordering::Relaxed);
        m.record_elided();
        m.record_elided();
        m.record_elided();
        m.arena_hits.fetch_add(4, Ordering::Relaxed);
        m.arena_bytes.fetch_add(512, Ordering::Relaxed);
        assert_eq!(m.spawned(), 2);
        assert_eq!(m.inlined(), 1);
        assert_eq!(m.steals(), 1);
        assert_eq!(m.elided(), 3);
        assert_eq!(m.arena_hits(), 4);
        assert_eq!(m.arena_bytes(), 512);
        let snap = m.snapshot();
        assert_eq!(
            snap,
            MetricsSnapshot {
                spawned: 2,
                inlined: 1,
                steals: 1,
                elided: 3,
                arena_hits: 4,
                arena_bytes: 512,
            }
        );
        assert_eq!(m.forks(), 6);
    }

    #[test]
    fn snapshot_delta_since_is_fieldwise_subtraction() {
        let earlier = MetricsSnapshot {
            spawned: 2,
            inlined: 5,
            steals: 1,
            elided: 10,
            arena_hits: 3,
            arena_bytes: 1024,
        };
        let later = MetricsSnapshot {
            spawned: 4,
            inlined: 9,
            steals: 2,
            elided: 30,
            arena_hits: 8,
            arena_bytes: 512, // two's-complement net can go down
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.spawned, 2);
        assert_eq!(delta.inlined, 4);
        assert_eq!(delta.steals, 1);
        assert_eq!(delta.elided, 20);
        assert_eq!(delta.forks(), 26);
        assert_eq!(delta.arena_hits, 5);
        assert_eq!(delta.arena_bytes as i64, -512);
        // Identical snapshots delta to zero.
        assert_eq!(later.delta_since(&later), MetricsSnapshot::default());
    }
}
