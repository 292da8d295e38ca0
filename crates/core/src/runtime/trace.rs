//! Execution tracing: capturing the pal-thread DAG of a real
//! [`PalPool`](super::PalPool) run.
//!
//! The runtime's counters ([`RunMetrics`](crate::RunMetrics)) say *how
//! many* pal-threads were spawned, inlined, elided or stolen — but not
//! *where in the computation* those events happened.  This module records
//! the events themselves: every fork creation point, every activation of
//! a scheduled pal-thread on a concrete worker, and every blocked
//! data-parallel pass.  A drained [`DagTrace`] holds them in log order;
//! [`DagTrace::summary`] folds them back into the pool's totals, and an
//! event carries exactly the fields that fold reads.
//!
//! Tracing is an observer: a traced pool makes every scheduling and
//! blocking decision exactly as an untraced one does (no decision reads
//! whether the pool is traced), so outputs and fork counts agree between
//! the two.
//!
//! # Recording model
//!
//! Tracing is opt-in per pool
//! ([`PalPoolBuilder::trace`](super::PalPoolBuilder::trace)); a pool built
//! without it carries no trace state and every hook compiles down to one
//! `Option` branch — the allocation-free steady state is untouched.  When
//! enabled, the pool owns one fixed-capacity `EventLog` per worker plus
//! one for external (non-worker) threads.  A worker is the only writer of
//! its own log, so an append is two relaxed stores and one release store
//! of the length — no locks, no CAS, no allocation; the external log is
//! shared by arbitrary caller threads and serialized by a mutex (a cold
//! path: only top-level forks run there).  Log pages are preallocated
//! through the pool's [`Workspace`] arena at build
//! time, so their bytes appear in the `arena_bytes` accounting and a full
//! capture/drain cycle allocates nothing.  A full log **drops** further
//! events (counted in [`DagTrace::dropped`]) rather than blocking or
//! reallocating.
//!
//! # Event vocabulary
//!
//! | event | emitted at | meaning |
//! |-------|-----------|---------|
//! | [`Fork`](TraceEvent::Fork)   | `join` call site | two children created (or elided) |
//! | [`Enter`](TraceEvent::Enter) | scheduled child starts | which worker activated it |
//! | [`Pass`](TraceEvent::Pass)   | blocked primitive pass | `chunks` of one parallel pass |
//!
//! Elided children run inline in their parent, so they get no `Enter`
//! (their creation point carries the `elided` flag).
//! Steals are not a separate event: a scheduled fork's second child was
//! stolen iff its `Enter` names a different worker than its sibling's —
//! the sibling always runs on the thread that pushed the pending child.
//! [`DagTrace::summary`] performs exactly that reconstruction, and the
//! property suites assert it reproduces the pool's `RunMetrics` totals.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use super::workspace::Workspace;

/// Worker id recorded for events emitted by threads that are not workers
/// of the traced pool (the external caller driving the computation).
pub const EXTERNAL_WORKER: u16 = u16::MAX;

const WORDS_PER_EVENT: usize = 2;

/// Configuration for [`PalPoolBuilder::trace`](super::PalPoolBuilder::trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events each per-worker buffer can hold before further events from
    /// that worker are dropped (counted in [`DagTrace::dropped`], never
    /// blocking the computation).  One event is two `u64` words, so the
    /// default of `2^16` events costs 1 MiB per worker.
    pub capacity_per_worker: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity_per_worker: 1 << 16,
        }
    }
}

/// One decoded trace event; see the [module docs](self) for the
/// vocabulary and the steal-reconstruction rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A two-way fork: a [`join`](super::PalPool::join) call site created
    /// children `left` and `right`.
    Fork {
        /// Node id of the first child (`a`, runs on the forking thread
        /// when scheduled).
        left: u32,
        /// Node id of the second child (`b`, the pending pal-thread).
        right: u32,
        /// `true` when the fork was elided by the `⌈α·log₂ p⌉` throttle:
        /// both children ran as plain sequential calls, no `Enter`.
        elided: bool,
    },
    /// A scheduled pal-thread began executing on a worker.
    Enter {
        /// Worker that activated the pal-thread.
        worker: u16,
        /// The pal-thread's node id.
        node: u32,
    },
    /// One blocked data-parallel pass (scan/pack/expand/map_collect/
    /// map_blocks_in) in `chunks` blocks — `chunks − 1` of the window's
    /// forks belong to it.
    Pass {
        /// Number of blocks the pool's grain policy chose at capture time.
        chunks: u32,
    },
}

const KIND_FORK: u64 = 1;
const KIND_ENTER: u64 = 2;
const KIND_PASS: u64 = 3;
const FLAG_ELIDED: u64 = 1 << 8;

impl TraceEvent {
    /// Pack into the two-word in-memory log encoding: `w0 = kind | flags
    /// | worker << 16`, `w1 = both child ids` (fork), `node` (enter) or
    /// `chunks` (pass).
    fn encode(&self) -> [u64; WORDS_PER_EVENT] {
        match *self {
            TraceEvent::Fork {
                left,
                right,
                elided,
            } => [
                KIND_FORK | if elided { FLAG_ELIDED } else { 0 },
                ((left as u64) << 32) | right as u64,
            ],
            TraceEvent::Enter { worker, node } => {
                [KIND_ENTER | ((worker as u64) << 16), node as u64]
            }
            TraceEvent::Pass { chunks } => [KIND_PASS, chunks as u64],
        }
    }

    /// Inverse of [`encode`](TraceEvent::encode); `None` on an
    /// uninitialized (all-zero kind) slot.
    fn decode([w0, w1]: [u64; WORDS_PER_EVENT]) -> Option<TraceEvent> {
        match w0 & 0xff {
            KIND_FORK => Some(TraceEvent::Fork {
                left: (w1 >> 32) as u32,
                right: w1 as u32,
                elided: w0 & FLAG_ELIDED != 0,
            }),
            KIND_ENTER => Some(TraceEvent::Enter {
                worker: (w0 >> 16) as u16,
                node: w1 as u32,
            }),
            KIND_PASS => Some(TraceEvent::Pass { chunks: w1 as u32 }),
            _ => None,
        }
    }
}

/// A fixed-capacity, single-writer, lock-free append log of encoded
/// events.
///
/// The owning worker is the only thread that appends (external threads
/// share one log behind a mutex in [`TraceState`]), so publication needs
/// no CAS: the writer stores the event words relaxed, then publishes with
/// a release store of the new length; the drainer acquires the length and
/// reads everything below it.  Appends beyond capacity are counted in
/// `dropped` and discarded.
#[derive(Debug)]
struct EventLog {
    /// Flat event storage, `WORDS_PER_EVENT` words per slot.  `AtomicU64`
    /// cells keep the concurrent drain race-free in safe Rust; on the
    /// single-writer fast path they cost the same as plain stores.
    words: Vec<AtomicU64>,
    /// Number of published events; release-stored by the writer.
    len: AtomicUsize,
    /// Events discarded because the log was full.
    dropped: AtomicU64,
}

impl EventLog {
    /// Build a log for `events` events, routing the page through the
    /// workspace arena so the preallocation is arena-owned: its bytes
    /// show up in the pool's `arena_bytes` metric and the page returns to
    /// the shelf when the pool drops the trace state.
    fn preallocated(ws: &Workspace, events: usize) -> Self {
        let words = events.saturating_mul(WORDS_PER_EVENT);
        // Grow the arena slot to the required capacity first, so the
        // growth is recorded at put; then re-take the warm allocation and
        // fill it within capacity (no further allocation).
        let mut page: Vec<AtomicU64> = ws.take_buffer();
        let cap_at_take = page.capacity();
        page.reserve_exact(words);
        ws.put_buffer(page, cap_at_take);
        let mut page: Vec<AtomicU64> = ws.take_buffer();
        page.resize_with(words, || AtomicU64::new(0));
        EventLog {
            words: page,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one encoded event (single writer per log).
    #[inline]
    fn append(&self, words: [u64; WORDS_PER_EVENT]) {
        let idx = self.len.load(Ordering::Relaxed);
        let base = idx * WORDS_PER_EVENT;
        if base + WORDS_PER_EVENT > self.words.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (k, w) in words.into_iter().enumerate() {
            self.words[base + k].store(w, Ordering::Relaxed);
        }
        self.len.store(idx + 1, Ordering::Release);
    }

    /// Decode all published events into `out`, reset the log, and return
    /// how many events were dropped since the last drain.
    fn drain_into(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let n = self.len.load(Ordering::Acquire);
        for i in 0..n {
            let base = i * WORDS_PER_EVENT;
            let mut w = [0u64; WORDS_PER_EVENT];
            for (k, slot) in w.iter_mut().enumerate() {
                *slot = self.words[base + k].load(Ordering::Relaxed);
            }
            if let Some(ev) = TraceEvent::decode(w) {
                out.push(ev);
            }
        }
        self.len.store(0, Ordering::Relaxed);
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// Per-pool tracer state: one [`EventLog`] per worker plus an external
/// slot, and the node-id allocator.
#[derive(Debug)]
pub(super) struct TraceState {
    /// `processors + 1` logs; index `processors` is the shared external
    /// slot, serialized by [`external`](TraceState::external).
    logs: Box<[EventLog]>,
    /// Serializes appends by non-worker threads into the external log.
    external: Mutex<()>,
    /// Next pal-thread node id.
    next_node: AtomicU32,
}

impl TraceState {
    pub(super) fn new(processors: usize, config: TraceConfig, ws: &Workspace) -> Self {
        let logs: Vec<EventLog> = (0..processors + 1)
            .map(|_| EventLog::preallocated(ws, config.capacity_per_worker))
            .collect();
        TraceState {
            logs: logs.into_boxed_slice(),
            external: Mutex::new(()),
            next_node: AtomicU32::new(0),
        }
    }

    /// Allocate ids for the two children of a fork.
    #[inline]
    pub(super) fn alloc_pair(&self) -> (u32, u32) {
        let base = self.next_node.fetch_add(2, Ordering::Relaxed);
        (base, base.wrapping_add(1))
    }

    /// Record one event from worker `slot` (`None` for external threads).
    #[inline]
    pub(super) fn record(&self, slot: Option<usize>, ev: TraceEvent) {
        match slot {
            Some(i) => self.logs[i].append(ev.encode()),
            None => {
                let _serialized = self.external.lock();
                self.logs[self.logs.len() - 1].append(ev.encode());
            }
        }
    }

    /// Drain every log into a [`DagTrace`] and reset the tracer for the
    /// next capture window (event pages are reused in place, node ids
    /// restart at 0).  The pages stay checked out of the arena for the
    /// pool's whole lifetime — their one-time growth is what the
    /// steady-state arena tests see at build time, and nothing after.
    pub(super) fn drain(&self) -> DagTrace {
        let _serialized = self.external.lock();
        let mut events = Vec::new();
        let mut dropped = 0;
        for log in self.logs.iter() {
            dropped += log.drain_into(&mut events);
        }
        self.next_node.store(0, Ordering::Relaxed);
        DagTrace { events, dropped }
    }
}

/// A captured pal-thread execution DAG: the drained event stream of one
/// capture window.  Produced by
/// [`PalPool::take_trace`](super::PalPool::take_trace) and read in memory
/// (a trace has no on-disk format); [`summary`](DagTrace::summary) turns
/// it back into the pool's fork accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagTrace {
    /// All recorded events in log order: each worker's log in append
    /// order, workers one after another, the external log last.
    pub events: Vec<TraceEvent>,
    /// Events discarded because a per-worker buffer filled up.  A trace
    /// with `dropped > 0` still decodes, but its totals undercount.
    pub dropped: u64,
}

impl DagTrace {
    /// `true` when no event was lost to a full buffer — the precondition
    /// for the exact-accounting guarantees of [`summary`](DagTrace::summary).
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Reconstruct the pool's fork-accounting totals from the event
    /// stream alone.
    ///
    /// On a complete trace of a quiesced pool this reproduces the
    /// [`RunMetrics`](crate::RunMetrics) deltas of the capture window
    /// *exactly* — same `forks`, `elided`, `spawned`, `inlined` and
    /// `steals` — which is what the capture property suites assert.  On an
    /// incomplete trace (or one with in-flight work) creation points
    /// whose `Enter` events are missing are tallied as
    /// [`unclassified`](TraceSummary::unclassified) instead of guessed.
    pub fn summary(&self) -> TraceSummary {
        // Map node id -> worker that entered it.  Ids are dense and
        // small (they count pal-threads), so a flat table beats a map.
        let max_id = self
            .events
            .iter()
            .map(|ev| match *ev {
                TraceEvent::Fork { right, .. } => right,
                TraceEvent::Enter { node, .. } => node,
                TraceEvent::Pass { .. } => 0,
            })
            .max()
            .unwrap_or(0);
        let mut entered: Vec<u16> = vec![EXTERNAL_WORKER; max_id as usize + 1];
        let mut seen: Vec<bool> = vec![false; max_id as usize + 1];
        for ev in &self.events {
            if let TraceEvent::Enter { worker, node } = *ev {
                entered[node as usize] = worker;
                seen[node as usize] = true;
            }
        }
        let enter_worker = |node: u32| -> Option<u16> {
            seen.get(node as usize)
                .copied()
                .unwrap_or(false)
                .then(|| entered[node as usize])
        };

        let mut s = TraceSummary::default();
        for ev in &self.events {
            match *ev {
                TraceEvent::Fork {
                    left,
                    right,
                    elided,
                } => {
                    s.forks += 1;
                    if elided {
                        s.elided += 1;
                    } else {
                        s.scheduled += 1;
                        // `left` runs on the thread that pushed `right`
                        // as a pending job (even for external call sites,
                        // which trampoline onto a worker), so comparing
                        // the two Enter workers decides stolen-vs-inlined.
                        match (enter_worker(left), enter_worker(right)) {
                            (Some(wl), Some(wr)) if wl == wr => s.inlined += 1,
                            (Some(_), Some(_)) => {
                                s.spawned += 1;
                                s.steals += 1;
                            }
                            _ => s.unclassified += 1,
                        }
                    }
                }
                TraceEvent::Pass { chunks } => {
                    s.passes += 1;
                    s.pass_forks += u64::from(chunks.saturating_sub(1));
                }
                TraceEvent::Enter { .. } => {}
            }
        }
        s
    }
}

/// Fork-accounting totals reconstructed from a [`DagTrace`] by
/// [`DagTrace::summary`]; field names match [`RunMetrics`](crate::RunMetrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total creation points: `Fork` events (`= elided + scheduled`).
    pub forks: u64,
    /// Creation points elided by the `⌈α·log₂ p⌉` throttle.
    pub elided: u64,
    /// Creation points that reached the scheduler
    /// (`= spawned + inlined + unclassified`).
    pub scheduled: u64,
    /// Scheduled pal-threads granted a processor other than their
    /// creator's activation (`= steals`: every scheduled child is either
    /// stolen or popped back by its creator).
    pub spawned: u64,
    /// Scheduled pal-threads executed by their creator.
    pub inlined: u64,
    /// Spawned pal-threads that migrated between pool workers.
    pub steals: u64,
    /// Scheduled creation points whose children's `Enter` events are
    /// missing (dropped events or in-flight work); zero on a complete
    /// trace of a quiesced pool.
    pub unclassified: u64,
    /// Number of blocked data-parallel passes recorded.
    pub passes: u64,
    /// Sum over passes of `chunks − 1` — the part of `forks` attributable
    /// to blocked-primitive blocking (all of it for a kernel, like BFS,
    /// whose only parallelism is blocked passes).
    pub pass_forks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> DagTrace {
        DagTrace {
            events: vec![
                TraceEvent::Fork {
                    left: 0,
                    right: 1,
                    elided: false,
                },
                TraceEvent::Enter { worker: 0, node: 0 },
                TraceEvent::Enter { worker: 1, node: 1 },
                TraceEvent::Fork {
                    left: 2,
                    right: 3,
                    elided: true,
                },
                TraceEvent::Pass { chunks: 8 },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn summary_classifies_steals_inlines_and_elisions() {
        let mut trace = sample_trace();
        let s = trace.summary();
        assert_eq!(s.forks, 2);
        assert_eq!(s.elided, 1);
        assert_eq!(s.scheduled, 1);
        assert_eq!(s.steals, 1, "children entered on different workers");
        assert_eq!(s.spawned, 1);
        assert_eq!(s.inlined, 0);
        assert_eq!(s.unclassified, 0);
        assert_eq!(s.passes, 1);
        assert_eq!(s.pass_forks, 7);

        // Same trace, but the right child entered on the left's worker:
        // an inline, not a steal.
        for ev in &mut trace.events {
            if let TraceEvent::Enter { worker, node: 1 } = ev {
                *worker = 0;
            }
        }
        let s = trace.summary();
        assert_eq!(s.inlined, 1);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn event_encoding_roundtrips() {
        let events = [
            TraceEvent::Fork {
                left: u32::MAX - 1,
                right: u32::MAX,
                elided: true,
            },
            TraceEvent::Fork {
                left: 0,
                right: 1,
                elided: false,
            },
            TraceEvent::Enter {
                worker: EXTERNAL_WORKER,
                node: 11,
            },
            TraceEvent::Pass { chunks: u32::MAX },
        ];
        for ev in events {
            assert_eq!(TraceEvent::decode(ev.encode()), Some(ev));
        }
    }

    #[test]
    fn event_log_drops_when_full_and_resets_on_drain() {
        let ws = Workspace::new();
        let log = EventLog::preallocated(&ws, 2);
        for i in 0..4 {
            log.append(TraceEvent::Enter { worker: 0, node: i }.encode());
        }
        let mut out = Vec::new();
        assert_eq!(log.drain_into(&mut out), 2, "two events dropped");
        assert_eq!(out.len(), 2);
        out.clear();
        // Drained: capacity is available again, dropped counter reset.
        log.append(TraceEvent::Enter { worker: 0, node: 9 }.encode());
        assert_eq!(log.drain_into(&mut out), 0);
        assert_eq!(out, vec![TraceEvent::Enter { worker: 0, node: 9 }]);
    }

    #[test]
    fn preallocation_is_arena_accounted() {
        let ws = Workspace::new();
        let log = EventLog::preallocated(&ws, 1024);
        let grown = ws.stats().grown_bytes;
        assert!(
            grown >= (1024 * WORDS_PER_EVENT * 8) as u64,
            "page bytes recorded: {grown}"
        );
        assert_eq!(log.words.len(), 1024 * WORDS_PER_EVENT);
    }
}
