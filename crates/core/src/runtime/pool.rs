//! The [`PalPool`]: the default pal-thread executor for real hardware.
//!
//! The paper's scheduler keeps pending pal-threads in an ordered tree and
//! hands them to processors "in a manner consistent with order of creation as
//! resources become available" (§3.1).  The property that actually drives
//! Theorem 1 is that a pal-thread which could not be activated at creation
//! time is still *available* to any processor that frees up later, so the `p`
//! processors end up owning one subtree each of size `n / b^{log_a p}`
//! (Figure 2).  On real hardware the standard way to obtain exactly that
//! behaviour is a bounded work-stealing pool, and that is what backs this
//! type: the workspace [`rayon`] runtime keeps exactly `p` persistent worker
//! threads, one pending-task deque per worker, and has idle workers steal
//! the **oldest** pending pal-thread first (creation order).  A forking
//! worker pushes its second child as a *pending* task, runs the first child,
//! and on return either pops the pending child back (it was never granted a
//! processor: inline, as §3.1 prescribes) or — if the child migrated — helps
//! with other pending work instead of parking.  No OS thread is ever spawned
//! per fork.
//!
//! The runtime reports every spawn-vs-inline decision and every migration
//! through [`PalPool::metrics`] ([`RunMetrics`]): `spawned`/`steals` count
//! pal-threads picked up by a processor that freed up after their creation,
//! `inlined` counts pal-threads folded into their parent.  This makes the
//! recursion cutoff depth `log_a p` of Figure 2 observable on the real pool,
//! not just on the step-accurate `lopram-sim` simulator, and
//! `tests/runtime_migration.rs` pins the migration rule itself: a pending
//! pal-thread is taken by whichever processor frees up first.
//!
//! # The α·log p sequential cutoff
//!
//! Figure 2's other half is a *throttle*: with only `p = O(log n)`
//! processors, forks below recursion depth `log_a p` can never be granted a
//! fresh processor — the paper's scheduler runs them sequentially in their
//! parent.  Handing those forks to the work-stealing runtime anyway would
//! pay a deque push/pop per fork for jobs no processor will ever take, at
//! every one of the `Θ(n)` nodes of the recursion tree.  `PalPool`
//! therefore tracks the pal-thread recursion depth in a thread-local
//! counter (carried across steals, so a migrated subtree keeps its depth)
//! and, once the depth reaches `⌈α·log₂ p⌉` ([`cutoff_levels`]), runs
//! [`join`](PalPool::join) as a plain sequential call: no job, no latch,
//! no scheduler at all.  `join` is the pool's one fork primitive — every
//! multi-way fork ([`for_each_index`](PalPool::for_each_index), the
//! blocked primitives, [`palthreads!`](crate::palthreads)) is a balanced
//! tree of them — so the cutoff throttles everything.  Each elided fork is
//! counted in [`RunMetrics::elided`], so
//! `spawned + inlined + elided` still accounts for every creation point.
//! A pool keeps its `p` processors for its whole life — a runtime worker
//! leaves its loop only when the pool is dropped — so the cutoff is
//! computed once, at build time, and `join` reads it as a plain field.
//!
//! The default `α = 2` keeps twice the exact binary cutoff depth, leaving
//! pending pal-threads for migration even on unbalanced trees; tune it with
//! [`PalPoolBuilder::alpha`] or disable the throttle entirely with
//! [`PalPoolBuilder::no_cutoff`] (the runtime tests do, to exercise the raw
//! runtime).

use std::cell::Cell;

use parking_lot::Mutex;

use super::cancel;
use super::trace::{self, DagTrace, TraceConfig, TraceEvent, TraceState};
use super::workspace::Workspace;
use crate::error::{Error, Result};
use crate::metrics::{MetricsSnapshot, RunMetrics};
use crate::policy::{cutoff_levels, grain_size, pass_chunks, ProcessorPolicy};

/// Default headroom factor `α` for the sequential cutoff `⌈α·log₂ p⌉`.
pub const DEFAULT_CUTOFF_ALPHA: f64 = 2.0;

/// Sentinel stored in [`PalPool::cutoff`] when the depth throttle is
/// disabled (no real cutoff can reach it: depths are far below
/// `usize::MAX`).
const CUTOFF_DISABLED: usize = usize::MAX;

/// How a pool blocks its data-parallel primitives (see
/// [`PalPool::chunk_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grain {
    /// The default policy, [`pass_chunks`]: one block below the wake
    /// floor, then the cost-model floor per block and the steal-informed
    /// `4p`→`8p` oversubscription on large inputs.
    Adaptive,
    /// Pinned policy: at most `4p` blocks of at least `min` elements, no
    /// wake floor and no oversubscription adaptivity.  `min = 1` is
    /// exactly the legacy fixed-`4p` blocking.
    Fixed { min: usize },
}

impl Grain {
    fn chunks(self, len: usize, p: usize) -> usize {
        match self {
            Grain::Adaptive => pass_chunks(len, p),
            Grain::Fixed { min } => grain_size(len, p, min, 0),
        }
    }
}

/// Source of unique pool identities for the thread-local depth counter
/// (0 is reserved for "no pool").
static POOL_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Thread-local pal-thread context: which pool's computation this thread
/// is currently inside, at which recursion depth, and — when that pool is
/// tracing — the running pal-thread's trace node id and the thread's
/// logical (Lamport) clock.  On an untraced pool `node` and `clock` stay
/// zero and only `(pool, depth)` carry meaning, exactly the old
/// depth-counter behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PalCtx {
    /// Owning pool's identity (0: no pool).
    pool: u64,
    /// Pal-thread recursion depth.
    depth: usize,
    /// Trace node id of the running pal-thread ([`trace::ROOT_NODE`]
    /// outside any traced pal-thread).
    node: u32,
    /// Logical clock, ticked once per recorded trace event.
    clock: u64,
}

const IDLE_CTX: PalCtx = PalCtx {
    pool: 0,
    depth: 0,
    node: trace::ROOT_NODE,
    clock: 0,
};

thread_local! {
    /// Context of the pal-thread computation currently running on this
    /// thread.  Stolen jobs carry their context with them (the closure
    /// wrapper below restores it on the thief), so depth and node follow
    /// the recursion *tree*, not the OS thread.  The pool identity keeps
    /// different pools from charging their depth against each other's
    /// cutoff: a pool that finds another pool's entry here is at its own
    /// logical root (depth 0).
    static PAL_CTX: Cell<PalCtx> = const { Cell::new(IDLE_CTX) };
}

/// Current pal-thread recursion depth of pool `pool_id` on this thread
/// (0 outside any computation of that pool — including inside a
/// computation of a *different* pool, which is that pool's business, not
/// ours).
fn current_depth(pool_id: u64) -> usize {
    let ctx = PAL_CTX.with(Cell::get);
    if ctx.pool == pool_id {
        ctx.depth
    } else {
        0
    }
}

/// Trace node id of the pal-thread of pool `pool_id` running on this
/// thread ([`trace::ROOT_NODE`] outside one: the external session).
fn current_node(pool_id: u64) -> u32 {
    let ctx = PAL_CTX.with(Cell::get);
    if ctx.pool == pool_id {
        ctx.node
    } else {
        trace::ROOT_NODE
    }
}

/// Advance this thread's logical clock for pool `pool_id` past `at_least`
/// and return the new stamp.
///
/// The clock persists in the thread-local slot so consecutive top-level
/// calls from one external thread stay ordered — but only when writing
/// cannot clobber another pool's live context (the slot is this pool's or
/// idle).  Inside a different pool's computation the stamp is still
/// correct (causality flows through the fork edges), it just restarts.
fn tick_clock(pool_id: u64, at_least: u64) -> u64 {
    PAL_CTX.with(|c| {
        let ctx = c.get();
        let base = if ctx.pool == pool_id { ctx.clock } else { 0 };
        let ts = base.max(at_least) + 1;
        if ctx.pool == pool_id {
            c.set(PalCtx { clock: ts, ..ctx });
        } else if ctx.pool == 0 {
            c.set(PalCtx {
                pool: pool_id,
                depth: 0,
                node: trace::ROOT_NODE,
                clock: ts,
            });
        }
        ts
    })
}

/// Fold a child's final clock back into the forking pal-thread after a
/// join, so events the parent records next are stamped after everything
/// its children did (same persistence rule as [`tick_clock`]).
fn merge_clock(pool_id: u64, at_least: u64) {
    PAL_CTX.with(|c| {
        let ctx = c.get();
        if ctx.pool == pool_id {
            c.set(PalCtx {
                clock: ctx.clock.max(at_least),
                ..ctx
            });
        } else if ctx.pool == 0 {
            c.set(PalCtx {
                pool: pool_id,
                depth: 0,
                node: trace::ROOT_NODE,
                clock: at_least,
            });
        }
    });
}

/// RAII restore of the previous thread-local context (also on unwind).
struct Restore(PalCtx);
impl Drop for Restore {
    fn drop(&mut self) {
        PAL_CTX.with(|c| c.set(self.0));
    }
}

/// Run `f` with the thread-local context set to depth `depth` in pool
/// `pool_id`, restoring the previous entry afterwards (also on unwind).
/// The untraced fast path: node and clock stay zero.
fn with_depth<R>(pool_id: u64, depth: usize, f: impl FnOnce() -> R) -> R {
    let prev = PAL_CTX.with(|c| {
        c.replace(PalCtx {
            pool: pool_id,
            depth,
            node: trace::ROOT_NODE,
            clock: 0,
        })
    });
    let _restore = Restore(prev);
    f()
}

/// Run `f` as traced pal-thread `node` of pool `pool_id` at `depth`, with
/// the thread's clock seeded just after the creation stamp `created_ts`.
/// Returns `f`'s result and the pal-thread's final clock, which the
/// forking side folds back with [`merge_clock`] (lost on unwind — a
/// panicking child leaves no `Exit` stamp either).
fn with_task<R>(
    pool_id: u64,
    depth: usize,
    node: u32,
    created_ts: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let prev = PAL_CTX.with(|c| {
        c.replace(PalCtx {
            pool: pool_id,
            depth,
            node,
            clock: created_ts,
        })
    });
    let _restore = Restore(prev);
    let result = f();
    let end = PAL_CTX.with(Cell::get).clock;
    (result, end)
}

/// Trace worker id for a per-worker log slot (`None` ⇒ external).
fn worker_id(slot: Option<usize>) -> u16 {
    slot.map_or(trace::EXTERNAL_WORKER, |i| i as u16)
}

/// A LoPRAM processor pool with `p` processors.
///
/// All parallelism in the algorithm crates flows through this type: the
/// two-way [`join`](PalPool::join) (the paper's `palthreads { a; b; }`) and
/// the data-parallel helpers built from it:
/// [`for_each_index`](PalPool::for_each_index) (wavefront execution) and
/// the blocked passes ([`scan`](PalPool::scan), [`pack`](PalPool::pack),
/// [`map_reduce`](PalPool::map_reduce), …), each a balanced `join` tree.
#[derive(Debug)]
pub struct PalPool {
    processors: usize,
    pool: rayon::ThreadPool,
    metrics: RunMetrics,
    /// Identity for the thread-local pal-thread context (see [`PAL_CTX`]).
    id: u64,
    /// Recursion depth at which forks stop creating scheduler jobs
    /// (`⌈α·log₂ p⌉`); the sentinel [`CUTOFF_DISABLED`] disables the
    /// throttle.
    cutoff: usize,
    /// Blocking policy for the data-parallel primitives.
    grain: Grain,
    /// Reusable scratch arena for the blocked primitives and the kernels
    /// built on them (see [`workspace`](PalPool::workspace)).
    workspace: Workspace,
    /// Execution tracer ([`PalPoolBuilder::trace`]); `None` — the default
    /// — keeps every hook a single `Option` branch.
    trace: Option<TraceState>,
    /// Last pool-level counters already folded into `metrics`, so repeated
    /// [`metrics`](PalPool::metrics) calls only add the delta.
    synced: Mutex<SyncedCounters>,
}

/// Baseline of externally-sourced counters already folded into
/// [`PalPool::metrics`]; see [`PalPool::sync_metrics`].
#[derive(Debug, Default)]
struct SyncedCounters {
    pool: rayon::PoolStats,
    arena_hits: u64,
    arena_bytes: u64,
}

impl PalPool {
    /// Create a pool with exactly `p` processors and the default
    /// `⌈α·log₂ p⌉` sequential cutoff (`α = 2`).
    ///
    /// Returns [`Error::ZeroProcessors`] when `p == 0`.
    pub fn new(p: usize) -> Result<Self> {
        PalPool::with_cutoff(
            p,
            Some(DEFAULT_CUTOFF_ALPHA),
            Grain::Adaptive,
            None,
            rayon::ChaosConfig::default(),
        )
    }

    /// Create a pool with exactly `p` processors, an explicit throttle
    /// (`Some(alpha)` applies the `⌈α·log₂ p⌉` cutoff, `None` disables it),
    /// an explicit blocking policy, an optional execution tracer and the
    /// runtime's chaos configuration.
    fn with_cutoff(
        p: usize,
        alpha: Option<f64>,
        grain: Grain,
        trace: Option<TraceConfig>,
        chaos: rayon::ChaosConfig,
    ) -> Result<Self> {
        if p == 0 {
            return Err(Error::ZeroProcessors);
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(p)
            .thread_name(|i| format!("lopram-proc-{i}"))
            .chaos(chaos)
            .build()
            .map_err(|e| Error::InvalidInput(format!("failed to build thread pool: {e}")))?;
        let workspace = Workspace::new();
        // Event pages are preallocated through the arena here, at build
        // time, so a capture window itself allocates nothing.
        let trace = trace.map(|cfg| TraceState::new(p, cfg, &workspace));
        Ok(PalPool {
            processors: p,
            pool,
            metrics: RunMetrics::new(),
            id: POOL_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            cutoff: alpha.map_or(CUTOFF_DISABLED, |a| cutoff_levels(a, p)),
            grain,
            workspace,
            trace,
            synced: Mutex::new(SyncedCounters::default()),
        })
    }

    /// Create a single-processor pool: every pal-thread runs on the same
    /// processor, so the execution is the sequential one.
    pub fn sequential() -> Self {
        PalPool::new(1).expect("1 > 0")
    }

    /// Create a pool sized by the paper's default policy `p = O(log n)` for
    /// an input of size `n` (capped by the host's core count).
    pub fn for_input_size(n: usize) -> Self {
        let p = ProcessorPolicy::LogN.processors(n);
        PalPool::new(p).expect("policy returns >= 1")
    }

    /// Create a pool sized by an explicit [`ProcessorPolicy`].
    pub fn with_policy(n: usize, policy: ProcessorPolicy) -> Self {
        PalPool::new(policy.processors(n)).expect("policy returns >= 1")
    }

    /// Start building a pool with non-default options.
    pub fn builder() -> PalPoolBuilder {
        PalPoolBuilder::default()
    }

    /// Number of processors `p` this pool models.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Recursion depth below which forks are elided (run as plain
    /// sequential calls), or `None` when the throttle is disabled.
    ///
    /// With the default `α = 2` this is `⌈2·log₂ p⌉`; a one-processor pool
    /// reports `Some(0)` — every fork elided.
    pub fn cutoff_depth(&self) -> Option<usize> {
        (self.cutoff != CUTOFF_DISABLED).then_some(self.cutoff)
    }

    /// Snapshot the runtime's per-worker heartbeats;
    /// [`PoolHealth::stalled`](rayon::PoolHealth::stalled) names the
    /// processors wedged inside one job.
    pub fn health(&self) -> rayon::PoolHealth {
        self.pool.health()
    }

    /// The pool's scratch arena: reusable, grow-only typed buffers the
    /// blocked primitives (and kernels built on them, like the BFS in
    /// `lopram-graph`) check out instead of allocating.
    ///
    /// See [`Workspace`] for the checkout/check-in lifecycle; the arena's
    /// hit and growth counters surface through
    /// [`metrics`](PalPool::metrics) as `arena_hits` / `arena_bytes`.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Scheduling counters for this pool.
    ///
    /// `spawned`/`steals` count pal-threads that migrated to a processor
    /// which freed up after their creation; `inlined` counts pal-threads
    /// popped back and executed by their creator.  The counters are pulled
    /// from the work-stealing runtime on every call, so they reflect all
    /// joins completed so far.
    pub fn metrics(&self) -> &RunMetrics {
        self.sync_metrics();
        &self.metrics
    }

    /// Run `f` and return its result together with the metrics delta it
    /// produced: a [`MetricsSnapshot`] whose counters cover exactly the
    /// window of the call (snapshot-before subtracted from
    /// snapshot-after, each synced through the same delta-sync path as
    /// [`metrics`](PalPool::metrics)).
    ///
    /// This is per-*call* attribution over the pool-global counters, not
    /// isolation: the window is only attributable to `f` when no other
    /// computation uses the pool concurrently (the single-client case
    /// every current caller — a test holding one kernel call to its exact
    /// fork closed form, such as `lopram-graph`'s `union_find_forks` — is
    /// in).  Scoped deltas nest: an outer scope's delta includes every
    /// inner scope's.
    pub fn scoped_metrics<R>(&self, f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
        let before = self.metrics().snapshot();
        let result = f();
        let after = self.metrics().snapshot();
        (result, after.delta_since(&before))
    }

    /// Fold the runtime's stolen/inlined counters and the workspace
    /// arena's hit/growth counters into `self.metrics`, adding only what
    /// accumulated since the previous sync.
    ///
    /// Attribution: a stolen fork was granted a processor *and* migrated
    /// (`spawned` + `steals`); an inlined fork is `inlined`.
    fn sync_metrics(&self) {
        use std::sync::atomic::Ordering;
        // Read the stats *after* taking the lock: two concurrent syncs
        // reading before locking could otherwise see each other's newer
        // baseline and underflow the delta.
        let mut last = self.synced.lock();
        let now = self.pool.stats();
        let arena = self.workspace.stats();
        let stolen = now.stolen - last.pool.stolen;
        let inlined = now.inlined - last.pool.inlined;
        let arena_hits = arena.hits - last.arena_hits;
        // Wrapping: grown_bytes is a signed (two's-complement) net, so it
        // can transiently decrease; the wrapped delta re-nets correctly
        // in the metrics accumulator.
        let arena_bytes = arena.grown_bytes.wrapping_sub(last.arena_bytes);
        last.pool = now;
        last.arena_hits = arena.hits;
        last.arena_bytes = arena.grown_bytes;
        drop(last);
        self.metrics.spawned.fetch_add(stolen, Ordering::Relaxed);
        self.metrics.steals.fetch_add(stolen, Ordering::Relaxed);
        self.metrics.inlined.fetch_add(inlined, Ordering::Relaxed);
        self.metrics
            .arena_hits
            .fetch_add(arena_hits, Ordering::Relaxed);
        // fetch_add wraps on overflow, which is exactly the two's-
        // complement accumulation the signed delta needs.
        self.metrics
            .arena_bytes
            .fetch_add(arena_bytes, Ordering::Relaxed);
    }

    /// Run two pal-threads and wait for both — the `palthreads { a(); b(); }`
    /// construct of the paper's mergesort example (§3.1).
    ///
    /// Above the cutoff depth, `b` is created as a *pending* pal-thread
    /// while `a` runs; it is executed by whichever processor gets to it
    /// first — an idle processor that steals it, or `a`'s processor inline
    /// after `a` — so the spawn-vs-inline decision is made at activation
    /// time, not creation time.  Called from outside the pool (above the
    /// cutoff), both children run on pool workers and the caller blocks.
    /// Panics in either child propagate to the caller.
    ///
    /// At recursion depth `⌈α·log₂ p⌉` and below, the fork is **elided**:
    /// `a` and `b` run as plain sequential calls in creation order (the
    /// §3.1 "no free processors ⇒ the parent runs it" rule, applied at the
    /// depth where Figure 2 guarantees no processor can ever be free for
    /// it), recorded in [`RunMetrics::elided`].  Elided children execute on
    /// the calling thread itself — on a pool whose cutoff is 0 (`p = 1`)
    /// even an external caller runs them in place rather than shipping
    /// them to a worker; the execution is sequential either way.  Panic
    /// semantics match the scheduled path: `b` runs even when `a`
    /// panicked, and `a`'s panic takes precedence.
    ///
    /// Every join is also a cancellation checkpoint
    /// ([`cancel::checkpoint`]): inside a
    /// [`run_cancellable`](cancel::run_cancellable) region with a fired
    /// token, the fork unwinds instead of forking.  Scheduled children
    /// carry the region's token with them, so a stolen subtree keeps
    /// checkpointing against the right computation.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        cancel::checkpoint();
        let depth = current_depth(self.id);
        let elide = depth >= self.cutoff;
        if let Some(trace) = &self.trace {
            return self.join_traced(trace, a, b, depth, elide);
        }
        if elide {
            self.metrics.record_elided();
            // Same contract as the scheduled path: b executes even when a
            // unwinds (a stolen b always runs), and a's panic wins.
            let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
            let rb = std::panic::catch_unwind(std::panic::AssertUnwindSafe(b));
            return match (ra, rb) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(payload), _) => std::panic::resume_unwind(payload),
                (_, Err(payload)) => std::panic::resume_unwind(payload),
            };
        }
        let child = depth + 1;
        let id = self.id;
        // Scheduled children re-install the forking region's ambient
        // token on whichever worker runs them — *always*, even a `None`:
        // a help-first joining worker may execute an unrelated pending
        // pal-thread mid-wait, which must not inherit this thread's
        // token by accident.
        let token = cancel::ambient();
        let token_b = token.clone();
        self.pool.join(
            move || cancel::with_ambient(token, || with_depth(id, child, a)),
            move || cancel::with_ambient(token_b, || with_depth(id, child, b)),
        )
    }

    /// The recording twin of [`join`](PalPool::join): identical fork,
    /// elision and panic semantics, plus one `Fork` event at the call site
    /// and `Enter`/`Exit` stamps around each scheduled child.  Kept as a
    /// separate path so untraced joins pay exactly one branch.
    fn join_traced<RA, RB>(
        &self,
        trace: &TraceState,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
        depth: usize,
        elide: bool,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let id = self.id;
        let parent = current_node(id);
        let ts = tick_clock(id, 0);
        let (left, right) = trace.alloc_pair();
        let slot = self.worker_slot();
        trace.record(
            slot,
            TraceEvent::Fork {
                ts,
                worker: worker_id(slot),
                parent,
                left,
                right,
                depth: depth as u32,
                elided: elide,
            },
        );
        let child = depth + 1;
        if elide {
            self.metrics.record_elided();
            // Children run inline but still get their own node context,
            // so nested traced forks attach to the right parent.  Their
            // depth is `depth + 1` (≥ cutoff, so elision decisions are
            // unchanged).
            let (ra, a_end) = with_task(id, child, left, ts, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(a))
            });
            let (rb, b_end) = with_task(id, child, right, ts, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(b))
            });
            merge_clock(id, a_end.max(b_end));
            return match (ra, rb) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(payload), _) => std::panic::resume_unwind(payload),
                (_, Err(payload)) => std::panic::resume_unwind(payload),
            };
        }
        let token = cancel::ambient();
        let token_b = token.clone();
        let ((ra, a_end), (rb, b_end)) = self.pool.join(
            move || {
                cancel::with_ambient(token, || {
                    with_task(id, child, left, ts, || {
                        let slot = self.worker_slot();
                        let w = worker_id(slot);
                        trace.record(
                            slot,
                            TraceEvent::Enter {
                                ts: tick_clock(id, 0),
                                worker: w,
                                node: left,
                            },
                        );
                        let r = a();
                        trace.record(
                            slot,
                            TraceEvent::Exit {
                                ts: tick_clock(id, 0),
                                worker: w,
                                node: left,
                            },
                        );
                        r
                    })
                })
            },
            move || {
                cancel::with_ambient(token_b, || {
                    with_task(id, child, right, ts, || {
                        let slot = self.worker_slot();
                        let w = worker_id(slot);
                        trace.record(
                            slot,
                            TraceEvent::Enter {
                                ts: tick_clock(id, 0),
                                worker: w,
                                node: right,
                            },
                        );
                        let r = b();
                        trace.record(
                            slot,
                            TraceEvent::Exit {
                                ts: tick_clock(id, 0),
                                worker: w,
                                node: right,
                            },
                        );
                        r
                    })
                })
            },
        );
        merge_clock(id, a_end.max(b_end));
        (ra, rb)
    }

    /// `true` when this pool was built with
    /// [`PalPoolBuilder::trace`] — every join and blocked pass is being
    /// recorded.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Drain the tracer's event buffers into a [`DagTrace`] and reset
    /// them for the next capture window; `None` when the pool was built
    /// without [`PalPoolBuilder::trace`].
    ///
    /// Call between computations: events of work still in flight while
    /// draining land in either the drained trace or the next window, so a
    /// quiesced pool is the precondition for the exact-accounting
    /// guarantees of [`DagTrace::summary`].
    pub fn take_trace(&self) -> Option<DagTrace> {
        let trace = self.trace.as_ref()?;
        Some(trace.drain(self.processors, self.cutoff_depth()))
    }

    /// This thread's per-worker trace-log slot (`None`: not a worker of
    /// this pool's runtime — the shared external slot).
    fn worker_slot(&self) -> Option<usize> {
        self.pool.current_thread_index()
    }

    /// Record one blocked data-parallel pass (`len` elements in `chunks`
    /// blocks); no-op unless tracing.  Called by the primitives layer.
    #[inline]
    pub(super) fn trace_pass(&self, len: usize, chunks: usize) {
        if let Some(trace) = &self.trace {
            let slot = self.worker_slot();
            trace.record(
                slot,
                TraceEvent::Pass {
                    ts: tick_clock(self.id, 0),
                    worker: worker_id(slot),
                    len: len as u64,
                    chunks: chunks as u32,
                },
            );
        }
    }

    /// Block count for the blocked data-parallel primitives on a
    /// length-`len` input — by default
    /// [`policy::pass_chunks`](crate::policy::pass_chunks)`(len, p)`.
    ///
    /// Below [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) elements that is
    /// **one block**: the pass runs on the calling thread with zero forks
    /// and zero wakeups, because the work is smaller than the wake/park
    /// round trip a fork from a non-worker thread would trigger.  From the
    /// floor up it is at most `4·p` blocks (up to `8·p` on inputs large
    /// enough that the finer pieces still amortize a steal), no block
    /// under [`DEFAULT_GRAIN`](crate::policy::DEFAULT_GRAIN) elements.
    /// [`PalPoolBuilder::grain`] pins the per-block floor and disables
    /// both the wake floor and the oversubscription rule (a pinned pool
    /// forks on tiny inputs — that is what tests pin closed forms with);
    /// `grain(1)` is exactly the legacy fixed `4·p` blocking.
    ///
    /// The policy is a pure function of `(len, p, configuration)` — never
    /// of the observed schedule — so a primitive's fork count (`blocks −
    /// 1` per parallel pass over `chunk_count(len)` blocks with balanced
    /// boundaries `c·len/chunks`) stays exact and schedule-independent,
    /// and calling this method is all a test needs to predict it.
    /// [`for_each_index`](PalPool::for_each_index) and
    /// [`map_reduce`](PalPool::map_reduce) do **not** use this policy:
    /// their per-index cost is an opaque closure (one index may be a
    /// whole worker loop), so they keep the fixed `4·p` chunk bound of
    /// [`index_chunk_count`](PalPool::index_chunk_count).  A caller that
    /// *can* price its indices asks here first, through
    /// [`Executor::chunk_count`](crate::Executor::chunk_count), and hands
    /// `for_each_index` one index per block: the wavefront DP solver
    /// weighs a level at its cells plus the table reads they make, runs a
    /// one-block level as a plain loop and forks only the rest.
    pub fn chunk_count(&self, len: usize) -> usize {
        self.grain.chunks(len, self.processors)
    }

    /// Chunk-count bound for the index-space helpers
    /// ([`for_each_index`](PalPool::for_each_index) /
    /// [`map_reduce`](PalPool::map_reduce)): the legacy `4·p` clamped to
    /// `[1, len]`, with no element-cost floor — one index may hide
    /// arbitrary work, so the element cost model behind
    /// [`chunk_count`](PalPool::chunk_count) does not apply.
    /// Both run exactly this many balanced blocks, `C − 1` forks.
    pub fn index_chunk_count(&self, len: usize) -> usize {
        (self.processors * 4).clamp(1, len)
    }
}

/// Builder for [`PalPool`] with explicit processor counts, policies, caps
/// and the sequential-cutoff headroom `α`.
#[derive(Debug, Clone)]
pub struct PalPoolBuilder {
    processors: Option<usize>,
    policy: Option<(usize, ProcessorPolicy)>,
    max_processors: Option<usize>,
    /// `Some(α)` applies the `⌈α·log₂ p⌉` throttle; `None` disables it.
    alpha: Option<f64>,
    /// Blocking policy for the data-parallel primitives.
    grain: Grain,
    /// `Some` enables the execution tracer.
    trace: Option<TraceConfig>,
    /// Deterministic scheduler-fault injection (none by default).
    chaos: rayon::ChaosConfig,
}

impl Default for PalPoolBuilder {
    fn default() -> Self {
        PalPoolBuilder {
            processors: None,
            policy: None,
            max_processors: None,
            alpha: Some(DEFAULT_CUTOFF_ALPHA),
            grain: Grain::Adaptive,
            trace: None,
            chaos: rayon::ChaosConfig::default(),
        }
    }
}

impl PalPoolBuilder {
    /// Use exactly `p` processors.
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = Some(p);
        self
    }

    /// Derive the processor count from `policy` applied to input size `n`.
    pub fn policy(mut self, n: usize, policy: ProcessorPolicy) -> Self {
        self.policy = Some((n, policy));
        self
    }

    /// Enforce a hard upper bound on the processor count.
    pub fn max_processors(mut self, limit: usize) -> Self {
        self.max_processors = Some(limit);
        self
    }

    /// Set the sequential-cutoff headroom: forks below recursion depth
    /// `⌈alpha·log₂ p⌉` run as plain sequential calls.  Default `α = 2`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Disable the depth throttle: every fork goes through the
    /// work-stealing scheduler regardless of depth (used by the runtime
    /// tests and the overhead benchmarks to measure the raw runtime).
    pub fn no_cutoff(mut self) -> Self {
        self.alpha = None;
        self
    }

    /// Pin the blocked primitives' grain: at most `4·p` blocks of at
    /// least `min_grain` elements each, with the default policy's wake
    /// floor ([`WAKE_GRAIN`](crate::policy::WAKE_GRAIN)) and steal-informed
    /// `8·p` oversubscription rule both disabled.  `min_grain = 1` is
    /// exactly the legacy fixed-`4p` blocking.
    ///
    /// Pinning makes [`chunk_count`](PalPool::chunk_count) — and hence
    /// every primitive's fork count — a closed-form function of `(len,
    /// p, min_grain)`, which is what the smoke-test paths use to assert
    /// fork accounting exactly.
    pub fn grain(mut self, min_grain: usize) -> Self {
        self.grain = Grain::Fixed {
            min: min_grain.max(1),
        };
        self
    }

    /// Enable execution tracing: record every fork, spawn, elision,
    /// scheduled activation and blocked pass into per-worker event
    /// buffers (preallocated at build time through the workspace arena),
    /// drained with [`PalPool::take_trace`].  Off by default; an untraced
    /// pool pays one branch per hook and allocates nothing.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Inject deterministic scheduler faults into the runtime backing
    /// this pool — drop/delay a wake-up, force steal retries; see
    /// [`rayon::ChaosConfig`].  Off by default.
    pub fn chaos(mut self, chaos: rayon::ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<PalPool> {
        let p = match (self.processors, self.policy) {
            (Some(p), _) => p,
            (None, Some((n, policy))) => policy.processors(n),
            (None, None) => ProcessorPolicy::Available.processors(0),
        };
        if p == 0 {
            return Err(Error::ZeroProcessors);
        }
        if let Some(limit) = self.max_processors {
            if p > limit {
                return Err(Error::TooManyProcessors {
                    requested: p,
                    limit,
                });
            }
        }
        PalPool::with_cutoff(p, self.alpha, self.grain, self.trace, self.chaos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn new_rejects_zero_processors() {
        assert_eq!(PalPool::new(0).unwrap_err(), Error::ZeroProcessors);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = PalPool::new(4).unwrap();
        let (a, b) = pool.join(|| 2 + 2, || "hello".len());
        assert_eq!(a, 4);
        assert_eq!(b, 5);
    }

    #[test]
    fn scoped_metrics_attributes_exactly_the_call_window() {
        fn tree(pool: &PalPool, depth: usize) {
            if depth == 0 {
                return;
            }
            pool.join(|| tree(pool, depth - 1), || tree(pool, depth - 1));
        }
        let pool = PalPool::new(2).unwrap();
        // Warm-up work outside the scope must not leak into the delta.
        tree(&pool, 3);
        let ((), delta) = pool.scoped_metrics(|| tree(&pool, 4));
        // A depth-4 binary join tree forks at every internal node:
        // 2^4 - 1 = 15, schedule-independent.
        assert_eq!(delta.forks(), 15);
        assert!(delta.steals <= delta.spawned);
        // The pool-global counters keep the warm-up too.
        assert_eq!(pool.metrics().forks(), 7 + 15);
        // An idle scope deltas to zero.
        let ((), idle) = pool.scoped_metrics(|| ());
        assert_eq!(idle, MetricsSnapshot::default());
    }

    #[test]
    fn scoped_metrics_deltas_nest() {
        let pool = PalPool::new(2).unwrap();
        let ((inner_r, inner), outer) = pool.scoped_metrics(|| {
            pool.join(|| (), || ());
            pool.scoped_metrics(|| pool.join(|| 1, || 2))
        });
        assert_eq!(inner_r, (1, 2));
        assert_eq!(inner.forks(), 1);
        assert_eq!(outer.forks(), 2, "outer window includes the inner scope");
    }

    #[test]
    fn nested_joins_compute_fibonacci() {
        fn fib(pool: &PalPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = PalPool::new(4).unwrap();
        assert_eq!(fib(&pool, 20), 6765);
    }

    #[test]
    fn join_propagates_panic_from_second_child() {
        let pool = PalPool::new(2).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("child b failed") });
        }));
        assert!(result.is_err());
        // The pool must remain usable afterwards.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn for_each_index_covers_every_index_exactly_once() {
        let pool = PalPool::new(4).unwrap();
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(0..1000, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn for_each_index_empty_range_is_noop() {
        let pool = PalPool::new(4).unwrap();
        pool.for_each_index(5..5, |_| panic!("must not be called"));
    }

    #[test]
    fn map_reduce_sums_range() {
        let pool = PalPool::new(4).unwrap();
        let total = pool.map_reduce(0..1001, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 1000 * 1001 / 2);
    }

    #[test]
    fn map_reduce_empty_range_returns_identity() {
        let pool = PalPool::new(2).unwrap();
        assert_eq!(pool.map_reduce(3..3, 42u64, |i| i as u64, |a, b| a + b), 42);
    }

    #[test]
    fn for_input_size_uses_log_policy() {
        let pool = PalPool::for_input_size(1 << 10);
        assert!(pool.processors() >= 1);
        assert!(pool.processors() <= 10);
    }

    #[test]
    fn metrics_account_for_every_pal_thread() {
        // One join fork + a three-block index pass (two forks) = three
        // pal-threads; each one is either granted its own processor
        // (spawned/stolen) or folded into its creator (inlined) — never
        // lost, never double-counted.
        let pool = PalPool::new(2).unwrap();
        let before = {
            let m = pool.metrics();
            m.spawned() + m.inlined()
        };
        pool.join(|| (), || ());
        assert_eq!(pool.index_chunk_count(3), 3);
        pool.for_each_index(0..3, |_| ());
        let m = pool.metrics();
        assert_eq!(m.spawned() + m.inlined(), before + 3);
        // A pal-thread is spawned by migrating (a steal) or by being
        // drained off a dying worker; it can never have more steals than
        // spawns.
        assert!(m.steals() <= m.spawned());
    }

    #[test]
    fn single_processor_pool_elides_every_fork() {
        // p = 1 ⇒ cutoff depth 0: no fork can ever be granted a second
        // processor, so none of them should cost a scheduler job — the
        // "spawned == 0 below the cutoff" regression of the α·log p
        // throttle.
        let pool = PalPool::new(1).unwrap();
        assert_eq!(pool.cutoff_depth(), Some(0));
        pool.join(|| (), || ());
        pool.join(|| (), || ());
        let m = pool.metrics();
        assert_eq!(m.steals(), 0, "one worker has no one to steal from");
        assert_eq!(m.spawned(), 0, "elided forks never reach the scheduler");
        assert_eq!(m.inlined(), 0, "elided forks never reach the scheduler");
        assert_eq!(m.elided(), 2);
    }

    #[test]
    fn one_worker_pool_without_cutoff_schedules_every_fork() {
        // The raw-runtime configuration the overhead benchmark measures:
        // with the throttle disabled, every fork goes through the deque and
        // is popped back (inlined) by its creator.
        let pool = PalPool::builder()
            .processors(1)
            .no_cutoff()
            .build()
            .unwrap();
        assert_eq!(pool.cutoff_depth(), None);
        pool.join(|| (), || ());
        pool.join(|| (), || ());
        let m = pool.metrics();
        assert_eq!(m.inlined(), 2);
        assert_eq!(m.elided(), 0);
        assert_eq!(m.steals(), 0);
    }

    #[test]
    fn cutoff_elides_exactly_the_levels_below_alpha_log_p() {
        // Balanced binary join tree of depth 5 on p = 2 (cutoff = 2): the
        // joins at depths 0 and 1 (three of them) reach the scheduler, the
        // 28 deeper ones are elided.  Exactness also proves the depth
        // travels with stolen subtrees — a thief resetting it to zero would
        // schedule extra levels.
        fn tree(pool: &PalPool, depth: u32) {
            if depth == 0 {
                return;
            }
            pool.join(|| tree(pool, depth - 1), || tree(pool, depth - 1));
        }
        let pool = PalPool::new(2).unwrap();
        assert_eq!(pool.cutoff_depth(), Some(2));
        tree(&pool, 5);
        let m = pool.metrics();
        assert_eq!(m.spawned() + m.inlined(), 3, "depths 0-1 are scheduled");
        assert_eq!(m.elided(), 28, "depths 2-4 are elided");
    }

    #[test]
    fn builder_alpha_tunes_the_cutoff() {
        let pool = PalPool::builder().processors(4).alpha(1.0).build().unwrap();
        assert_eq!(pool.cutoff_depth(), Some(2));
        let pool = PalPool::builder().processors(4).build().unwrap();
        assert_eq!(pool.cutoff_depth(), Some(4), "default α = 2");
    }

    #[test]
    fn builder_grain_controls_blocking() {
        // Default policy: one block below the wake floor, 4p cap in the
        // mid range, steal-informed 8p on large inputs.
        let pool = PalPool::new(4).unwrap();
        assert_eq!(pool.chunk_count(100), 1);
        assert_eq!(pool.chunk_count(crate::policy::WAKE_GRAIN - 1), 1);
        assert_eq!(pool.chunk_count(crate::policy::WAKE_GRAIN), 16);
        assert_eq!(pool.chunk_count(100_000), 16);
        assert_eq!(pool.chunk_count(1 << 20), 32);
        // The index helpers keep the legacy bound regardless.
        assert_eq!(pool.index_chunk_count(100), 16);

        // Pinned grain: explicit floor, oversubscription rule off.
        let pinned = PalPool::builder().processors(4).grain(64).build().unwrap();
        assert_eq!(pinned.chunk_count(1 << 20), 16);
        assert_eq!(pinned.chunk_count(128), 2);

        // Grain 1: exactly the old fixed-4p blocking.
        let legacy = PalPool::builder().processors(4).grain(1).build().unwrap();
        assert_eq!(legacy.chunk_count(10), 10);
        assert_eq!(legacy.chunk_count(100), 16);
        assert_eq!(legacy.chunk_count(1 << 20), 16);
    }

    #[test]
    fn workspace_counters_flow_into_metrics() {
        let pool = PalPool::new(2).unwrap();
        {
            let mut buf = pool.workspace().checkout::<u64>();
            buf.resize(1000, 0);
        }
        drop(pool.workspace().checkout::<u64>()); // a hit, no growth
        let m = pool.metrics();
        assert_eq!(m.arena_hits(), 1);
        assert!(m.arena_bytes() >= 8000);
        let bytes = m.arena_bytes();
        // Delta sync: re-reading metrics must not double-count.
        assert_eq!(pool.metrics().arena_bytes(), bytes);
    }

    #[test]
    fn builder_respects_fixed_and_cap() {
        let pool = PalPool::builder().processors(3).build().unwrap();
        assert_eq!(pool.processors(), 3);

        let err = PalPool::builder()
            .processors(16)
            .max_processors(8)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::TooManyProcessors {
                requested: 16,
                limit: 8
            }
        );

        let pool = PalPool::builder()
            .policy(1 << 6, ProcessorPolicy::LogN)
            .build()
            .unwrap();
        assert!(pool.processors() >= 1);
    }

    #[test]
    fn results_identical_for_any_p() {
        // §3.2: "The algorithm must execute properly for any value of p."
        fn sum_recursive(pool: &PalPool, data: &[u64]) -> u64 {
            if data.len() <= 8 {
                return data.iter().sum();
            }
            let mid = data.len() / 2;
            let (lo, hi) = data.split_at(mid);
            let (a, b) = pool.join(|| sum_recursive(pool, lo), || sum_recursive(pool, hi));
            a + b
        }
        let data: Vec<u64> = (0..4096).collect();
        let expected: u64 = data.iter().sum();
        for p in [1, 2, 3, 4, 7, 8] {
            let pool = PalPool::new(p).unwrap();
            assert_eq!(sum_recursive(&pool, &data), expected, "p = {p}");
        }
    }

    #[test]
    fn untraced_pool_has_no_trace() {
        let pool = PalPool::new(2).unwrap();
        assert!(!pool.is_tracing());
        assert!(pool.take_trace().is_none());
    }

    #[test]
    fn traced_join_tree_reproduces_metrics_exactly() {
        fn tree(pool: &PalPool, depth: u32) {
            if depth == 0 {
                return;
            }
            pool.join(|| tree(pool, depth - 1), || tree(pool, depth - 1));
        }
        let pool = PalPool::builder()
            .processors(2)
            .trace(TraceConfig::default())
            .build()
            .unwrap();
        assert!(pool.is_tracing());
        tree(&pool, 5);
        let m = pool.metrics().snapshot();
        let trace = pool.take_trace().unwrap();
        assert!(trace.is_complete());
        let s = trace.summary();
        assert_eq!(s.forks, m.forks(), "31 joins, each exactly one fork event");
        assert_eq!(s.elided, m.elided);
        assert_eq!(s.spawned, m.spawned);
        assert_eq!(s.inlined, m.inlined);
        assert_eq!(s.steals, m.steals);
        assert_eq!(s.unclassified, 0);
        // Drained: the next window starts empty, ids reset.
        let empty = pool.take_trace().unwrap();
        assert!(empty.events.is_empty());
        pool.join(|| (), || ());
        let again = pool.take_trace().unwrap();
        assert_eq!(again.summary().forks, 1);
    }

    #[test]
    fn traced_primitives_record_passes() {
        let pool = PalPool::builder()
            .processors(4)
            .trace(TraceConfig::default())
            .build()
            .unwrap();
        let input: Vec<u64> = (0..100_000).collect();
        let chunks = pool.chunk_count(input.len()) as u64;
        pool.scan_copy(&input, 0u64, |a, b| a + b);
        let m = pool.metrics().snapshot();
        let trace = pool.take_trace().unwrap();
        let s = trace.summary();
        assert_eq!(s.passes, 2, "scan is a two-pass primitive");
        assert_eq!(s.pass_forks, 2 * (chunks - 1));
        assert_eq!(s.forks, m.forks(), "every pass fork is also a Fork event");
        // Serialization roundtrip on a real capture.
        let text = trace.to_text();
        assert_eq!(DagTrace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn traced_pool_results_and_fork_counts_match_untraced() {
        let input: Vec<u64> = (0..50_000).collect();
        let plain = PalPool::new(2).unwrap();
        let traced = PalPool::builder()
            .processors(2)
            .trace(TraceConfig::default())
            .build()
            .unwrap();
        let a = plain.scan_copy(&input, 0u64, |a, b| a + b);
        let b = traced.scan_copy(&input, 0u64, |a, b| a + b);
        assert_eq!(a, b);
        let mp = plain.metrics().snapshot();
        let mt = traced.metrics().snapshot();
        assert_eq!(
            mp.forks(),
            mt.forks(),
            "tracing must not change fork counts"
        );
        assert_eq!(mp.elided, mt.elided);
    }

    #[test]
    fn sub_floor_passes_fork_nothing_and_wake_no_one() {
        // "Zero forks and zero wakeups" as counts: from a non-worker
        // thread, passes below WAKE_GRAIN leave both the pool's fork
        // counters and the runtime's own job counters untouched — nothing
        // was injected, so no worker was woken and the caller never parked.
        let pool = PalPool::new(2).unwrap();
        let input: Vec<u64> = (0..4096).collect();
        let sizes: Vec<usize> = (0..4096).map(|i| i % 3).collect();
        let (mut scanned, mut packed, mut expanded, mut mapped) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let before = pool.pool.stats();
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
        pool.pack_in(&input, |_, x| x % 2 == 0, &mut packed);
        pool.expand_in(&sizes, 0usize, |i, region| region.fill(i), &mut expanded);
        pool.map_collect_in(0..4096, |i| i as u64, &mut mapped);
        assert_eq!(total, 4095 * 4096 / 2);
        assert_eq!(packed.len(), 2048);
        assert_eq!(expanded.len(), sizes.iter().sum::<usize>());
        assert_eq!(mapped, input);
        assert_eq!(pool.metrics().forks(), 0);
        assert_eq!(pool.pool.stats(), before, "no job reached the runtime");

        // The same scan on a pinned-grain pool does fork and does reach
        // the runtime: the floor, not the input, kept it idle above.
        let pinned = PalPool::builder().processors(2).grain(256).build().unwrap();
        pinned.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
        assert_eq!(pinned.metrics().forks(), 2 * 7);
        let ran = pinned.pool.stats();
        assert!(ran.stolen + ran.inlined > 0);
    }

    #[test]
    fn trace_buffer_overflow_drops_and_counts() {
        let pool = PalPool::builder()
            .processors(1)
            .trace(TraceConfig {
                capacity_per_worker: 4,
            })
            .build()
            .unwrap();
        for _ in 0..16 {
            pool.join(|| (), || ());
        }
        let trace = pool.take_trace().unwrap();
        assert!(!trace.is_complete());
        assert_eq!(trace.events.len() as u64 + trace.dropped, 16);
        // The pool itself is unaffected.
        assert_eq!(pool.metrics().elided(), 16);
    }

    #[test]
    fn sequential_pool_has_one_processor() {
        let pool = PalPool::sequential();
        assert_eq!(pool.processors(), 1);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }
}
