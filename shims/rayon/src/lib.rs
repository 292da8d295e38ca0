//! Minimal, API-compatible shim for the subset of [`rayon`] this workspace
//! uses — [`ThreadPool`] (via [`ThreadPoolBuilder`]) with [`ThreadPool::join`]
//! and [`ThreadPool::install`], plus the free [`join`] function — implemented
//! as a genuine bounded **work-stealing** runtime (the build container has no
//! network access, so the real crate cannot be fetched).  `join` is the one
//! fork primitive: every multi-way fork above this crate is a tree of
//! `join`s.
//!
//! # Scheduling rule
//!
//! A pool owns exactly `num_threads` persistent worker threads, created once
//! at [`ThreadPoolBuilder::build`] time and reused for every task (no OS
//! thread is ever spawned per fork).  Each worker owns a **lock-free
//! Chase–Lev deque** of pending tasks (see [`deque`] for the algorithm and
//! its memory-ordering argument), and the pool keeps one shared injector
//! queue for work arriving from threads outside the pool:
//!
//! * **fork** — `join(a, b)` on a worker pushes `b` onto the *bottom*
//!   (newest end) of the worker's own deque as a *pending* task and runs `a`
//!   directly.  The pending task is not committed to anyone: it stays
//!   available until a processor actually executes it.  The fork itself is
//!   **allocation-free**: the job, its result slot and its completion latch
//!   all live in one stack frame of the forking worker (`StackJob`); no
//!   `Box`, no `Arc`, no mutex is touched.
//! * **steal** — an idle worker takes the *oldest* pending task first: the
//!   front of the injector, then the *top* of another worker's deque.  This
//!   is the LoPRAM §3.1 rule that pending pal-threads are activated "in a
//!   manner consistent with order of creation as resources become
//!   available".
//! * **join, help-first** — when the forking worker finishes `a` it pops its
//!   own deque.  If the popped task is `b` (nobody stole it), `b` runs
//!   inline without ever touching its latch — the un-stolen fork costs a
//!   push, a pop and two pointer compares on top of a plain call.  If the
//!   pop returns another pending task this worker created (an older fork
//!   of an enclosing join, once `b` migrated), the worker executes it (it
//!   is that task's creator, so this is still the §3.1 run-inline rule).
//!   Once the deque is empty, `b` was stolen: the worker does not park — it
//!   executes other pending tasks while polling `b`'s latch, so a blocked
//!   parent is still a useful processor.
//!
//! # Sleeping and waking
//!
//! Idle workers do not spin and are not herded through one condvar.  A
//! worker with nothing to do publishes itself in a **sleep bitmap** (a
//! `SleepSet`: one `AtomicU64` word per 64 workers, bit *i* mod 64 of
//! word *i* / 64 = worker *i* is parked), re-checks the queues (so a
//! push racing with the announcement is never lost past one
//! `IDLE_POLL`), and parks with a timeout.  Every push wakes **exactly
//! one** sleeper: the pusher claims a set bit with a `fetch_and` and
//! unparks only that worker — waking all `p − 1` sleepers for a single new
//! task (the old `notify_all` thundering herd) cannot happen.  A worker
//! that is deliberately woken but finds no task (another worker got there
//! first) increments the `spurious_wakeups` counter in [`PoolStats`].
//! Completion latches unpark their single owner thread directly.
//!
//! # Fixed processors and chaos
//!
//! The pool has a fixed number of processors, as the LoPRAM does: a worker
//! leaves its loop only when the pool is dropped.  Every job runs under
//! `catch_unwind` and its panic travels to the joiner, so user code cannot
//! take a worker down with it.
//!
//! Deterministic scheduler-level
//! faults can be injected with a [`ChaosConfig`] on the builder: drop or
//! delay a chosen wake-up notification, or force extra steal-retry rounds
//! — the *rule* deciding where each fault fires is a pure function of the
//! configuration (and, via [`ChaosConfig::seeded`], of one seed), so a
//! failure replays exactly under the same schedule.  Every park — a
//! worker's and an external caller's latch wait alike — is bounded by
//! `IDLE_POLL`, so a lost or dropped wake-up costs latency, never
//! liveness.
//!
//! Calls from threads that are not pool workers (`install`, `join`) ship
//! the work into the pool and block the calling thread; the `num_threads`
//! workers are therefore the *only* processors, which is what lets `PalPool`
//! in `lopram-core` model a LoPRAM with exactly `p` processors.
//!
//! The pool counts every completed fork in [`PoolStats`]: `stolen` (taken
//! from another worker's deque — the task migrated to a processor that
//! freed up) or `inlined` (popped back and executed by the thread that
//! created it).  The only job that travels through the shared injector is
//! the `install` trampoline that carries an external call in; it is not a
//! fork and is not counted.  `lopram-core` forwards these to its
//! `RunMetrics` so experiments can observe the paper's Figure 2 cutoff on
//! the real pool.
//!
//! Guarantees relied on by the workspace:
//!
//! * at most `num_threads` tasks of a pool execute concurrently;
//! * `join` blocks until both forked tasks finished, so borrowing the
//!   enclosing stack is safe;
//! * panics in forked tasks propagate to the forking caller;
//! * a pool with one thread degenerates to sequential execution in creation
//!   order.
//!
//! [`rayon`]: https://docs.rs/rayon

pub mod deque;

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use deque::Steal;

/// How long an idle or latch-waiting thread parks before re-polling the
/// deques when no wake-up arrives.  All parks — worker *and* external — are
/// bounded by this, so a lost (or chaos-dropped) wake-up costs latency,
/// never a deadlock.
const IDLE_POLL: Duration = Duration::from_micros(500);

/// Lock a mutex, ignoring poisoning (tasks catch their own panics, but be
/// defensive: a poisoned queue is still a valid queue).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// SleepSet: multi-word sleep bitmap addressing any number of workers.
// ---------------------------------------------------------------------------

/// The sleep bitmap of a pool: bit `i % 64` of word `i / 64` is set while
/// worker `i` is announcing a park.  One `AtomicU64` word covers 64 workers;
/// the set allocates `ceil(threads / 64)` words, so **every** worker — not
/// just the first 64 — can receive a deliberate one-sleeper wake-up.
/// (Previously a single word left workers with `index >= 64` reachable only
/// through the `IDLE_POLL` timeout.)
struct SleepSet {
    words: Box<[AtomicU64]>,
}

impl SleepSet {
    fn new(threads: usize) -> Self {
        let words = threads.div_ceil(u64::BITS as usize).max(1);
        SleepSet {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Announce worker `index` as parking (publish its bit).
    fn announce(&self, index: usize) {
        let bit = 1u64 << (index % 64);
        self.words[index / 64].fetch_or(bit, Ordering::SeqCst);
    }

    /// Withdraw worker `index`'s announcement.  Returns `true` when the bit
    /// was already gone — i.e. a notifier claimed it, making the wake-up
    /// deliberate.
    fn retract(&self, index: usize) -> bool {
        let bit = 1u64 << (index % 64);
        self.words[index / 64].fetch_and(!bit, Ordering::SeqCst) & bit == 0
    }

    /// Claim exactly one announced sleeper, if any; the caller becomes the
    /// only notifier allowed to unpark that worker.
    fn claim_one(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            loop {
                let map = word.load(Ordering::SeqCst);
                if map == 0 {
                    break;
                }
                let index = map.trailing_zeros() as usize;
                let bit = 1u64 << index;
                if word.fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
                    return Some(w * 64 + index);
                }
                // Lost the race for this bit; rescan the word.
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Chaos: deterministic scheduler faults.
// ---------------------------------------------------------------------------

/// Deterministic scheduler-fault injection, set on
/// [`ThreadPoolBuilder::chaos`].  Every trigger rule below is a pure
/// function of this configuration — no clock, no RNG at fire time — so the
/// same config over the same schedule fires the same faults.  (Which
/// schedule *occurs* still depends on real thread interleaving; the
/// determinism contract is about the rule, not the interleaving.)  Every
/// fault costs latency, never a result: no worker ever stops.
///
/// The default configuration fires nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Drop the n-th deliberate wake-up (1-based; 0 = never): the claimed
    /// sleeper is *not* unparked.  Safe by construction — worker parks are
    /// bounded by `IDLE_POLL`, so the victim recovers on its next poll; the
    /// fault costs latency and is visible in `PoolStats::dropped_wakeups`.
    pub drop_wakeup_nth: u64,
    /// Delay the n-th deliberate wake-up (1-based; 0 = never) by spinning
    /// ~50µs before the unpark.
    pub delay_wakeup_nth: u64,
    /// Before each steal attempt, spin through this many forced retry
    /// rounds (as if the victim's deque kept reporting `Steal::Retry`).
    pub steal_retries: u32,
}

impl ChaosConfig {
    /// A configuration that fires nothing (same as `Default`).
    pub fn none() -> Self {
        ChaosConfig::default()
    }

    /// Derive a full fault mix from one seed — a pure function (splitmix64
    /// over the seed), so a seed observed to break something replays
    /// exactly.  Always drops one wake-up and delays one; the steal-retry
    /// rounds (0–3) vary with the seed.
    pub fn seeded(seed: u64) -> Self {
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        ChaosConfig {
            drop_wakeup_nth: 1 + mix(seed ^ 2) % 32,
            delay_wakeup_nth: 1 + mix(seed ^ 3) % 32,
            steal_retries: (mix(seed ^ 4) % 4) as u32,
        }
    }

    /// Drop the `nth` (1-based) deliberate wake-up notification.
    pub fn drop_wakeup(mut self, nth: u64) -> Self {
        self.drop_wakeup_nth = nth;
        self
    }

    /// Delay the `nth` (1-based) deliberate wake-up notification.
    pub fn delay_wakeup(mut self, nth: u64) -> Self {
        self.delay_wakeup_nth = nth;
        self
    }

    /// Force `rounds` spin retries before every steal attempt.
    pub fn force_steal_retries(mut self, rounds: u32) -> Self {
        self.steal_retries = rounds;
        self
    }
}

// ---------------------------------------------------------------------------
// Latch: one-shot completion flag that unparks its single owner thread.
// ---------------------------------------------------------------------------

/// A one-shot completion latch: an atomic flag plus the handle of the one
/// thread that waits on it.  No mutex, no condvar, no allocation — a
/// [`Thread`] clone is a reference-count bump.
struct WakeLatch {
    state: AtomicUsize,
    /// The waiting thread (the latch's creator); unparked on `set`.
    owner: Thread,
}

impl WakeLatch {
    fn new() -> Self {
        WakeLatch {
            state: AtomicUsize::new(0),
            owner: thread::current(),
        }
    }

    /// `true` once set.  The `Acquire` load pairs with the `Release` store
    /// in [`WakeLatch::set_raw`], ordering the job's result write before the
    /// waiter's read.
    fn probe(&self) -> bool {
        self.state.load(Ordering::Acquire) != 0
    }

    /// Set the latch and wake its owner.
    ///
    /// # Safety
    /// `this` must point to a live latch.  The moment the `Release` store
    /// lands, the owner may observe it and free the latch's memory (it
    /// usually lives in a `StackJob` stack frame), so the owner handle is
    /// cloned out *first* and nothing behind `this` is touched afterwards.
    #[allow(unsafe_code)]
    unsafe fn set_raw(this: *const WakeLatch) {
        // SAFETY: the caller guarantees `this` is live until the store
        // below, and nothing behind it is read after the store.  Exercised
        // on every stolen fork: `idle_worker_steals_pending_fork`, and
        // `nested_join_stress` in `lopram-core`'s `runtime_stress.rs`.
        let owner = (*this).owner.clone();
        (*this).state.store(1, Ordering::Release);
        // Self-unparks (setting a job one's own latch while inlining an
        // enclosing fork) would leave a stray park token; skip them.
        if owner.id() != thread::current().id() {
            owner.unpark();
        }
    }

    /// Block until set — for non-worker threads, which are not processors
    /// and execute no pool work.  The owner's unpark token makes the
    /// set-before-park race benign; the park is bounded by `IDLE_POLL` all
    /// the same, like every park in the pool.
    fn wait(&self) {
        while !self.probe() {
            thread::park_timeout(IDLE_POLL);
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs: type-erased pending tasks living in the deques.
// ---------------------------------------------------------------------------

/// A type-erased pointer to a pending task.
///
/// `data` points at a `StackJob` on the creator's stack, kept alive because
/// the creator blocks until the job's latch is set (or runs the job itself).
struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the pointed-to StackJob
// is kept alive until its completion latch is set.  The closures inside
// are `Send` by the public API bounds.  Every cross-thread hand-over —
// a steal (`idle_worker_steals_pending_fork`) and an `install` through the
// injector (`install_bounds_the_free_join`) — is tested.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

/// A fork/join or `install` task whose closure, result slot **and
/// completion latch** live on the creating thread's stack — the fork fast
/// path allocates nothing.  The creator never returns before the latch is
/// set (or before running the job itself), so the raw pointer handed out
/// via [`StackJob::as_job_ref`] stays valid for the job's whole life.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    latch: WakeLatch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R,
{
    fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            latch: WakeLatch::new(),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast::<()>(),
            execute_fn: execute_stack::<F, R>,
        }
    }

    /// Run the job on the creating thread itself (the un-stolen fast path).
    /// Skips the latch entirely: completion is synchronous.
    ///
    /// # Safety
    /// Must only be called by the creator, after popping the job's
    /// [`JobRef`] back so no other thread can execute it.
    #[allow(unsafe_code)]
    unsafe fn run_inline(&self) {
        // SAFETY: the caller popped the only JobRef to this job, so this
        // thread has exclusive access to `func` and `result`.  Pinned by
        // `deep_unbalanced_recursion_grows_the_deque` (300 inline runs).
        let func = (*self.func.get())
            .take()
            .expect("job executed exactly once");
        let result = catch_unwind(AssertUnwindSafe(func));
        *self.result.get() = Some(result);
    }

    /// Take the result after the latch has been set (or after executing the
    /// job on this very thread).
    ///
    /// # Safety
    /// Must only be called once, after the job ran to completion; the
    /// latch's release/acquire pair (or same-thread execution) provides the
    /// necessary happens-before edge.
    #[allow(unsafe_code)]
    unsafe fn take_result(&self) -> thread::Result<R> {
        // SAFETY: the job finished and nothing else touches `result` any
        // more (the caller's contract); the panic paths of
        // `pool_join_propagates_child_panic_and_stays_usable` read it too.
        (*self.result.get())
            .take()
            .expect("job executed exactly once")
    }
}

/// Execute a `StackJob` on a thread other than its creator.  Setting the
/// latch is the executor's last touch of the creator's stack memory (see
/// [`WakeLatch::set_raw`]).
#[allow(unsafe_code)]
unsafe fn execute_stack<F, R>(data: *const ())
where
    F: FnOnce() -> R,
{
    // SAFETY: `data` came from `StackJob::as_job_ref` for this very `F`
    // and `R`, the creator keeps the job alive until the latch is set, and
    // the JobRef was taken from exactly one queue, so this is its only
    // execution.  Pinned by `idle_worker_steals_pending_fork` (a steal)
    // and `install_bounds_the_free_join` (an injected trampoline).
    let job = data.cast::<StackJob<F, R>>();
    let func = (*(*job).func.get())
        .take()
        .expect("job executed exactly once");
    let result = catch_unwind(AssertUnwindSafe(func));
    *(*job).result.get() = Some(result);
    // After `set_raw` the creator may deallocate the job; touch nothing of it.
    WakeLatch::set_raw(&raw const (*job).latch);
}

// ---------------------------------------------------------------------------
// Registry: the shared state of one pool — stealers, injector, sleep bitmap.
// ---------------------------------------------------------------------------

/// Where a pending task was taken from, deciding its [`PoolStats`]
/// attribution.
#[derive(Clone, Copy)]
enum TaskSource {
    /// Popped back off the executing worker's own deque: the fork was never
    /// taken by anyone else and runs inline in its creator.
    Own,
    /// Taken from another worker's deque: a genuine steal — the task
    /// migrated to a processor that freed up after its creation.
    Theft,
    /// Taken from the shared injector: the `install` trampoline a
    /// non-worker thread shipped in.  Not a fork, so not counted.
    Injector,
}

struct Registry {
    threads: usize,
    /// Thief handles onto every worker's Chase–Lev deque; thieves take the
    /// **oldest** pending task of a victim first (deque top).
    stealers: Vec<deque::Stealer<JobRef>>,
    /// Work arriving from threads outside the pool; drained oldest-first.
    /// Mutexed: this is the cold path (one lock per external call, never
    /// per fork).
    injector: Mutex<VecDeque<JobRef>>,
    /// Bit `i` set ⇔ worker `i` announced it is parking.  Pushers claim one
    /// bit and unpark exactly that worker.
    sleep: SleepSet,
    /// Unpark handles of the workers, each set once by its worker before
    /// the worker first announces a park.
    handles: Vec<OnceLock<Thread>>,
    terminate: AtomicBool,
    /// Tasks stolen from another worker's deque (migrations).
    stolen: AtomicU64,
    /// Tasks popped back and executed by the thread that created them.
    inlined: AtomicU64,
    /// Deliberate wake-ups that found no task to run (another worker got
    /// there first).
    spurious: AtomicU64,
    chaos: ChaosConfig,
    /// Sequence number of deliberate wake-ups, driving the chaos
    /// drop/delay-nth rules.  Only advanced while chaos is active.
    wakeup_seq: AtomicU64,
    dropped_wakeups: AtomicU64,
    delayed_wakeups: AtomicU64,
    forced_steal_retries: AtomicU64,
}

/// Everything a worker thread needs: the shared registry, its index, and
/// the owner end of its deque.  Lives in a thread-local `Rc` so nested
/// joins can clone it out cheaply without holding a `RefCell` borrow
/// across user code.
struct WorkerCtx {
    registry: Arc<Registry>,
    index: usize,
    worker: deque::Worker<JobRef>,
}

thread_local! {
    /// The worker context of this thread, if it is a pool worker.
    static WORKER: RefCell<Option<Rc<WorkerCtx>>> = const { RefCell::new(None) };
}

/// This thread's worker context within `registry`, if any.
fn current_worker_in(registry: &Arc<Registry>) -> Option<Rc<WorkerCtx>> {
    WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .filter(|ctx| Arc::ptr_eq(&ctx.registry, registry))
            .map(Rc::clone)
    })
}

impl Registry {
    /// Wake exactly one parked worker, if any — the replacement for the old
    /// `notify_all` thundering herd.  The `SeqCst` fence pairs with the
    /// sleeper's `fetch_or`: either the pusher sees the sleeper's bit, or
    /// the sleeper's post-announcement queue re-check sees the pushed task.
    ///
    /// With chaos active, the n-th deliberate wake-up can be dropped (the
    /// claimed sleeper is not unparked — it recovers at its next
    /// `IDLE_POLL`) or delayed.
    fn notify_one(&self) {
        fence(Ordering::SeqCst);
        let Some(index) = self.sleep.claim_one() else {
            return;
        };
        // Claimed: we are the only notifier that unparks this worker.
        if self.chaos.drop_wakeup_nth != 0 || self.chaos.delay_wakeup_nth != 0 {
            let nth = self.wakeup_seq.fetch_add(1, Ordering::Relaxed) + 1;
            if self.chaos.drop_wakeup_nth == nth {
                self.dropped_wakeups.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if self.chaos.delay_wakeup_nth == nth {
                self.delayed_wakeups.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                while start.elapsed() < Duration::from_micros(50) {
                    std::hint::spin_loop();
                }
            }
        }
        self.unpark_worker(index);
    }

    fn unpark_worker(&self, index: usize) {
        if let Some(thread) = self.handles[index].get() {
            thread.unpark();
        }
    }

    fn inject(&self, job: JobRef) {
        lock(&self.injector).push_back(job);
        self.notify_one();
    }

    /// Execute a job, attributing it in the pool statistics.
    ///
    /// Never unwinds: a job catches its own panic and reports it through
    /// its result slot, so helping loops survive task failures.
    #[allow(unsafe_code)]
    fn execute(&self, job: JobRef, source: TaskSource) {
        match source {
            TaskSource::Own => {
                self.inlined.fetch_add(1, Ordering::Relaxed);
            }
            TaskSource::Theft => {
                self.stolen.fetch_add(1, Ordering::Relaxed);
            }
            // The `install` trampoline is not a fork.
            TaskSource::Injector => {}
        }
        // SAFETY: `job` was just taken from a deque or the injector, which
        // hand each JobRef to exactly one taker, and its creator blocks
        // until the latch is set — `execute_stack`'s contract.  The exact
        // fork counts of `spurious_wakeups_are_counted_not_hidden` (1023)
        // and `seeded_chaos_pool_completes_fork_trees_exactly` (511) show
        // every job ran once.
        unsafe { (job.execute_fn)(job.data) }
    }
}

impl WorkerCtx {
    /// Take one pending task.  Priority: own deque bottom (newest — the
    /// cache-warm fast path for popping one's own fork back), then the
    /// injector front, then the other workers' tops — i.e. thieves always
    /// take the **oldest** pending task of a victim first.
    fn find_job(&self) -> Option<(JobRef, TaskSource)> {
        if let Some(job) = self.worker.pop() {
            return Some((job, TaskSource::Own));
        }
        if let Some(job) = lock(&self.registry.injector).pop_front() {
            return Some((job, TaskSource::Injector));
        }
        for offset in 1..self.registry.threads {
            let victim = (self.index + offset) % self.registry.threads;
            if self.registry.chaos.steal_retries != 0 {
                // Chaos: behave as if the victim reported `Steal::Retry`
                // this many times before the real attempt.
                self.registry.forced_steal_retries.fetch_add(
                    u64::from(self.registry.chaos.steal_retries),
                    Ordering::Relaxed,
                );
                for _ in 0..self.registry.chaos.steal_retries {
                    std::hint::spin_loop();
                }
            }
            loop {
                match self.registry.stealers[victim].steal() {
                    Steal::Success(job) => return Some((job, TaskSource::Theft)),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Announce this worker in the sleep bitmap, re-check the queues, and
    /// park (bounded by `IDLE_POLL`).  Returns `true` when the wake was a
    /// deliberate notification (our bit was claimed by someone else).
    fn park_idle(&self) -> bool {
        let registry = &self.registry;
        registry.sleep.announce(self.index);
        // Dekker re-check: a task pushed before our bit became visible was
        // notified to nobody; look once more before actually sleeping.
        if let Some((job, source)) = self.find_job() {
            registry.sleep.retract(self.index);
            registry.execute(job, source);
            return false;
        }
        thread::park_timeout(IDLE_POLL);
        registry.sleep.retract(self.index)
    }

    /// Help-first wait: execute pending tasks until `latch` is set.  This is
    /// what a worker blocked on a stolen fork does instead of parking.
    fn wait_help(&self, latch: &WakeLatch) {
        loop {
            if latch.probe() {
                return;
            }
            match self.find_job() {
                Some((job, source)) => self.registry.execute(job, source),
                // Nothing to help with: park briefly.  The latch owner is
                // this thread, so the latch setter unparks us directly; new
                // pushes can claim us through the sleep bitmap.
                None => {
                    self.park_idle();
                }
            }
        }
    }
}

/// A worker's loop: run pending tasks, park when there are none, and
/// return only once the pool is dropped.
fn worker_main(registry: Arc<Registry>, index: usize, worker: deque::Worker<JobRef>) {
    registry.handles[index]
        .set(thread::current())
        .expect("each worker sets its own handle once");
    let ctx = Rc::new(WorkerCtx {
        registry,
        index,
        worker,
    });
    WORKER.with(|w| *w.borrow_mut() = Some(Rc::clone(&ctx)));
    let mut notified = false;
    loop {
        if ctx.registry.terminate.load(Ordering::Acquire) {
            break;
        }
        match ctx.find_job() {
            Some((job, source)) => {
                notified = false;
                ctx.registry.execute(job, source);
            }
            None => {
                if notified {
                    // Deliberately woken, yet the task was already gone.
                    ctx.registry.spurious.fetch_add(1, Ordering::Relaxed);
                }
                notified = ctx.park_idle();
            }
        }
    }
}

/// Create a registry plus its `threads` persistent workers.  The deques are
/// created first (so every stealer exists before any worker runs), then
/// each worker thread takes ownership of its deque's owner end.
fn build_registry(
    threads: usize,
    mut name_fn: Box<dyn FnMut(usize) -> String>,
    chaos: ChaosConfig,
) -> (Arc<Registry>, Vec<thread::JoinHandle<()>>) {
    let mut owners = Vec::with_capacity(threads);
    let mut stealers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (worker, stealer) = deque::deque::<JobRef>();
        owners.push(worker);
        stealers.push(stealer);
    }
    let registry = Arc::new(Registry {
        threads,
        stealers,
        injector: Mutex::new(VecDeque::new()),
        sleep: SleepSet::new(threads),
        handles: (0..threads).map(|_| OnceLock::new()).collect(),
        terminate: AtomicBool::new(false),
        stolen: AtomicU64::new(0),
        inlined: AtomicU64::new(0),
        spurious: AtomicU64::new(0),
        chaos,
        wakeup_seq: AtomicU64::new(0),
        dropped_wakeups: AtomicU64::new(0),
        delayed_wakeups: AtomicU64::new(0),
        forced_steal_retries: AtomicU64::new(0),
    });
    let handles = owners
        .into_iter()
        .enumerate()
        .map(|(index, worker)| {
            let registry = Arc::clone(&registry);
            thread::Builder::new()
                .name(name_fn(index))
                .spawn(move || worker_main(registry, index, worker))
                .expect("failed to spawn pool worker thread")
        })
        .collect();
    (registry, handles)
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// The worker-side join: fork `b` as a pending task, run `a`, then take `b`
/// back (inline, latch-free) or help until the thief finishes it.
fn join_worker<A, B, RA, RB>(ctx: &WorkerCtx, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(oper_b);
    let job_ref = job_b.as_job_ref();
    let b_data = job_ref.data;
    ctx.worker.push(job_ref);
    ctx.registry.notify_one();

    let result_a = catch_unwind(AssertUnwindSafe(oper_a));

    // Everything in our deque was pushed by this thread, and join forks pop
    // in LIFO stack discipline (each consumed by its own join before `a`
    // returns).  So a pop here yields `b` itself or — once `b` migrated —
    // an older pending fork of an enclosing join on this very stack.  Both
    // are ours to execute; only `b` (matched by pointer identity) takes the
    // latch-free inline path.
    let mut b_ran_inline = false;
    loop {
        match ctx.worker.pop() {
            Some(job) if ptr::eq(job.data, b_data) => {
                // Nobody freed up in time: the creating processor runs b
                // itself, synchronously — no latch, no wake-up.
                ctx.registry.inlined.fetch_add(1, Ordering::Relaxed);
                // SAFETY: we are `job_b`'s creator and just popped its only
                // JobRef (matched by pointer), so no thief can run it.
                // Pinned by `deep_unbalanced_recursion_grows_the_deque` and
                // `stats_split_between_stolen_and_inlined`.
                #[allow(unsafe_code)]
                unsafe {
                    job_b.run_inline()
                };
                b_ran_inline = true;
                break;
            }
            // An older pending fork of an enclosing join we created: running
            // it here is the same §3.1 "no free processor ⇒ creator runs it" rule.
            Some(job) => ctx.registry.execute(job, TaskSource::Own),
            // b migrated to (or is executing on) another processor.
            None => break,
        }
    }
    if !b_ran_inline {
        // Help with other pending work until b's latch is set.  Even if `a`
        // panicked we must wait — b may borrow the enclosing stack.
        ctx.wait_help(&job_b.latch);
    }

    // SAFETY: b has run to completion on some thread (inline above, or latch
    // observed set), with a release/acquire edge ordering its result write
    // before us.  Pinned on both paths by `idle_worker_steals_pending_fork`
    // (stolen) and `pool_join_propagates_child_panic_and_stays_usable`.
    #[allow(unsafe_code)]
    let result_b = unsafe { job_b.take_result() };

    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => resume_unwind(payload),
        (_, Err(payload)) => resume_unwind(payload),
    }
}

/// Ship `op` into the pool and block until it completes, or run it directly
/// when the calling thread already is a worker of this pool.
fn install_in<OP, R>(registry: &Arc<Registry>, op: OP) -> R
where
    OP: FnOnce() -> R + Send,
    R: Send,
{
    if current_worker_in(registry).is_some() {
        return op();
    }
    let job = StackJob::new(op);
    registry.inject(job.as_job_ref());
    // Non-workers are not processors: park instead of stealing.
    job.latch.wait();
    // SAFETY: latch set ⇒ the job ran and wrote its result, ordered before
    // us by the latch's release/acquire pair.  Pinned by
    // `install_bounds_the_free_join` and `nested_pools_do_not_interfere`.
    #[allow(unsafe_code)]
    match unsafe { job.take_result() } {
        Ok(result) => result,
        Err(payload) => resume_unwind(payload),
    }
}

fn join_in<A, B, RA, RB>(registry: &Arc<Registry>, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_worker_in(registry) {
        Some(ctx) => join_worker(&ctx, oper_a, oper_b),
        None => install_in(registry, move || {
            let ctx = current_worker_in(registry).expect("the install trampoline runs on a worker");
            join_worker(&ctx, oper_a, oper_b)
        }),
    }
}

/// The global registry backing the free [`join`] when called outside any
/// pool, sized to the host's parallelism like rayon's global pool.  Its
/// workers are leaked (never joined), again like the real crate.
fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let (registry, handles) = build_registry(
            default_parallelism(),
            Box::new(|i| format!("rayon-global-{i}")),
            ChaosConfig::default(),
        );
        drop(handles);
        registry
    })
}

fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Execute `oper_a` and `oper_b`, potentially in parallel, and return both
/// results — the shim of `rayon::join`.
///
/// On a pool worker thread this forks within that worker's pool; elsewhere
/// it uses a host-sized global pool.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let current = WORKER.with(|w| w.borrow().clone());
    match current {
        Some(ctx) => join_worker(&ctx, oper_a, oper_b),
        None => join_in(global_registry(), oper_a, oper_b),
    }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

/// Scheduling counters of a [`ThreadPool`]; see [`ThreadPool::stats`].
///
/// Every completed fork is counted exactly once, as `stolen` or
/// `inlined`: a fork's pending half is only ever pushed onto its creator's
/// deque, so it is either popped back by the creator or taken by a thief.
/// The `install` trampoline that carries an external call in goes through
/// the shared injector instead; it is not a fork and is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pending tasks taken from another worker's deque — each is one
    /// successful steal, i.e. one pal-thread that migrated to a processor
    /// that freed up after the task's creation.
    pub stolen: u64,
    /// Pending tasks popped back and executed by the thread that created
    /// them (the fork was never taken by anyone else).
    pub inlined: u64,
    /// Deliberate worker wake-ups that found no pending task (the task was
    /// claimed by another processor first).  With one-sleeper-per-push
    /// waking this stays near zero; the old `notify_all` herd would have
    /// counted nearly `p − 1` of these per fork.
    pub spurious_wakeups: u64,
    /// Deliberate wake-up notifications dropped by a chaos fault.
    pub dropped_wakeups: u64,
    /// Deliberate wake-up notifications delayed by a chaos fault.
    pub delayed_wakeups: u64,
    /// Steal-retry rounds forced by a chaos fault.
    pub forced_steal_retries: u64,
}

/// A bounded work-stealing fork/join pool — the shim of `rayon::ThreadPool`.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Index of the calling thread within this pool's workers, or `None`
    /// when the caller is not one of this pool's workers (external threads
    /// and workers of *other* pools both report `None`).  Mirrors
    /// `rayon::ThreadPool::current_thread_index`.
    pub fn current_thread_index(&self) -> Option<usize> {
        current_worker_in(&self.registry).map(|ctx| ctx.index)
    }

    /// Snapshot of this pool's scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            stolen: self.registry.stolen.load(Ordering::Relaxed),
            inlined: self.registry.inlined.load(Ordering::Relaxed),
            spurious_wakeups: self.registry.spurious.load(Ordering::Relaxed),
            dropped_wakeups: self.registry.dropped_wakeups.load(Ordering::Relaxed),
            delayed_wakeups: self.registry.delayed_wakeups.load(Ordering::Relaxed),
            forced_steal_retries: self.registry.forced_steal_retries.load(Ordering::Relaxed),
        }
    }

    /// Run two closures, potentially in parallel on this pool; see [`join`].
    ///
    /// Called from outside the pool this blocks the caller and runs both
    /// closures on pool workers; called from a worker it forks in place.
    pub fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        join_in(&self.registry, oper_a, oper_b)
    }

    /// Execute `op` within the pool: on a worker thread, with nested calls
    /// to the free [`join`] bounded by this pool.  Blocks the caller until
    /// `op` returns.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        install_in(&self.registry, op)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Every public entry point waits for its tasks before returning, so
        // the deques are empty here; wake everyone so the workers observe
        // the flag promptly (parked or not, IDLE_POLL bounds the wait).
        self.registry.terminate.store(true, Ordering::Release);
        for handle in &self.registry.handles {
            if let Some(thread) = handle.get() {
                thread.unpark();
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.registry.threads)
            .finish_non_exhaustive()
    }
}

/// Builder for [`ThreadPool`] — the shim of `rayon::ThreadPoolBuilder`.
/// The chaos knob ([`ThreadPoolBuilder::chaos`]) is an extension of this
/// shim, not part of the real crate's API.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
    thread_name: Option<Box<dyn FnMut(usize) -> String>>,
    chaos: ChaosConfig,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Use exactly `num_threads` worker threads (0 means the host's
    /// parallelism).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Name the persistent worker threads (applied at build time; workers
    /// are created once, not per fork).
    pub fn thread_name<F>(mut self, name_fn: F) -> Self
    where
        F: FnMut(usize) -> String + 'static,
    {
        self.thread_name = Some(Box::new(name_fn));
        self
    }

    /// Inject deterministic scheduler faults; see [`ChaosConfig`].
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Build the pool, spawning its persistent workers.  Never fails in
    /// this shim; the `Result` mirrors the real crate's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_parallelism()
        } else {
            self.num_threads
        };
        let name_fn = self
            .thread_name
            .unwrap_or_else(|| Box::new(|i| format!("rayon-worker-{i}")));
        let (registry, handles) = build_registry(threads, name_fn, self.chaos);
        Ok(ThreadPool { registry, handles })
    }
}

impl fmt::Debug for ThreadPoolBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPoolBuilder")
            .field("num_threads", &self.num_threads)
            .finish_non_exhaustive()
    }
}

/// Error building a [`ThreadPool`]; never produced by this shim.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn free_join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "abc".len());
        assert_eq!((a, b), (2, 3));
    }

    #[test]
    fn pool_join_recursive_sum() {
        fn sum(pool: &ThreadPool, data: &[u64]) -> u64 {
            if data.len() <= 4 {
                return data.iter().sum();
            }
            let (lo, hi) = data.split_at(data.len() / 2);
            let (a, b) = pool.join(|| sum(pool, lo), || sum(pool, hi));
            a + b
        }
        let data: Vec<u64> = (0..1024).collect();
        for p in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(p).build().unwrap();
            assert_eq!(sum(&pool, &data), 1023 * 1024 / 2, "p = {p}");
        }
    }

    #[test]
    fn workers_are_created_once_and_reused() {
        // The acceptance property for the runtime rewrite: many forks, yet
        // every closure runs on one of the p persistent workers — no
        // per-fork OS thread is ever spawned.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let ids = Mutex::new(HashSet::new());
        fn fanout(pool: &ThreadPool, depth: usize, ids: &Mutex<HashSet<thread::ThreadId>>) {
            ids.lock().unwrap().insert(thread::current().id());
            if depth == 0 {
                return;
            }
            pool.join(
                || fanout(pool, depth - 1, ids),
                || fanout(pool, depth - 1, ids),
            );
        }
        // Run entirely inside the pool so only worker threads are recorded
        // (the external caller parks; it is not a processor).
        pool.install(|| fanout(&pool, 7, &ids)); // 255 forks
        let distinct = ids.lock().unwrap().len();
        assert!(
            distinct <= 3,
            "{distinct} distinct threads executed tasks of a 3-worker pool"
        );
    }

    #[test]
    fn worker_threads_carry_the_builder_name() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .thread_name(|i| format!("shim-test-{i}"))
            .build()
            .unwrap();
        let name = pool.install(|| thread::current().name().map(str::to_owned));
        assert!(name.unwrap().starts_with("shim-test-"));
    }

    #[test]
    fn idle_worker_steals_pending_fork() {
        // p = 2: the forking worker blocks inside `a` until the other worker
        // has stolen and executed the pending `b` — the migration property.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let released = AtomicBool::new(false);
        pool.join(
            || {
                let start = Instant::now();
                while !released.load(Ordering::Acquire) {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "pending fork was never stolen by the idle worker"
                    );
                    thread::sleep(Duration::from_millis(1));
                }
            },
            || released.store(true, Ordering::Release),
        );
        assert!(pool.stats().stolen >= 1);
    }

    #[test]
    fn stats_split_between_stolen_and_inlined() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.join(|| (), || ());
        pool.join(|| (), || ());
        let stats = pool.stats();
        // One worker: forks are always popped back by their creator.
        assert_eq!(stats.stolen, 0);
        assert_eq!(stats.inlined, 2);
    }

    #[test]
    fn deep_unbalanced_recursion_grows_the_deque() {
        // Each level parks one pending fork and recurses in `a`, so a
        // 1-worker pool accumulates `depth` pending tasks on a single deque
        // — several buffer growths past the initial capacity.  Everything
        // must come back inline, in LIFO order, with nothing lost.
        fn chain(pool: &ThreadPool, depth: usize, count: &AtomicUsize) {
            if depth == 0 {
                return;
            }
            pool.join(
                || chain(pool, depth - 1, count),
                || {
                    count.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let count = AtomicUsize::new(0);
        pool.install(|| chain(&pool, 300, &count));
        assert_eq!(count.load(Ordering::Relaxed), 300);
        assert_eq!(pool.stats().inlined, 300);
    }

    #[test]
    fn spurious_wakeups_are_counted_not_hidden() {
        // With one-sleeper-per-push waking, deliberate wake-ups that find
        // no work are rare (measured 0-1 per thousand forks on a loaded
        // 1-CPU host).  A notify_all-style herd would produce up to
        // (p-1) × forks of them, so a bound at a quarter of the fork count
        // both tolerates scheduling noise and catches the herd coming back.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        fn fanout(pool: &ThreadPool, depth: usize) {
            if depth == 0 {
                return;
            }
            pool.join(|| fanout(pool, depth - 1), || fanout(pool, depth - 1));
        }
        pool.install(|| fanout(&pool, 10)); // 1023 forks
        let stats = pool.stats();
        let forks = stats.stolen + stats.inlined;
        assert_eq!(forks, 1023);
        assert!(
            stats.spurious_wakeups <= forks / 4,
            "spurious wakeups ({}) must stay far below the fork count \
             ({forks}); a thundering-herd regression would exceed it",
            stats.spurious_wakeups
        );
    }

    #[test]
    fn pool_join_propagates_child_panic_and_stays_usable() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("boom") });
        }));
        assert!(result.is_err());
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn pool_join_propagates_panic_from_first_closure() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| -> i32 { panic!("boom a") }, || 2);
        }));
        assert!(result.is_err());
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn install_bounds_the_free_join() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let total = pool.install(|| {
            let data: Vec<u64> = (0..256).collect();
            fn sum(data: &[u64]) -> u64 {
                if data.len() <= 8 {
                    return data.iter().sum();
                }
                let (lo, hi) = data.split_at(data.len() / 2);
                let (a, b) = join(|| sum(lo), || sum(hi));
                a + b
            }
            sum(&data)
        });
        assert_eq!(total, 255 * 256 / 2);
    }

    #[test]
    fn dropping_a_pool_terminates_its_workers() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .thread_name(|i| format!("drop-test-{i}"))
            .build()
            .unwrap();
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
        drop(pool); // joins both workers; hangs here would fail the test run
    }

    #[test]
    fn nested_pools_do_not_interfere() {
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (a, b) = outer.join(|| inner.join(|| 1, || 2), || inner.install(|| 10));
        assert_eq!((a, b), ((1, 2), 10));
    }

    // -- sleep set, chaos --------------------------------------------------

    #[test]
    fn sleep_set_addresses_indices_beyond_64() {
        // Regression for the old single-word bitmap: workers with
        // index >= 64 could never be claimed for a deliberate wake-up.
        let set = SleepSet::new(70);
        assert_eq!(set.words.len(), 2);
        set.announce(65);
        assert_eq!(set.claim_one(), Some(65));
        assert_eq!(set.claim_one(), None);
        // Lower words are still scanned first.
        set.announce(65);
        set.announce(3);
        assert_eq!(set.claim_one(), Some(3));
        assert_eq!(set.claim_one(), Some(65));
    }

    #[test]
    fn sleep_set_retract_reports_claims() {
        let set = SleepSet::new(128);
        set.announce(100);
        // Bit still present: the retract itself removes it — not claimed.
        assert!(!set.retract(100));
        set.announce(100);
        assert_eq!(set.claim_one(), Some(100));
        // Bit already gone: a notifier claimed it — deliberate wake-up.
        assert!(set.retract(100));
    }

    #[test]
    fn wide_pool_runs_forks_on_high_index_workers() {
        // 66 workers: indices 64 and 65 exist beyond the first bitmap word.
        // Before the SleepSet they only woke via IDLE_POLL; either way the
        // pool must complete fork trees with exact accounting.
        let pool = ThreadPoolBuilder::new().num_threads(66).build().unwrap();
        fn fanout(pool: &ThreadPool, depth: usize) {
            if depth == 0 {
                return;
            }
            pool.join(|| fanout(pool, depth - 1), || fanout(pool, depth - 1));
        }
        pool.install(|| fanout(&pool, 8)); // 255 forks
        let stats = pool.stats();
        assert_eq!(stats.stolen + stats.inlined, 255);
    }

    #[test]
    fn chaos_seeded_is_a_pure_function_of_the_seed() {
        let a = ChaosConfig::seeded(42);
        let b = ChaosConfig::seeded(42);
        assert_eq!(a, b);
        assert_ne!(a, ChaosConfig::none());
        assert!(a.drop_wakeup_nth >= 1 && a.delay_wakeup_nth >= 1);
        assert!(a.steal_retries < 4);
    }

    #[test]
    fn dropped_wakeup_costs_latency_not_liveness() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .chaos(ChaosConfig::none().drop_wakeup(1).delay_wakeup(2))
            .build()
            .unwrap();
        fn fanout(pool: &ThreadPool, depth: usize) {
            if depth == 0 {
                return;
            }
            pool.join(|| fanout(pool, depth - 1), || fanout(pool, depth - 1));
        }
        pool.install(|| fanout(&pool, 9)); // 511 forks
        let stats = pool.stats();
        assert_eq!(stats.stolen + stats.inlined, 511);
        // Whether the nth deliberate wake-up occurred depends on the
        // schedule, but each fault fires at most once.
        assert!(stats.dropped_wakeups <= 1);
        assert!(stats.delayed_wakeups <= 1);
    }

    #[test]
    fn forced_steal_retries_are_counted() {
        const ROUNDS: u32 = 2;
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .chaos(ChaosConfig::none().force_steal_retries(ROUNDS))
            .build()
            .unwrap();
        // Force the steal instead of hoping the second worker gets there
        // in time: the forking worker holds its first child until the
        // pending second child has been taken, which only the other worker
        // can do, and only through a steal attempt.
        pool.install(|| {
            pool.join(
                || {
                    while pool.stats().stolen == 0 {
                        thread::yield_now();
                    }
                },
                || (),
            )
        });
        let stats = pool.stats();
        assert_eq!((stats.stolen, stats.inlined), (1, 0));
        // Every steal attempt — the successful one included — paid exactly
        // ROUNDS retries.
        assert!(stats.forced_steal_retries >= u64::from(ROUNDS));
        assert_eq!(stats.forced_steal_retries % u64::from(ROUNDS), 0);
    }

    #[test]
    fn seeded_chaos_pool_completes_fork_trees_exactly() {
        // The acceptance shape: a full seeded fault mix (wake-up faults +
        // steal retries) and the pool still completes the tree with exact
        // fork accounting.
        for seed in [7u64, 19, 42] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(3)
                .chaos(ChaosConfig::seeded(seed))
                .build()
                .unwrap();
            fn fanout(pool: &ThreadPool, depth: usize) -> u64 {
                if depth == 0 {
                    return 1;
                }
                let (a, b) = pool.join(|| fanout(pool, depth - 1), || fanout(pool, depth - 1));
                a + b
            }
            assert_eq!(pool.install(|| fanout(&pool, 9)), 512, "seed {seed}");
            let stats = pool.stats();
            assert_eq!(stats.stolen + stats.inlined, 511, "seed {seed}");
        }
    }
}
