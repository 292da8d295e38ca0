//! The job service: bounded admission, per-tenant budgets, round-robin
//! dispatch, and the executor loop that isolates every failure mode.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lopram_core::{run_cancellable, CancelToken, ChaosConfig, MetricsSnapshot, PalPool, SelfHeal};
use parking_lot::{Condvar, Mutex};

use crate::fault::{Fault, FaultPlan};
use crate::job::{JobError, JobFn, JobReport, JobSpec, JobTicket, SubmitError, TicketState};
use crate::tokens::{Permit, ProcessorTokens};

/// Service configuration.  All limits are hard: the queue never grows
/// past `queue_capacity`, a tenant never holds more than `tenant_budget`
/// tokens at once.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of tenants (jobs are submitted for `0..tenants`).
    pub tenants: usize,
    /// Per-tenant budget in tokens; a running job holds its cost in
    /// tokens for its whole run.  Derived from the §3.1 throttle: the
    /// pool grants `p = O(log n)` processors, the budget caps how much
    /// of that concurrency one tenant can occupy.
    pub tenant_budget: usize,
    /// Bound on the admission queue (all tenants together).  A full
    /// queue rejects with [`SubmitError::Rejected`] — backpressure, not
    /// buffering.  Each tenant additionally holds at most
    /// `ceil(queue_capacity / tenants)` of the slots (its *admission
    /// quota*), so a flooding tenant is rejected at its quota and can
    /// never crowd the others out of the queue.
    pub queue_capacity: usize,
    /// Executor threads draining the queue.  With 1 executor per-job
    /// metrics are always exclusive.
    pub executors: usize,
    /// Pal-thread processors for the shared pool.
    pub processors: usize,
    /// Deadline applied to jobs that set none (measured from
    /// submission).  `None` means no default deadline.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault plan keyed on submission index.
    pub fault_plan: FaultPlan,
    /// Retry policy for jobs that fail retryably (a caught panic, or a
    /// cancellation the client did not request).  The default allows no
    /// retries; [`JobSpec::retries`] overrides the count per job.
    pub retry: RetryPolicy,
    /// Admission floor on the shared pool's alive processors: when a
    /// health probe sees fewer alive workers than this, `submit` sheds
    /// with [`SubmitError::Degraded`] while queued work keeps draining.
    /// `0` (the default) disables the check.
    pub min_alive_processors: usize,
    /// Scheduler-level chaos injected into the shared pool (worker
    /// kills, dropped wakeups, forced steal retries) — deterministic in
    /// its seed, used by the robustness suites.
    pub chaos: ChaosConfig,
    /// What the pool does about a chaos-killed worker: respawn it
    /// (default) or degrade to the survivors.
    pub self_heal: SelfHeal,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 1,
            tenant_budget: 1,
            queue_capacity: 64,
            executors: 1,
            processors: 2,
            default_deadline: None,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            min_alive_processors: 0,
            chaos: ChaosConfig::none(),
            self_heal: SelfHeal::default(),
        }
    }
}

/// Retry discipline for retryably-failed jobs: up to `max_retries`
/// re-dispatches, each delayed by a deterministic exponential backoff
/// with seeded jitter.  The backoff is a pure function of
/// `(jitter_seed, job id, attempt)`, so a retried run replays exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (so a job runs at most
    /// `max_retries + 1` times).  Per-job [`JobSpec::retries`] overrides
    /// this default.
    pub max_retries: u32,
    /// Backoff before the first retry; attempt `k` waits
    /// `base · 2^(k−1)` plus jitter in `[0, base)`.
    pub base_backoff: Duration,
    /// Cap on any single backoff delay.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0,
        }
    }
}

/// One round of splitmix64 — the same mixer the chaos config uses, so
/// backoff jitter needs no RNG state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The delay before re-dispatching `job`'s retry number `attempt`
    /// (1-based: the first retry is attempt 1 of the policy's clock).
    /// Pure: equal `(seed, job, attempt)` give equal delays.
    pub fn backoff(&self, job: u64, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.base_backoff.saturating_mul(1u32 << exp);
        let jitter_range = self.base_backoff.as_nanos().max(1) as u64;
        let jitter =
            mix(self.jitter_seed ^ job.rotate_left(32) ^ u64::from(attempt)) % jitter_range;
        base.saturating_add(Duration::from_nanos(jitter))
            .min(self.max_backoff)
    }
}

struct Queued {
    id: u64,
    tenant: usize,
    run: JobFn,
    cost: usize,
    fault: Option<Fault>,
    enqueued: Instant,
    ticket: Arc<TicketState>,
    /// Attempts already executed (0 for a job never dispatched).
    attempts: u32,
    /// Retries this job may still consume beyond the first attempt.
    max_retries: u32,
    /// Absolute deadline fixed at submission; retries inherit it — the
    /// clock keeps ticking across attempts.
    deadline_at: Option<Instant>,
    /// Retry backoff gate: not dispatched before this instant.
    not_before: Option<Instant>,
}

struct QueueState {
    /// Per-tenant FIFO subqueues: an over-budget tenant queues behind
    /// its own jobs without blocking anyone else's subqueue.
    queues: Vec<VecDeque<Queued>>,
    /// Total queued across all tenants (the bounded quantity).
    queued: usize,
    /// Round-robin scan start for the next dispatch.
    cursor: usize,
    shutdown: bool,
}

struct TenantState {
    tokens: Arc<ProcessorTokens>,
    completed: AtomicU64,
    rejected: AtomicU64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    queue_peak: AtomicUsize,
    retries: AtomicU64,
    shed_degraded: AtomicU64,
}

struct Shared {
    pool: PalPool,
    state: Mutex<QueueState>,
    /// Signalled on submit, on job completion (budget tokens freed) and
    /// on shutdown.
    work_ready: Condvar,
    tenants: Vec<TenantState>,
    counters: Counters,
    /// Jobs currently inside their run window (exclusivity tracking).
    active: AtomicUsize,
    /// Total run windows ever opened (exclusivity tracking).
    starts: AtomicU64,
    fault_plan: FaultPlan,
    default_deadline: Option<Duration>,
    queue_capacity: usize,
    /// Per-tenant admission quota: `ceil(queue_capacity / tenants)`.
    tenant_quota: usize,
    retry: RetryPolicy,
    /// Admission floor on alive processors; 0 disables the check.
    min_alive: usize,
}

/// Point-in-time service statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted (given a ticket).
    pub submitted: u64,
    /// Submissions refused with [`SubmitError::Rejected`].
    pub rejected: u64,
    /// Jobs finished with `Ok`.
    pub completed: u64,
    /// Jobs finished with [`JobError::Panicked`].
    pub panicked: u64,
    /// Jobs finished with [`JobError::Cancelled`].
    pub cancelled: u64,
    /// Jobs finished with [`JobError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Highest queue depth ever observed (bounded by capacity).
    pub queue_peak: usize,
    /// Retry re-dispatches issued (each counts one re-enqueue; a job
    /// retried twice contributes 2).
    pub retries: u64,
    /// Submissions shed with [`SubmitError::Degraded`] because the pool
    /// was below the configured alive-processor floor.
    pub shed_degraded: u64,
    /// `Ok`-completions per tenant, indexed by tenant id.
    pub per_tenant_completed: Vec<u64>,
}

impl ServiceStats {
    /// Jobs that reached *some* terminal state.
    pub fn finished(&self) -> u64 {
        self.completed + self.panicked + self.cancelled + self.deadline_exceeded
    }

    /// Max/min ratio of per-tenant `Ok`-completions — the fairness
    /// number `tests/fault_injection.rs` gates on.  1.0 when perfectly fair, `inf`
    /// when some tenant starved entirely (and another completed work),
    /// 1.0 for the degenerate all-zero case.
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.per_tenant_completed.iter().copied().max().unwrap_or(0);
        let min = self.per_tenant_completed.iter().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// A fault-tolerant multi-tenant job service over one shared
/// [`PalPool`].
///
/// Many clients submit [`JobSpec`]s concurrently; a bounded admission
/// queue applies backpressure, per-tenant token budgets keep any one
/// tenant from monopolising the pool, deadlines and cancellation unwind
/// cooperatively in O(grain) work, and panics are caught at the service
/// boundary — a hostile job can fail itself but never the pool, the
/// workspace arena, or another tenant's results.
///
/// Dropping the service shuts it down gracefully: queued jobs drain,
/// executors join.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Start a service.
    ///
    /// # Panics
    ///
    /// If any of `tenants`, `tenant_budget`, `queue_capacity`,
    /// `executors` or `processors` is zero — every limit must admit at
    /// least one unit or the service could never run a job.
    pub fn start(config: ServeConfig) -> JobService {
        assert!(config.tenants >= 1, "need at least one tenant");
        assert!(config.tenant_budget >= 1, "need a budget of at least 1");
        assert!(config.queue_capacity >= 1, "need a queue of at least 1");
        assert!(config.executors >= 1, "need at least one executor");
        assert!(config.processors >= 1, "need at least one processor");
        let pool = PalPool::builder()
            .processors(config.processors)
            .chaos(config.chaos)
            .self_heal(config.self_heal)
            .build()
            .expect("pool construction");
        let tenants = (0..config.tenants)
            .map(|_| TenantState {
                tokens: ProcessorTokens::new(config.tenant_budget),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            pool,
            state: Mutex::new(QueueState {
                queues: (0..config.tenants).map(|_| VecDeque::new()).collect(),
                queued: 0,
                cursor: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            tenants,
            counters: Counters::default(),
            active: AtomicUsize::new(0),
            starts: AtomicU64::new(0),
            fault_plan: config.fault_plan,
            default_deadline: config.default_deadline,
            queue_capacity: config.queue_capacity,
            tenant_quota: config.queue_capacity.div_ceil(config.tenants),
            retry: config.retry,
            min_alive: config.min_alive_processors,
        });
        let workers = (0..config.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lopram-serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        JobService { shared, workers }
    }

    /// Submit a job.  Admission control runs here, under the queue
    /// lock: tenant validity, cost-vs-budget feasibility, then the
    /// bounded-queue check.  On admission the job's deadline clock
    /// starts immediately — queue wait counts against it.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        let sh = &*self.shared;
        if spec.tenant >= sh.tenants.len() {
            return Err(SubmitError::UnknownTenant {
                tenant: spec.tenant,
            });
        }
        let budget = sh.tenants[spec.tenant].tokens.total();
        if spec.cost > budget {
            return Err(SubmitError::CostExceedsBudget {
                cost: spec.cost,
                budget,
            });
        }
        // Graceful degradation: probing health here also drives the
        // pool's supervision, so a service under submit load detects
        // (and, under `SelfHeal::Respawn`, heals) dead workers without a
        // dedicated watchdog thread.  Shedding happens *before* the
        // queue lock — queued work keeps draining on the survivors.
        if sh.min_alive > 0 {
            let alive = sh.pool.health().alive_workers;
            if alive < sh.min_alive {
                sh.counters.shed_degraded.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Degraded {
                    alive,
                    floor: sh.min_alive,
                });
            }
        }
        let mut st = sh.state.lock();
        if st.shutdown {
            return Err(SubmitError::ShutDown);
        }
        // The global bound caps total buffering; the per-tenant quota
        // keeps one flooding tenant from crowding the others out of the
        // queue — its excess bounces while their slots stay reachable.
        if st.queued >= sh.queue_capacity || st.queues[spec.tenant].len() >= sh.tenant_quota {
            sh.counters.rejected.fetch_add(1, Ordering::Relaxed);
            sh.tenants[spec.tenant]
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Rejected {
                queue_depth: st.queued,
            });
        }
        let id = sh.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline_at = spec.deadline.or(sh.default_deadline).map(|d| now + d);
        let token = match deadline_at {
            Some(at) => CancelToken::with_deadline_at(at),
            None => CancelToken::new(),
        };
        let ticket = Arc::new(TicketState {
            report: Mutex::new(None),
            done: Condvar::new(),
            token: Mutex::new(token),
            client_cancelled: std::sync::atomic::AtomicBool::new(false),
        });
        st.queues[spec.tenant].push_back(Queued {
            id,
            tenant: spec.tenant,
            run: spec.run,
            cost: spec.cost,
            fault: sh.fault_plan.fault_for(id),
            enqueued: now,
            ticket: Arc::clone(&ticket),
            attempts: 0,
            max_retries: spec.retries.unwrap_or(sh.retry.max_retries),
            deadline_at,
            not_before: None,
        });
        st.queued += 1;
        sh.counters
            .queue_peak
            .fetch_max(st.queued, Ordering::Relaxed);
        drop(st);
        sh.work_ready.notify_one();
        Ok(JobTicket { state: ticket, id })
    }

    /// Current queue depth (jobs admitted but not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().queued
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            queue_peak: c.queue_peak.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            shed_degraded: c.shed_degraded.load(Ordering::Relaxed),
            per_tenant_completed: self
                .shared
                .tenants
                .iter()
                .map(|t| t.completed.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Number of pal-thread processors in the shared pool.
    pub fn processors(&self) -> usize {
        self.shared.pool.processors()
    }

    /// Probe the shared pool's health (which also drives its
    /// supervision: under [`SelfHeal::Respawn`] a dead worker observed
    /// here is respawned).
    pub fn health(&self) -> lopram_core::PoolHealth {
        self.shared.pool.health()
    }

    /// The shared pool, for out-of-band inspection (workspace arena
    /// stats, aggregate fork metrics).
    pub fn pool(&self) -> &PalPool {
        &self.shared.pool
    }

    /// Graceful shutdown: stop admitting, drain every queued job, join
    /// the executors, and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor thread panicked");
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What a dispatch scan found.
enum Dispatch {
    /// A runnable job with its cost acquired in budget permits.
    Found(Queued, Vec<Permit>),
    /// Nothing runnable *yet*: the earliest retry-backoff gate among
    /// blocked front jobs — the executor sleeps until it (or a signal).
    NotReady(Instant),
    /// Nothing queued, or everything blocked on budget.
    Empty,
}

/// Find the next runnable job under the queue lock: round-robin over
/// tenant subqueues starting at the cursor, skipping tenants whose
/// front job cannot acquire its cost in budget tokens right now, or
/// whose front job is a retry still inside its backoff window.  An
/// over-budget (or backing-off) tenant therefore waits behind its own
/// jobs while every other tenant keeps flowing.
fn next_runnable(shared: &Shared, st: &mut QueueState) -> Dispatch {
    let n = st.queues.len();
    let now = Instant::now();
    let mut earliest: Option<Instant> = None;
    for i in 0..n {
        let t = (st.cursor + i) % n;
        let (cost, not_before) = match st.queues[t].front() {
            Some(front) => (front.cost, front.not_before),
            None => continue,
        };
        if let Some(gate) = not_before {
            if gate > now {
                earliest = Some(earliest.map_or(gate, |e| e.min(gate)));
                continue;
            }
        }
        let tokens = &shared.tenants[t].tokens;
        let mut permits = Vec::with_capacity(cost);
        for _ in 0..cost {
            match tokens.try_acquire() {
                Some(permit) => permits.push(permit),
                None => break,
            }
        }
        if permits.len() < cost {
            // Partial acquisition: hand the tokens straight back (drop)
            // and let the next tenant try.
            continue;
        }
        let job = st.queues[t].pop_front().expect("front checked above");
        st.queued -= 1;
        st.cursor = (t + 1) % n;
        return Dispatch::Found(job, permits);
    }
    match earliest {
        Some(at) => Dispatch::NotReady(at),
        None => Dispatch::Empty,
    }
}

fn executor_loop(shared: &Shared) {
    loop {
        let (job, permits) = {
            let mut st = shared.state.lock();
            loop {
                match next_runnable(shared, &mut st) {
                    Dispatch::Found(job, permits) => break (job, permits),
                    Dispatch::NotReady(until) => {
                        // Work exists but is gated on a retry backoff;
                        // shutdown must still drain it, so never return
                        // here — sleep out the gate (or a signal) and
                        // rescan.
                        let now = Instant::now();
                        if until > now {
                            let _ = shared.work_ready.wait_for(&mut st, until - now);
                        }
                    }
                    Dispatch::Empty => {
                        if st.shutdown && st.queued == 0 {
                            return;
                        }
                        shared.work_ready.wait(&mut st);
                    }
                }
            }
        };
        if let Some(retry) = run_one(shared, job, permits) {
            // Retryable failure with retries left: back in at the front
            // of its tenant's subqueue (it keeps its age-order slot),
            // gated by `not_before`.
            let mut st = shared.state.lock();
            st.queues[retry.tenant].push_front(retry);
            st.queued += 1;
            shared
                .counters
                .queue_peak
                .fetch_max(st.queued, Ordering::Relaxed);
        }
        // Budget tokens released (permits dropped in run_one): a job
        // that was skipped for budget may be runnable now.
        shared.work_ready.notify_all();
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one admitted job to a report — or to a retry.  This is the
/// service boundary: `catch_unwind` around `run_cancellable` splits the
/// three failure modes — a `CancelUnwind` surfaces as `Err(reason)`
/// from `run_cancellable`, a genuine panic passes through it and is
/// caught here.  The pool's workspace guards and the budget [`Permit`]s
/// all release on unwind, so nothing leaks on any path.
///
/// Returns `Some(job)` when the attempt failed retryably (panic, or a
/// cancellation the client did not request) with retries left: the
/// caller re-enqueues it.  The retry carries a **fresh** token (its
/// failed predecessor's fired state must not leak), no fault (a seeded
/// fault fires once — the retry is the clean run, which is what makes
/// retried digests bit-identical to unfaulted ones), and a backoff gate
/// from the deterministic [`RetryPolicy`].
fn run_one(shared: &Shared, mut job: Queued, permits: Vec<Permit>) -> Option<Queued> {
    // One clock read per dispatch: the queue-wait attribution, the
    // pre-run deadline verdict and the run-time origin all derive from
    // the same instant.  With separate reads a job could pass the
    // dispatch-time deadline check yet already be past-deadline at the
    // later `started` stamp — admitted and run while expired.
    let dispatched = Instant::now();
    let queue_wait = dispatched.duration_since(job.enqueued);
    let token = job.ticket.token.lock().clone();
    let attempt = job.attempts + 1;

    let (outcome, run_time, metrics, metrics_exclusive) =
        if let Some(reason) = token.poll_at(dispatched) {
            // Expired or cancelled while still queued: report without
            // running the body at all.
            (
                Err(JobError::from(reason)),
                Duration::ZERO,
                MetricsSnapshot::default(),
                true,
            )
        } else {
            // Exclusivity window: metrics are exactly this job's iff no
            // other job's window overlapped ours.
            let my_start = shared.starts.fetch_add(1, Ordering::SeqCst) + 1;
            let active_before = shared.active.fetch_add(1, Ordering::SeqCst);
            let before = shared.pool.metrics().snapshot();
            let started = dispatched;
            // Borrow (not consume) the body: a retryable failure needs
            // it callable again on the next attempt.
            let run = &mut job.run;
            let cx = crate::job::JobContext {
                pool: &shared.pool,
                token: &token,
                fault: job.fault,
                step: std::cell::Cell::new(0),
            };
            let result = catch_unwind(AssertUnwindSafe(|| run_cancellable(&token, || run(&cx))));
            let run_time = started.elapsed();
            let after = shared.pool.metrics().snapshot();
            let active_after = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
            let starts_after = shared.starts.load(Ordering::SeqCst);
            let exclusive = active_before == 0 && active_after == 0 && starts_after == my_start;
            let outcome = match result {
                Ok(Ok(digest)) => Ok(digest),
                Ok(Err(reason)) => Err(JobError::from(reason)),
                Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
            };
            (outcome, run_time, after.delta_since(&before), exclusive)
        };

    // Retry decision.  Panics are always retryable; a cancellation is
    // retryable only when the client did not request it (a client
    // cancel is a verdict, not a fault).  Deadline expiry is never
    // retried — the deadline is absolute and already blown.
    let client_cancelled = job
        .ticket
        .client_cancelled
        .load(std::sync::atomic::Ordering::SeqCst);
    let retryable = match &outcome {
        Err(JobError::Panicked(_)) => true,
        Err(JobError::Cancelled) => !client_cancelled,
        Err(JobError::DeadlineExceeded) | Ok(_) => false,
    };
    if retryable && attempt <= job.max_retries {
        shared.counters.retries.fetch_add(1, Ordering::Relaxed);
        // Fresh token for the retry, inheriting the absolute deadline.
        // If a client cancel raced in after the decision above, the
        // fresh token starts fired and the retry reports Cancelled.
        let fresh = match job.deadline_at {
            Some(at) => CancelToken::with_deadline_at(at),
            None => CancelToken::new(),
        };
        if job
            .ticket
            .client_cancelled
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            fresh.cancel();
        }
        *job.ticket.token.lock() = fresh;
        let delay = shared.retry.backoff(job.id, attempt);
        job.attempts = attempt;
        job.fault = None;
        job.not_before = Some(Instant::now() + delay);
        drop(permits);
        return Some(job);
    }

    match &outcome {
        Ok(_) => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.tenants[job.tenant]
                .completed
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(JobError::Panicked(_)) => {
            shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
        }
        Err(JobError::Cancelled) => {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Err(JobError::DeadlineExceeded) => {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    // Release the tenant's budget tokens *before* publishing the
    // report: a client that saw the report and immediately resubmits
    // must find the budget free.
    drop(permits);

    let report = JobReport {
        job: job.id,
        tenant: job.tenant,
        outcome,
        queue_wait,
        run_time,
        metrics,
        metrics_exclusive,
        attempts: attempt,
    };
    *job.ticket.report.lock() = Some(report);
    job.ticket.done.notify_all();
    None
}
