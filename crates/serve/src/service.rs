//! The job service: bounded admission, per-tenant budgets, round-robin
//! dispatch, and the executor loop that isolates every failure mode.
//!
//! Every failure mode is a job's own — a panic, a cancel, a deadline.
//! The shared pool keeps all of its processors for its whole life, so
//! admission never consults its health.  Each admitted job runs at most
//! once: a failed job reports its error, and a client that wants another
//! attempt resubmits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lopram_core::{run_cancellable, CancelToken, ChaosConfig, PalPool};
use parking_lot::{Condvar, Mutex};

use crate::job::{
    JobContext, JobError, JobFn, JobReport, JobSpec, JobTicket, SubmitError, TicketState,
};

/// Service configuration.  All limits are hard: the queue never grows
/// past `queue_capacity`, and the jobs a tenant has running never cost
/// more than `tenant_budget` together.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of tenants (jobs are submitted for `0..tenants`).
    pub tenants: usize,
    /// Per-tenant budget: a running job holds its [`cost`](JobSpec::cost)
    /// of its tenant's budget for its whole run, and a job is dispatched
    /// only while its cost still fits.  A plain count, independent of
    /// `processors`; the default 1 runs one job per tenant at a time.
    pub tenant_budget: usize,
    /// Bound on the admission queue (all tenants together).  A full
    /// queue rejects with [`SubmitError::Rejected`] — backpressure, not
    /// buffering.  Each tenant additionally holds at most
    /// `ceil(queue_capacity / tenants)` of the slots (its *admission
    /// quota*), so a flooding tenant is rejected at its quota and can
    /// never crowd the others out of the queue.
    pub queue_capacity: usize,
    /// Executor threads draining the queue.  With 1 executor the jobs
    /// run one at a time, so a pool metrics delta taken around a job's
    /// wait is exactly that job's work.
    pub executors: usize,
    /// Pal-thread processors for the shared pool.
    pub processors: usize,
    /// Scheduler-level chaos injected into the shared pool (dropped and
    /// delayed wake-ups, forced steal retries) — deterministic in its
    /// seed, used by the robustness suites.
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 1,
            tenant_budget: 1,
            queue_capacity: 64,
            executors: 1,
            processors: 2,
            chaos: ChaosConfig::none(),
        }
    }
}

struct Queued {
    id: u64,
    tenant: usize,
    run: JobFn,
    cost: usize,
    enqueued: Instant,
    ticket: Arc<TicketState>,
}

struct QueueState {
    /// Per-tenant FIFO subqueues: an over-budget tenant queues behind
    /// its own jobs without blocking anyone else's subqueue.
    queues: Vec<VecDeque<Queued>>,
    /// Total queued across all tenants (the bounded quantity).
    queued: usize,
    /// Per-tenant summed cost of the jobs dispatched and not yet
    /// reported; never above `Shared::tenant_budget`.
    in_use: Vec<usize>,
    /// Round-robin scan start for the next dispatch.
    cursor: usize,
    /// Executors parked in `work_ready.wait`.
    idle: usize,
    shutdown: bool,
    // The counters `stats()` reports.  Each is written under this lock
    // by a path that holds it anyway: `submit` admits or rejects under
    // it, and `run_one` counts the outcome where it gives the budget back.
    submitted: u64,
    rejected: u64,
    completed: u64,
    panicked: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    queue_peak: usize,
    /// `Ok`-completions per tenant.
    tenant_completed: Vec<u64>,
}

struct Shared {
    pool: PalPool,
    state: Mutex<QueueState>,
    /// Signalled on submit and on job completion (budget freed) only
    /// when `QueueState::idle` — read under the state lock — says an
    /// executor is parked on it; always signalled on shutdown.
    work_ready: Condvar,
    /// Tenant count: jobs are submitted for `0..tenants`.
    tenants: usize,
    queue_capacity: usize,
    /// Per-tenant admission quota: `ceil(queue_capacity / tenants)`.
    tenant_quota: usize,
    tenant_budget: usize,
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
    /// Always 0: the service runs each job once and never retries.
    /// Kept only because the benchmark still reports it as
    /// `serve.retries`; the field and that metric go together.
    pub retries: u64,
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
/// queue applies backpressure, per-tenant budgets keep any one
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
            .build()
            .expect("pool construction");
        let shared = Arc::new(Shared {
            pool,
            state: Mutex::new(QueueState {
                queues: (0..config.tenants).map(|_| VecDeque::new()).collect(),
                queued: 0,
                in_use: vec![0; config.tenants],
                cursor: 0,
                idle: 0,
                shutdown: false,
                submitted: 0,
                rejected: 0,
                completed: 0,
                panicked: 0,
                cancelled: 0,
                deadline_exceeded: 0,
                queue_peak: 0,
                tenant_completed: vec![0; config.tenants],
            }),
            work_ready: Condvar::new(),
            tenants: config.tenants,
            queue_capacity: config.queue_capacity,
            tenant_quota: config.queue_capacity.div_ceil(config.tenants),
            tenant_budget: config.tenant_budget,
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
        if spec.tenant >= sh.tenants {
            return Err(SubmitError::UnknownTenant {
                tenant: spec.tenant,
            });
        }
        if spec.cost > sh.tenant_budget {
            return Err(SubmitError::CostExceedsBudget {
                cost: spec.cost,
                budget: sh.tenant_budget,
            });
        }
        let mut st = sh.state.lock();
        if st.shutdown {
            return Err(SubmitError::ShutDown);
        }
        // The global bound caps total buffering; the per-tenant quota
        // keeps one flooding tenant from crowding the others out of the
        // queue — its excess bounces while their slots stay reachable.
        if st.queued >= sh.queue_capacity || st.queues[spec.tenant].len() >= sh.tenant_quota {
            st.rejected += 1;
            return Err(SubmitError::Rejected {
                queue_depth: st.queued,
            });
        }
        let id = st.submitted;
        st.submitted += 1;
        let now = Instant::now();
        let token = match spec.deadline {
            Some(d) => CancelToken::with_deadline_at(now + d),
            None => CancelToken::new(),
        };
        let ticket = Arc::new(TicketState::new(token));
        st.queues[spec.tenant].push_back(Queued {
            id,
            tenant: spec.tenant,
            run: spec.run,
            cost: spec.cost,
            enqueued: now,
            ticket: Arc::clone(&ticket),
        });
        st.queued += 1;
        st.queue_peak = st.queue_peak.max(st.queued);
        let wake = st.idle > 0;
        drop(st);
        if wake {
            sh.work_ready.notify_one();
        }
        Ok(JobTicket { state: ticket, id })
    }

    /// Current queue depth (jobs admitted but not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().queued
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock();
        ServiceStats {
            submitted: st.submitted,
            rejected: st.rejected,
            completed: st.completed,
            panicked: st.panicked,
            cancelled: st.cancelled,
            deadline_exceeded: st.deadline_exceeded,
            queue_peak: st.queue_peak,
            retries: 0,
            per_tenant_completed: st.tenant_completed.clone(),
        }
    }

    /// Number of pal-thread processors in the shared pool.
    pub fn processors(&self) -> usize {
        self.shared.pool.processors()
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

/// Find the next runnable job under the queue lock: round-robin over
/// tenant subqueues starting at the cursor, skipping tenants whose
/// front job's cost does not fit in what is left of their budget.  The
/// dispatched job's cost is charged to `in_use` here, under the same
/// lock that `run_one` takes to give it back.  An over-budget tenant
/// therefore waits behind its own jobs while every other tenant keeps
/// flowing.  `None` when nothing is queued or everything queued is
/// blocked on budget.
fn next_runnable(shared: &Shared, st: &mut QueueState) -> Option<Queued> {
    let n = st.queues.len();
    for i in 0..n {
        let t = (st.cursor + i) % n;
        let cost = match st.queues[t].front() {
            Some(front) => front.cost,
            None => continue,
        };
        if st.in_use[t] + cost > shared.tenant_budget {
            continue;
        }
        st.in_use[t] += cost;
        let job = st.queues[t].pop_front().expect("front checked above");
        st.queued -= 1;
        st.cursor = (t + 1) % n;
        return Some(job);
    }
    None
}

fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(found) = next_runnable(shared, &mut st) {
                    break found;
                }
                if st.shutdown && st.queued == 0 {
                    return;
                }
                st.idle += 1;
                shared.work_ready.wait(&mut st);
                st.idle -= 1;
            }
        };
        // Budget released (in run_one): a job that was skipped for
        // budget may be runnable now, so wake the executors parked on it.
        if run_one(shared, job) {
            shared.work_ready.notify_all();
        }
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

/// Run one admitted job to its report.  This is the service boundary:
/// `catch_unwind` around `run_cancellable` splits the three failure
/// modes — a `CancelUnwind` surfaces as `Err(reason)` from
/// `run_cancellable`, a genuine panic passes through it and is caught
/// here.  The pool's workspace guards release on unwind and the budget
/// is given back on every path below, so nothing leaks.  The body runs
/// at most once: a failed job reports its error.
///
/// Returns whether an executor was parked when the budget came back,
/// read under the state lock that released it.
fn run_one(shared: &Shared, job: Queued) -> bool {
    // One clock read per dispatch: the queue-wait attribution, the
    // pre-run deadline verdict and the run-time origin all derive from
    // the same instant.  With separate reads a job could pass the
    // dispatch-time deadline check yet already be past-deadline when its
    // run time starts — admitted and run while expired.
    let dispatched = Instant::now();
    let queue_wait = dispatched.duration_since(job.enqueued);
    // The ticket's own token: a client cancel fires this same token.
    let token = &job.ticket.token;

    let (outcome, run_time) = if let Some(reason) = token.poll_at(dispatched) {
        // Expired or cancelled while still queued: report without
        // running the body at all.
        (Err(JobError::from(reason)), Duration::ZERO)
    } else {
        let cx = JobContext {
            pool: &shared.pool,
            token,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cancellable(token, || (job.run)(&cx))
        }));
        let run_time = dispatched.elapsed();
        let outcome = match result {
            Ok(Ok(digest)) => Ok(digest),
            Ok(Err(reason)) => Err(JobError::from(reason)),
            Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
        };
        (outcome, run_time)
    };

    // Count the outcome and release the tenant's budget *before*
    // publishing the report: a client that saw the report and
    // immediately resubmits must find the budget free, and `stats()`
    // must already count the job.
    let idle = {
        let mut st = shared.state.lock();
        match &outcome {
            Ok(_) => {
                st.completed += 1;
                st.tenant_completed[job.tenant] += 1;
            }
            Err(JobError::Panicked(_)) => st.panicked += 1,
            Err(JobError::Cancelled) => st.cancelled += 1,
            Err(JobError::DeadlineExceeded) => st.deadline_exceeded += 1,
        }
        st.in_use[job.tenant] -= job.cost;
        st.idle > 0
    };

    let report = JobReport {
        job: job.id,
        tenant: job.tenant,
        outcome,
        queue_wait,
        run_time,
    };
    job.ticket.publish(report);
    idle
}
