//! Job descriptions, tickets and reports.
//!
//! A job is a closure over a [`JobContext`] returning a `u64` digest.
//! Digests — not opaque unit returns — are deliberate: the fault
//! injection suite proves isolation *differentially*, by comparing each
//! non-faulted job's digest between a faulted and a fault-free run of
//! the same seeded traffic.

use std::cell::Cell;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lopram_core::runtime::cancel::CancelUnwind;
use lopram_core::{CancelReason, CancelToken, MetricsSnapshot, PalPool};
use parking_lot::{Condvar, Mutex};

use crate::fault::Fault;

/// The boxed job body: runs on a service executor with access to the
/// shared pool through the [`JobContext`], returns a digest of its
/// result.  `FnMut`, not `FnOnce`: a body that fails retryably (panic,
/// fault-injected cancel) is re-invoked on the retry attempt, so it
/// must be callable more than once.
pub type JobFn = Box<dyn FnMut(&JobContext<'_>) -> u64 + Send>;

/// A job description handed to [`JobService::submit`](crate::JobService::submit).
///
/// Built with [`JobSpec::new`] plus the builder-style [`cost`](Self::cost),
/// [`deadline`](Self::deadline) and [`retries`](Self::retries) refinements.
pub struct JobSpec {
    pub(crate) tenant: usize,
    pub(crate) run: JobFn,
    pub(crate) cost: usize,
    pub(crate) deadline: Option<Duration>,
    pub(crate) retries: Option<u32>,
}

impl JobSpec {
    /// A job for `tenant` running `f`.  Defaults: cost 1 budget token,
    /// the service's default deadline (none unless configured), the
    /// service's default retry count.
    pub fn new(tenant: usize, f: impl FnMut(&JobContext<'_>) -> u64 + Send + 'static) -> Self {
        JobSpec {
            tenant,
            run: Box::new(f),
            cost: 1,
            deadline: None,
            retries: None,
        }
    }

    /// Set the job's cost in budget tokens (clamped to at least 1).  The
    /// job runs only while it holds `cost` tokens of its tenant's
    /// budget; a cost above the tenant's total budget is rejected at
    /// submission with [`SubmitError::CostExceedsBudget`].
    pub fn cost(mut self, cost: usize) -> Self {
        self.cost = cost.max(1);
        self
    }

    /// Set a deadline, measured from **submission** — time spent queued
    /// counts against it.  Overrides the service default.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Re-target the job at a different tenant — used by load
    /// generators that balance a fixed job mix across tenants.
    pub fn for_tenant(mut self, tenant: usize) -> Self {
        self.tenant = tenant;
        self
    }

    /// Allow up to `n` retries after retryable failures (a caught panic,
    /// or a cancellation the client did not request), overriding the
    /// service's [`RetryPolicy`](crate::service::RetryPolicy) default.
    /// Each retry waits out a deterministic exponential backoff before
    /// re-dispatch; the job's deadline keeps ticking across attempts.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = Some(n);
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("cost", &self.cost)
            .field("deadline", &self.deadline)
            .field("retries", &self.retries)
            .finish_non_exhaustive()
    }
}

/// The execution context a job body receives: the shared pool, the
/// job's cancel token, and the cooperative [`step`](Self::step) hook.
pub struct JobContext<'a> {
    pub(crate) pool: &'a PalPool,
    pub(crate) token: &'a CancelToken,
    pub(crate) fault: Option<Fault>,
    pub(crate) step: Cell<u64>,
}

impl JobContext<'_> {
    /// The shared pal-thread pool.  Every pool primitive called through
    /// this reference inherits the job's ambient cancel token, so a
    /// fired token unwinds out of scans, packs and joins in O(grain)
    /// work without any extra plumbing.
    pub fn pool(&self) -> &PalPool {
        self.pool
    }

    /// The job's cancel token — hand a clone to helper threads, or poll
    /// [`CancelToken::fired`] for a non-unwinding check.
    pub fn job_token(&self) -> &CancelToken {
        self.token
    }

    /// Cooperative checkpoint for job-level loops (the pool's own fork
    /// and chunk boundaries already poll).  Increments the step counter,
    /// fires any injected [`Fault`] scheduled for the new step, then
    /// polls the token — unwinding with the job's cancel reason if it
    /// has fired.  Bounded hostile loops in the traffic generator call
    /// this every iteration, which is what makes fault injection land
    /// at deterministic points.
    pub fn step(&self) {
        let now = self.step.get() + 1;
        self.step.set(now);
        if let Some(fault) = self.fault {
            if fault.at_step() == now {
                match fault {
                    Fault::Panic { .. } => panic!("injected fault: panic at step {now}"),
                    Fault::Cancel { .. } => self.token.cancel(),
                    Fault::Deadline { .. } => match self.token.deadline() {
                        // Stall past the deadline so the poll below
                        // observes a genuine clock-fired expiry.
                        Some(deadline) => {
                            while Instant::now() < deadline {
                                std::hint::spin_loop();
                            }
                        }
                        None => self.token.cancel(),
                    },
                }
            }
        }
        if let Some(reason) = self.token.poll_now() {
            resume_unwind(Box::new(CancelUnwind { reason }));
        }
    }

    /// Number of [`step`](Self::step) calls so far.
    pub fn steps(&self) -> u64 {
        self.step.get()
    }
}

/// Why a submission was refused — admission control speaking, before
/// any work ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is full, or the tenant's admission
    /// quota (`ceil(capacity / tenants)` queue slots) is.  Backpressure:
    /// retry later or shed load; the service never buffers unboundedly.
    Rejected {
        /// Global queue depth observed at rejection — equal to the
        /// capacity when the global bound fired, possibly lower when
        /// the tenant's own quota did.
        queue_depth: usize,
    },
    /// The tenant index is outside `0..config.tenants`.
    UnknownTenant {
        /// The offending tenant index.
        tenant: usize,
    },
    /// The job's cost exceeds its tenant's *total* budget, so it could
    /// never acquire enough tokens to run.
    CostExceedsBudget {
        /// Requested cost in budget tokens.
        cost: usize,
        /// The tenant's total budget.
        budget: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Rejected { queue_depth } => {
                write!(f, "admission queue full (depth {queue_depth})")
            }
            SubmitError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            SubmitError::CostExceedsBudget { cost, budget } => {
                write!(f, "job cost {cost} exceeds tenant budget {budget}")
            }
            SubmitError::ShutDown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How an admitted job failed.  Every variant leaves the pool, the
/// workspace arena and all other tenants untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked; the panic was caught at the service
    /// boundary.  Carries the panic message when it was a string.
    Panicked(String),
    /// The job's token was cancelled (by its ticket or by itself).
    Cancelled,
    /// The job's deadline passed — in the queue or mid-run.
    DeadlineExceeded,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CancelReason> for JobError {
    fn from(reason: CancelReason) -> Self {
        match reason {
            CancelReason::Cancelled => JobError::Cancelled,
            CancelReason::DeadlineExceeded => JobError::DeadlineExceeded,
        }
    }
}

/// Everything the service knows about a finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Submission index (ticket id): global, monotonically increasing.
    pub job: u64,
    /// The submitting tenant.
    pub tenant: usize,
    /// Digest on success, failure mode otherwise.
    pub outcome: Result<u64, JobError>,
    /// Time from submission to the executor picking the job up.
    pub queue_wait: Duration,
    /// Time the job body ran (zero if it expired in the queue).
    pub run_time: Duration,
    /// Pool metrics delta over the job's run: forks spawned/inlined/
    /// elided, steals, arena hits and bytes, work items.
    pub metrics: MetricsSnapshot,
    /// Whether `metrics` is *exactly* this job's work: true iff no
    /// other job overlapped its run.  Always true at `executors: 1`.
    pub metrics_exclusive: bool,
    /// Number of attempts executed, counting the first (so always
    /// ≥ 1).  Greater than 1 exactly when the job was retried after a
    /// retryable failure.
    pub attempts: u32,
}

pub(crate) struct TicketState {
    pub(crate) report: Mutex<Option<JobReport>>,
    pub(crate) done: Condvar,
    /// The *current* attempt's cancel token.  A retry swaps in a fresh
    /// token (the failed attempt's fired state must not leak into the
    /// retry), so client-side access goes through this lock.
    pub(crate) token: Mutex<CancelToken>,
    /// Set by [`JobTicket::cancel`] before firing the current token:
    /// distinguishes a client's cancel (terminal — never retried) from a
    /// fault-injected one (retryable).
    pub(crate) client_cancelled: std::sync::atomic::AtomicBool,
}

/// A handle to an admitted job: await its [`JobReport`], or cancel it.
pub struct JobTicket {
    pub(crate) state: Arc<TicketState>,
    pub(crate) id: u64,
}

impl JobTicket {
    /// The job's submission index — the key a [`FaultPlan`](crate::FaultPlan)
    /// uses.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fire the job's cancel token.  Idempotent; a job already past its
    /// last checkpoint may still complete normally (cancellation is
    /// cooperative, never preemptive).  A client cancel is terminal:
    /// the service never retries it, and a retry raced against this
    /// call inherits an already-fired token.
    pub fn cancel(&self) {
        self.state
            .client_cancelled
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.state.token.lock().cancel();
    }

    /// Non-blocking probe: the report if the job already finished.
    pub fn try_report(&self) -> Option<JobReport> {
        self.state.report.lock().clone()
    }

    /// Block until the job finishes and take its report.
    pub fn wait(self) -> JobReport {
        let mut report = self.state.report.lock();
        while report.is_none() {
            self.state.done.wait(&mut report);
        }
        report.take().expect("woken with report present")
    }
}

impl fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket").field("id", &self.id).finish()
    }
}
