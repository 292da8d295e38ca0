//! Job descriptions, tickets and reports.
//!
//! A job is a closure over a [`JobContext`] returning a `u64` digest.
//! Digests — not opaque unit returns — are deliberate: the fault
//! injection suite proves isolation *differentially*, by comparing each
//! non-faulted job's digest between a faulted and a fault-free run of
//! the same seeded traffic.

use std::fmt;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Duration;

use lopram_core::runtime::cancel::CancelUnwind;
use lopram_core::{CancelReason, CancelToken, PalPool};
use parking_lot::{Condvar, Mutex};

/// The boxed job body: runs on a service executor with access to the
/// shared pool through the [`JobContext`], returns a digest of its
/// result.  Called at most once: the service never re-runs a job.
pub type JobFn = Box<dyn FnOnce(&JobContext<'_>) -> u64 + Send>;

/// A job description handed to [`JobService::submit`](crate::JobService::submit).
///
/// Built with [`JobSpec::new`] plus the builder-style [`cost`](Self::cost)
/// and [`deadline`](Self::deadline) refinements.
pub struct JobSpec {
    pub(crate) tenant: usize,
    pub(crate) run: JobFn,
    pub(crate) cost: usize,
    pub(crate) deadline: Option<Duration>,
}

impl JobSpec {
    /// A job for `tenant` running `f`.  Defaults: cost 1 budget unit,
    /// no deadline.
    pub fn new(tenant: usize, f: impl FnOnce(&JobContext<'_>) -> u64 + Send + 'static) -> Self {
        JobSpec {
            tenant,
            run: Box::new(f),
            cost: 1,
            deadline: None,
        }
    }

    /// Set the job's cost in budget units (clamped to at least 1).  The
    /// job holds `cost` units of its tenant's budget for its whole run;
    /// a cost above the tenant's total budget is rejected at submission
    /// with [`SubmitError::CostExceedsBudget`].
    pub fn cost(mut self, cost: usize) -> Self {
        self.cost = cost.max(1);
        self
    }

    /// Set a deadline, measured from **submission** — time spent queued
    /// counts against it.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("cost", &self.cost)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// The execution context a job body receives: the shared pool and the
/// job's cancel token, polled by the cooperative [`step`](Self::step)
/// hook.
pub struct JobContext<'a> {
    pub(crate) pool: &'a PalPool,
    pub(crate) token: &'a CancelToken,
}

impl JobContext<'_> {
    /// The shared pal-thread pool.  Every pool primitive called through
    /// this reference inherits the job's ambient cancel token, so a
    /// fired token unwinds out of scans, packs and joins in O(grain)
    /// work without any extra plumbing.
    pub fn pool(&self) -> &PalPool {
        self.pool
    }

    /// Cooperative checkpoint for job-level loops (the pool's own fork
    /// and chunk boundaries already poll): polls the job's token, reading
    /// the clock if it carries a deadline, and unwinds with the cancel
    /// reason if it has fired — a ticket cancel or a passed deadline.
    pub fn step(&self) {
        if let Some(reason) = self.token.poll_now() {
            resume_unwind(Box::new(CancelUnwind { reason }));
        }
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
    /// never run.
    CostExceedsBudget {
        /// Requested cost in budget units.
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
}

/// What a ticket's lock guards: the report once the job finishes, and
/// whether a client is parked on [`TicketState::done`] waiting for it.
pub(crate) struct ReportSlot {
    pub(crate) report: Option<JobReport>,
    /// Set only by [`JobTicket::wait`], under the lock, before it parks;
    /// [`TicketState::publish`] reads it under the same lock and signals
    /// `done` only when it is set.  [`JobTicket::try_report`] never sets
    /// it, so a polling client is never signalled.
    pub(crate) waiting: bool,
}

/// What a ticket shares with the executor that runs its job.  The client
/// blocked in [`JobTicket::wait`] is the only one that sets
/// `slot.waiting`, and the executor's [`publish`](Self::publish) the only
/// one that reads it.
pub(crate) struct TicketState {
    pub(crate) slot: Mutex<ReportSlot>,
    pub(crate) done: Condvar,
    /// The job's cancel token: fired by [`JobTicket::cancel`], polled
    /// by the executor that runs the job.
    pub(crate) token: CancelToken,
}

impl TicketState {
    pub(crate) fn new(token: CancelToken) -> Self {
        TicketState {
            slot: Mutex::new(ReportSlot {
                report: None,
                waiting: false,
            }),
            done: Condvar::new(),
            token,
        }
    }

    /// Store the job's report, and wake the client only if it is parked
    /// in [`JobTicket::wait`]: a `Condvar` notify is a syscall even when
    /// nobody waits.
    pub(crate) fn publish(&self, report: JobReport) {
        let mut slot = self.slot.lock();
        slot.report = Some(report);
        let waiting = slot.waiting;
        drop(slot);
        if waiting {
            self.done.notify_all();
        }
    }
}

/// A handle to an admitted job: await its [`JobReport`], or cancel it.
pub struct JobTicket {
    pub(crate) state: Arc<TicketState>,
    pub(crate) id: u64,
}

impl JobTicket {
    /// The job's submission index: global, counted from 0 in admission
    /// order, and equal to its report's [`job`](JobReport::job).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fire the job's cancel token.  Idempotent; a job already past its
    /// last checkpoint may still complete normally (cancellation is
    /// cooperative, never preemptive).
    pub fn cancel(&self) {
        self.state.token.cancel();
    }

    /// Non-blocking probe: the report if the job already finished.
    pub fn try_report(&self) -> Option<JobReport> {
        self.state.slot.lock().report.clone()
    }

    /// Block until the job finishes and take its report.
    pub fn wait(self) -> JobReport {
        let mut slot = self.state.slot.lock();
        while slot.report.is_none() {
            // Registered under the lock `publish` takes to store the
            // report, so the report cannot land unseen between this
            // check and the park.
            slot.waiting = true;
            self.state.done.wait(&mut slot);
        }
        slot.report.take().expect("woken with report present")
    }
}

impl fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket").field("id", &self.id).finish()
    }
}
