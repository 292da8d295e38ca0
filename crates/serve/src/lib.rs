//! # lopram-serve
//!
//! A fault-tolerant **multi-tenant job service** over one shared
//! LoPRAM pal-thread pool.
//!
//! The paper argues `p = O(log n)` processors suffice for optimal
//! speedup — which makes the pool small enough to *share*: many
//! concurrent clients submitting graph kernels, D&C sorts and DP
//! problems to a single [`PalPool`](lopram_core::PalPool) instead of
//! each owning one.  Sharing needs a service discipline, and this crate
//! is that discipline:
//!
//! * **Bounded admission** — [`JobService::submit`] either admits a job
//!   or refuses with explicit backpressure
//!   ([`SubmitError::Rejected`]); the queue never grows past its
//!   configured capacity, so a saturating client cannot OOM the
//!   service, and each tenant holds at most `ceil(capacity / tenants)`
//!   of the slots, so a flooding tenant cannot crowd the others out.
//! * **Per-tenant budgets** — each tenant may have jobs of summed cost
//!   at most [`ServeConfig::tenant_budget`] (a plain count, default 1)
//!   running at once; an over-budget tenant queues behind its own jobs
//!   and never starves the others (round-robin dispatch over per-tenant
//!   FIFO subqueues).
//! * **Deadlines and cancellation** — every job carries a
//!   [`CancelToken`](lopram_core::CancelToken) checked at fork
//!   boundaries and blocked-pass chunk boundaries inside the pool, so a
//!   fired token (client cancel or deadline expiry) unwinds in O(grain)
//!   work, and the queue wait counts against the deadline.
//! * **Panic isolation** — a panicking job is caught at the service
//!   boundary as [`JobError::Panicked`]; the pool, its workspace arena
//!   and every other tenant are untouched.
//! * **One run per job** — an admitted job runs at most once and its
//!   report carries the outcome of that run; a client that wants
//!   another attempt resubmits.
//!
//! The test suites prove the isolation claims differentially: their own
//! job bodies panic, cancel or outstay their deadline at chosen steps,
//! and every other job's digest must match a fault-free run's.
//!
//! ```
//! use lopram_serve::{JobService, JobSpec, ServeConfig};
//!
//! let service = JobService::start(ServeConfig {
//!     tenants: 2,
//!     processors: 2,
//!     ..ServeConfig::default()
//! });
//! let ticket = service
//!     .submit(JobSpec::new(0, |cx| {
//!         let data: Vec<u64> = (0..100_000).collect();
//!         cx.pool().scan_copy_in(&data, 0, |a, b| a + b, &mut Vec::new())
//!     }))
//!     .expect("queue has room");
//! let report = ticket.wait();
//! assert_eq!(report.outcome, Ok(100_000 * 99_999 / 2));
//! // 100 000 elements clear the pool's wake floor, so the scan forked.
//! assert!(service.pool().metrics().forks() > 0);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod job;
pub mod service;

pub use job::{JobContext, JobError, JobReport, JobSpec, JobTicket, SubmitError};
pub use service::{JobService, ServeConfig, ServiceStats};

/// Convenience prelude re-exporting the items most users need.
pub mod prelude {
    pub use crate::job::{JobContext, JobError, JobReport, JobSpec, JobTicket, SubmitError};
    pub use crate::service::{JobService, ServeConfig, ServiceStats};
}
