//! # lopram-core
//!
//! Core of the LoPRAM reproduction: the *Low-degree Parallel RAM* model of
//! Dorrigiv, López-Ortiz and Salinger (SPAA 2008 / TR CS-2007-48).
//!
//! The LoPRAM is a PRAM whose number of processors `p` is bounded by
//! `O(log n)` rather than `Θ(n)`.  Algorithms obtain parallelism through
//! **pal-threads** (*Parallel ALgorithmic threads*): recursive calls are
//! created as children of the current thread in program order, the scheduler
//! keeps at most `p` of them active, and threads that cannot be granted a
//! processor are executed by their parent, in creation order.  The practical
//! consequence (paper, Figure 2) is that a divide-and-conquer algorithm
//! spawns threads down to recursion depth `log_a p` and runs sequentially
//! below that depth — which is exactly what the runtime in this crate does.
//!
//! The crate provides:
//!
//! * [`ProcessorPolicy`] / [`processors_for`] — the `p = O(log n)` policy of
//!   the paper (§3.2) plus fixed and machine-width policies for experiments;
//! * [`PalPool`] — a bounded work-stealing fork/join runtime implementing
//!   the pal-thread semantics of §3.1, pending-thread migration included
//!   ([`PalPool::join`] — the one fork primitive — and [`palthreads!`],
//!   its nested-join form for more than two pal-threads), plus the
//!   blocked data-parallel primitives irregular workloads are built from
//!   ([`PalPool::scan_copy_in`], [`PalPool::pack_in`],
//!   [`PalPool::expand_in`], [`PalPool::for_each_index`] — one form each,
//!   writing into caller buffers; see `runtime::primitives`) and the
//!   [`Workspace`] scratch arena that makes their steady state
//!   allocation-free;
//! * [`Executor`] — an abstraction over sequential and pal-thread execution
//!   used by the divide-and-conquer and dynamic-programming crates;
//! * [`metrics`] — fork and arena accounting.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod executor;
pub mod metrics;
pub mod policy;
pub mod runtime;

mod macros;

pub use error::{Error, Result};
pub use executor::{Executor, SeqExecutor};
pub use metrics::{assert_metrics_consistent, MetricsSnapshot, RunMetrics};
pub use policy::{processors_for, ProcessorPolicy};
pub use runtime::{
    run_cancellable, CancelReason, CancelToken, ChaosConfig, DagTrace, PalPool, PalPoolBuilder,
    TraceConfig, TraceEvent, TraceSummary, Workspace, WorkspaceGuard, WorkspaceStats,
};

/// Convenience prelude re-exporting the items almost every user needs.
pub mod prelude {
    pub use crate::executor::{Executor, SeqExecutor};
    pub use crate::palthreads;
    pub use crate::policy::{processors_for, ProcessorPolicy};
    pub use crate::runtime::{
        run_cancellable, CancelReason, CancelToken, ChaosConfig, DagTrace, PalPool, PalPoolBuilder,
        TraceConfig, Workspace,
    };
}
