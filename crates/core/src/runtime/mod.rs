//! The pal-thread runtime.
//!
//! Paper §3.1 describes two thread kinds.  *Standard threads* behave like OS
//! threads and are simply `std::thread` here.  *Pal-threads* (Parallel
//! ALgorithmic threads) are created into an ordered tree; the scheduler keeps
//! at least one of them running, grants processors to pending pal-threads in
//! an order consistent with creation (parent–child / pre-order) order as
//! cores free up, and — once a thread has been activated — never suspends it
//! again.  A pal-thread that is never granted a core is executed by its
//! parent, in creation order.  The net effect (Figure 2) is that a recursive
//! algorithm occupies the `p` processors with one subtree of size
//! `n / b^{log_a p}` each and runs sequentially below that depth.
//!
//! One executor realises these semantics on real hardware: [`PalPool`], a
//! bounded work-stealing pool of exactly `p` persistent workers over
//! lock-free Chase–Lev deques.  A fork's second child is pushed onto the
//! forking worker's deque as a *pending* pal-thread; idle workers steal the
//! oldest pending pal-thread first (creation order), a parent whose fork
//! was stolen helps with other pending work instead of parking (help-first
//! join), and a fork nobody stole is popped back and run inline by its
//! creator.  So the spawn-vs-inline decision is made at *activation* time —
//! exactly the "pending pal-threads are activated … as resources become
//! available" rule, which `tests/runtime_migration.rs` pins — and every
//! decision is counted in [`PalPool::metrics`].  On top of that sits the
//! paper's throttle: forks below the top `⌈α·log₂ p⌉` recursion levels —
//! the depth past which Figure 2 guarantees no processor can ever be free
//! for them — are *elided* into plain sequential calls that never touch the
//! scheduler at all (see the [`pool`](self) module docs).  Every algorithm
//! crate, the job service and the benchmark run on it.
//!
//! The step-accurate, deterministic implementation of the paper's activation
//! tree (the one that reproduces Figure 1 literally) is in the `lopram-sim`
//! crate.

pub mod cancel;
mod pool;
mod primitives;
pub mod trace;
mod workspace;

pub use cancel::{run_cancellable, CancelReason, CancelToken};
pub use pool::{PalPool, PalPoolBuilder};
// Runtime health and chaos-injection types, defined by the work-stealing
// runtime shim and surfaced through `PalPool::health` /
// `PalPoolBuilder::chaos`.
pub use primitives::Scan;
pub use rayon::{ChaosConfig, PoolHealth};
pub use trace::{DagTrace, TraceConfig, TraceEvent, TraceSummary};
pub use workspace::{Workspace, WorkspaceGuard, WorkspaceStats};
