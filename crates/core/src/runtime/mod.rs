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
//! Two executors realise these semantics on real hardware:
//!
//! * [`PalPool`] (default) — a bounded work-stealing pool of exactly `p`
//!   persistent workers over lock-free Chase–Lev deques.  A fork's second
//!   child is pushed onto the forking worker's deque as a *pending*
//!   pal-thread; idle workers steal the oldest pending pal-thread first
//!   (creation order), a parent whose fork was stolen helps with other
//!   pending work instead of parking (help-first join), and a fork nobody
//!   stole is popped back and run inline by its creator.  So the
//!   spawn-vs-inline decision is made at *activation* time — exactly the
//!   "pending pal-threads are activated … as resources become available"
//!   rule — and every decision is counted in [`PalPool::metrics`].  On top
//!   of that sits the paper's throttle: forks below the top `⌈α·log₂ p⌉`
//!   recursion levels — the depth past which Figure 2 guarantees no
//!   processor can ever be free for them — are *elided* into plain
//!   sequential calls that never touch the scheduler at all (see the
//!   [`pool`](self) module docs).  This is the executor all algorithm
//!   crates use and the one the benchmark times.
//! * [`ThrottledPool`] (ablation) — an eager variant that decides
//!   *at creation time* whether a pal-thread gets its own processor or is
//!   folded into its parent, and never revisits the decision.  It
//!   deliberately lacks the migration rule and is kept as the eager
//!   reference the tests compare `PalPool` against.  Its committed
//!   pal-threads travel through the *same* work-stealing runtime (`p − 1`
//!   persistent workers), so the two differ in scheduling policy, not in
//!   queue implementation.
//!
//! The step-accurate, deterministic implementation of the paper's activation
//! tree (the one that reproduces Figure 1 literally) is in the `lopram-sim`
//! crate.

pub mod cancel;
mod pool;
mod primitives;
mod throttled;
mod tokens;
pub mod trace;
mod workspace;

pub use cancel::{run_cancellable, CancelReason, CancelToken};
pub use pool::{PalPool, PalPoolBuilder, PalScope};
// Runtime health and chaos-injection types, defined by the work-stealing
// runtime shim and surfaced through `PalPool::health` /
// `PalPoolBuilder::chaos`.
pub use primitives::Scan;
pub use rayon::{ChaosConfig, PoolHealth, SelfHeal};
pub use throttled::{ThrottledPool, ThrottledPoolBuilder, ThrottledScope};
pub use tokens::{Permit, ProcessorTokens};
pub use trace::{DagTrace, TraceConfig, TraceEvent, TraceSummary};
pub use workspace::{Workspace, WorkspaceGuard, WorkspaceStats};
