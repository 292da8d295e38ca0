//! # lopram-sim
//!
//! A deterministic, step-accurate simulator of the LoPRAM machine of §3 of
//! the paper.  Where `lopram-core` runs pal-threads on real cores, this crate
//! models the abstract machine so that the *exact* quantities the theory
//! speaks about — wall-clock steps `T_p(n)`, activation times of pal-threads,
//! greedy DAG makespans — can be measured and compared against the
//! closed-form analysis (`lopram-analysis`) and against the figures of the
//! paper.
//!
//! * [`tree`] — pal-thread execution trees for divide-and-conquer programs
//!   (the object drawn in Figures 1 and 2);
//! * [`schedule`] — the pal-thread scheduler of §3.1: pending threads
//!   activated in creation order as processors free up, parents resuming on
//!   the processor of their last-finishing child;
//! * [`dagsim`] — a greedy `p`-processor schedule of a dependency DAG, the
//!   machine model behind Algorithm 1 (§4.4);
//! * [`trace`] — execution-trace records and the ASCII rendering used to
//!   regenerate Figure 1.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dagsim;
pub mod schedule;
pub mod trace;
pub mod tree;

pub use dagsim::{simulate_dag_schedule, DagSimResult};
pub use schedule::{NodeRecord, SimResult, TreeSimulator};
pub use trace::{render_activation_tree, render_figure1_snapshot, NodeSnapshotState};
pub use tree::{CostSpec, TaskTree, TreeNode};

/// Convenience prelude for the simulator crate.
pub mod prelude {
    pub use crate::dagsim::{simulate_dag_schedule, DagSimResult};
    pub use crate::schedule::{SimResult, TreeSimulator};
    pub use crate::trace::{render_activation_tree, render_figure1_snapshot};
    pub use crate::tree::{CostSpec, TaskTree};
}
