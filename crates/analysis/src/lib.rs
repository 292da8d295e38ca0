//! # lopram-analysis
//!
//! The analysis toolkit of the LoPRAM reproduction: everything §4 of the
//! paper states analytically, implemented so the tests and the
//! `paper_tables` example can put predicted and simulated numbers side by
//! side.
//!
//! * [`growth`] — symbolic growth functions `c · n^k · log^j n`, the shape of
//!   every driving function `f(n)` the Master theorem handles;
//! * [`recurrence`] — divide-and-conquer recurrences `T(n) = a·T(n/b) + f(n)`
//!   with exact evaluators for the sequential time, for the parallel time of
//!   Eq. 3 (sequential merging) and for the parallel-merge variant of Eq. 5;
//! * [`master`] — the classical Master theorem and the paper's **parallel
//!   Master theorem** (Theorem 1): case classification, asymptotic bounds and
//!   the speedup class each case promises;
//! * [`dag`] — dependency DAGs for dynamic programming (§4.3): antichain
//!   (Mirsky) decompositions, longest chains, width profiles and the
//!   Brent-style bound on achievable speedup with `p` processors.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dag;
pub mod growth;
pub mod master;
pub mod recurrence;

pub use dag::{Dag, LevelDecomposition};
pub use growth::Growth;
pub use master::{
    parallel_master_bound, sequential_master_bound, MasterCase, MergeMode, ParallelBound,
    SpeedupClass,
};
pub use recurrence::Recurrence;

/// Convenience prelude for the analysis crate.
pub mod prelude {
    pub use crate::dag::{Dag, LevelDecomposition};
    pub use crate::growth::Growth;
    pub use crate::master::{
        parallel_master_bound, sequential_master_bound, MasterCase, MergeMode, ParallelBound,
        SpeedupClass,
    };
    pub use crate::recurrence::Recurrence;
}
