//! # lopram-dp
//!
//! Parallel dynamic programming on the LoPRAM (paper §4.2–§4.6).
//!
//! A dynamic program is specified by [`DpProblem`]: a set of cells, the cells
//! each cell depends on (appended to a buffer the caller owns, so listing a
//! whole table allocates nothing), and how to compute a cell from its
//! dependencies (Eq. 6 of the paper).  There are four ways to evaluate it:
//!
//! * [`solve_sequential`] — bottom-up in topological order, the `T_1`
//!   baseline;
//! * [`solve_wavefront`] — partition the cells into antichains (the dual of
//!   Dilworth's theorem) and evaluate them level by level; a level heavy
//!   enough to repay waking a second processor is split across the
//!   executor, a lighter one is a plain loop on the caller;
//! * [`solve_counter`] — the paper's **Algorithm 1**: every cell carries a
//!   counter of outstanding dependencies, completed cells decrement their
//!   neighbours' counters, and cells whose counter reaches zero are handed to
//!   the available processors;
//! * [`solve_memoized`] — the top-down **parallel memoization** of §4.5, with
//!   "in progress" markers and wait-for-notification on cells another
//!   processor is already computing.
//!
//! The three bottom-up solvers do not materialise the dependency DAG of
//! §4.3.  They enumerate the specification once into a flat schedule —
//! dependency lists in one CSR array of `u32` ids (so a table must stay
//! below 2³² cells), cells counting-sorted by level — that costs a dozen
//! allocations whatever the table's size, and all three read order, levels
//! and in-degrees from it.  [`dependency_dag`] builds the DAG itself, as a
//! [`lopram_analysis::Dag`], for the questions that are about the graph:
//! antichain widths, the longest chain, the ideal `p`-processor schedule.
//!
//! The [`problems`] module provides classic dynamic programs covering the
//! spectrum of DAG shapes §4.6 discusses: two-dimensional tables with
//! anti-diagonal antichains (LCS, edit distance), interval tables (matrix
//! chain, optimal BST), row-independent tables (knapsack), a cube (Floyd–
//! Warshall) and the one-dimensional chain for which no speedup is possible.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod memo;
pub mod problems;
pub mod solver;
pub mod spec;

pub use memo::{solve_memoized, MemoRun};
pub use solver::{dependency_dag, solve_counter, solve_sequential, solve_wavefront, DpSolution};
pub use spec::DpProblem;

/// Convenience prelude for the dynamic-programming crate.
pub mod prelude {
    pub use crate::memo::{solve_memoized, MemoRun};
    pub use crate::problems::chain::PrefixChain;
    pub use crate::problems::coin_change::CoinChange;
    pub use crate::problems::edit_distance::EditDistance;
    pub use crate::problems::floyd_warshall::FloydWarshall;
    pub use crate::problems::knapsack::Knapsack;
    pub use crate::problems::lcs::Lcs;
    pub use crate::problems::lis::Lis;
    pub use crate::problems::matrix_chain::MatrixChain;
    pub use crate::problems::optimal_bst::OptimalBst;
    pub use crate::problems::rod_cutting::RodCutting;
    pub use crate::solver::{
        dependency_dag, solve_counter, solve_sequential, solve_wavefront, DpSolution,
    };
    pub use crate::spec::DpProblem;
}
