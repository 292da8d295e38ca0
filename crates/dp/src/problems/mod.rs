//! Classic dynamic programs expressed as [`DpProblem`](crate::DpProblem)s.
//!
//! The suite covers the DAG shapes §4.3/§4.6 of the paper distinguishes:
//!
//! * two-dimensional tables whose antichains are anti-diagonals — [`lcs`],
//!   [`edit_distance`] (the string-editing family of Apostolico et al. that
//!   the paper cites);
//! * interval ("parenthesisation") tables whose antichains are diagonals of
//!   fixed interval length — [`matrix_chain`], [`optimal_bst`] (the problems
//!   Bradford's technical report targets);
//! * row-staged tables where each row only depends on the previous one —
//!   [`knapsack`], [`coin_change`], [`rod_cutting`];
//! * a three-dimensional cube — [`floyd_warshall`];
//! * an all-pairs-dependent table — [`lis`];
//! * the one-dimensional chain with **no** parallelism, the paper's explicit
//!   negative example — [`chain`].

pub mod chain;
pub mod coin_change;
pub mod edit_distance;
pub mod floyd_warshall;
pub mod knapsack;
pub mod lcs;
pub mod lis;
pub mod matrix_chain;
pub mod optimal_bst;
pub mod rod_cutting;

/// Sort `out[start..]` and drop its duplicates, leaving `out[..start]` as it
/// is: [`dependencies`](crate::DpProblem::dependencies) appends, so an
/// implementation that lists a cell once per recurrence term tidies only its
/// own tail of the buffer.
fn sort_dedup_from(out: &mut Vec<usize>, start: usize) {
    out[start..].sort_unstable();
    let mut kept = start;
    for read in start..out.len() {
        if kept == start || out[read] != out[kept - 1] {
            out[kept] = out[read];
            kept += 1;
        }
    }
    out.truncate(kept);
}
