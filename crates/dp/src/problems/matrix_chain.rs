//! Optimal matrix-chain multiplication order (Bradford's flagship problem,
//! cited in §4.2).
//!
//! Interval DP: cell `(i, j)` is the minimum number of scalar multiplications
//! needed for the product `A_i ⋯ A_j`.  The antichains of the dependency DAG
//! are the diagonals of fixed chain length, so the available parallelism
//! grows and then shrinks as the evaluation proceeds — a different profile
//! from the rectangular string problems.

use crate::spec::DpProblem;

/// Matrix-chain ordering as a dynamic program over intervals.
#[derive(Debug, Clone)]
pub struct MatrixChain {
    /// Matrix `A_k` has dimensions `dims[k] × dims[k+1]`.
    dims: Vec<u64>,
}

impl MatrixChain {
    /// Create the problem from the dimension vector (`n+1` entries for `n`
    /// matrices).  Panics when fewer than two entries are supplied.
    pub fn new(dims: Vec<u64>) -> Self {
        assert!(dims.len() >= 2, "need at least one matrix (two dimensions)");
        MatrixChain { dims }
    }

    /// Number of matrices in the chain.
    pub fn matrices(&self) -> usize {
        self.dims.len() - 1
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.matrices() + j
    }

    fn coords(&self, cell: usize) -> (usize, usize) {
        (cell / self.matrices(), cell % self.matrices())
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u64 {
        let n = self.matrices();
        let mut dp = vec![vec![0u64; n]; n];
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                dp[i][j] = u64::MAX;
                for k in i..j {
                    let cost = dp[i][k]
                        + dp[k + 1][j]
                        + self.dims[i] * self.dims[k + 1] * self.dims[j + 1];
                    dp[i][j] = dp[i][j].min(cost);
                }
            }
        }
        dp[0][n - 1]
    }
}

impl DpProblem for MatrixChain {
    type Value = u64;

    fn num_cells(&self) -> usize {
        self.matrices() * self.matrices()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let (i, j) = self.coords(cell);
        let start = out.len();
        for k in i..j {
            out.push(self.cell(i, k));
            out.push(self.cell(k + 1, j));
        }
        super::sort_dedup_from(out, start);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        let (i, j) = self.coords(cell);
        if i >= j {
            return 0;
        }
        let mut best = u64::MAX;
        for k in i..j {
            let cost = get(self.cell(i, k))
                + get(self.cell(k + 1, j))
                + self.dims[i] * self.dims[k + 1] * self.dims[j + 1];
            best = best.min(cost);
        }
        best
    }

    fn goal_cell(&self) -> usize {
        self.cell(0, self.matrices() - 1)
    }

    fn name(&self) -> &'static str {
        "matrix-chain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::solve_memoized;
    use crate::solver::{dependency_dag, solve_counter, solve_sequential, solve_wavefront};
    use lopram_core::{PalPool, SeqExecutor};
    use proptest::prelude::*;

    #[test]
    fn clrs_example() {
        // CLRS 15.2: dimensions 30x35, 35x15, 15x5, 5x10, 10x20, 20x25 → 15125.
        let p = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]);
        assert_eq!(p.reference(), 15_125);
    }

    #[test]
    fn single_matrix_costs_nothing() {
        let p = MatrixChain::new(vec![10, 20]);
        assert_eq!(p.reference(), 0);
        assert_eq!(solve_sequential(&p).goal, 0);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25, 40, 8, 12]);
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn memoization_skips_lower_triangle() {
        let p = MatrixChain::new(vec![4, 5, 6, 7, 8, 9, 10, 11]);
        let run = solve_memoized(&p, &SeqExecutor);
        assert_eq!(run.goal, p.reference());
        // Only the upper triangle (including diagonal) is reachable.
        let n = p.matrices();
        assert!(run.computed_cells <= n * (n + 1) / 2);
    }

    #[test]
    fn dag_height_equals_chain_length() {
        let p = MatrixChain::new(vec![2; 9]); // 8 matrices
        let dag = dependency_dag(&p);
        // Levels correspond to interval lengths 1..=8.
        assert_eq!(dag.longest_chain(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_parallel_matches_reference(dims in proptest::collection::vec(1u64..30, 2..12)) {
            let p = MatrixChain::new(dims);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
            prop_assert_eq!(solve_memoized(&p, &pool).goal, expected);
        }
    }
}
