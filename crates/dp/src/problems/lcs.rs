//! Longest common subsequence.
//!
//! The `(|a|+1) × (|b|+1)` table with the north/west/north-west dependency
//! pattern: its antichains are the anti-diagonals, so the DAG has width
//! `Θ(min(|a|, |b|))` and the paper's schedulers obtain `O(T(n)/p)` for
//! `p = O(log n)`.

use crate::spec::DpProblem;

/// Longest-common-subsequence length as a dynamic program.
#[derive(Debug, Clone)]
pub struct Lcs {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl Lcs {
    /// Create the problem for two byte strings.
    pub fn new(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        Lcs {
            a: a.into(),
            b: b.into(),
        }
    }

    fn cols(&self) -> usize {
        self.b.len() + 1
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.cols() + j
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u32 {
        let (n, m) = (self.a.len(), self.b.len());
        let mut dp = vec![vec![0u32; m + 1]; n + 1];
        for i in 1..=n {
            for j in 1..=m {
                dp[i][j] = if self.a[i - 1] == self.b[j - 1] {
                    dp[i - 1][j - 1] + 1
                } else {
                    dp[i - 1][j].max(dp[i][j - 1])
                };
            }
        }
        dp[n][m]
    }
}

impl DpProblem for Lcs {
    type Value = u32;

    fn num_cells(&self) -> usize {
        (self.a.len() + 1) * self.cols()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let i = cell / self.cols();
        let j = cell % self.cols();
        if i == 0 || j == 0 {
            return;
        }
        out.extend([
            self.cell(i - 1, j - 1),
            self.cell(i - 1, j),
            self.cell(i, j - 1),
        ]);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u32) -> u32 {
        let i = cell / self.cols();
        let j = cell % self.cols();
        if i == 0 || j == 0 {
            return 0;
        }
        if self.a[i - 1] == self.b[j - 1] {
            get(self.cell(i - 1, j - 1)) + 1
        } else {
            get(self.cell(i - 1, j)).max(get(self.cell(i, j - 1)))
        }
    }

    fn goal_cell(&self) -> usize {
        self.cell(self.a.len(), self.b.len())
    }

    fn grid(&self) -> Option<(usize, usize)> {
        Some((self.a.len() + 1, self.cols()))
    }

    fn name(&self) -> &'static str {
        "lcs"
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
    fn known_cases() {
        assert_eq!(Lcs::new(*b"ABCBDAB", *b"BDCABA").reference(), 4);
        assert_eq!(Lcs::new(*b"", *b"anything").reference(), 0);
        assert_eq!(Lcs::new(*b"same", *b"same").reference(), 4);
        assert_eq!(Lcs::new(*b"abc", *b"def").reference(), 0);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = Lcs::new(
            *b"parallel algorithmic threads",
            *b"low degree parallel ram",
        );
        let expected = p.reference();
        assert_eq!(solve_sequential(&p).goal, expected);
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
        assert_eq!(solve_wavefront(&p, &SeqExecutor).goal, expected);
    }

    #[test]
    fn dag_antichains_are_antidiagonals() {
        let p = Lcs::new(*b"abcd", *b"xyz");
        let dag = dependency_dag(&p);
        // All border cells are base cases (level 0); interior cell (i, j)
        // sits at level i + j − 1, so the longest chain has |a| + |b| levels.
        assert_eq!(dag.longest_chain(), 4 + 3);
        assert!(dag.levels().validate(&dag));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_parallel_matches_reference(
            a in proptest::collection::vec(0u8..4, 0..24),
            b in proptest::collection::vec(0u8..4, 0..24)
        ) {
            let p = Lcs::new(a, b);
            let pool = PalPool::new(3).unwrap();
            let expected = p.reference();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
            prop_assert_eq!(solve_memoized(&p, &pool).goal, expected);
        }
    }
}
