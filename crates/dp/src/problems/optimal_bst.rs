//! Optimal binary search tree construction — the second problem Bradford's
//! parallel-DP work targets (§4.2).
//!
//! Interval DP over key ranges: `e(i, j)` is the expected search cost of an
//! optimal BST over keys `i..j` with access probabilities `p`.  The DAG has
//! the same diagonal antichain structure as matrix-chain ordering.

use crate::spec::DpProblem;

/// Optimal BST expected-cost table as a dynamic program.
///
/// Costs are scaled to integers (frequencies rather than probabilities), as
/// is conventional for exact comparisons in tests.
#[derive(Debug, Clone)]
pub struct OptimalBst {
    freq: Vec<u64>,
    prefix: Vec<u64>,
}

impl OptimalBst {
    /// Create the problem from per-key access frequencies.
    pub fn new(freq: Vec<u64>) -> Self {
        assert!(!freq.is_empty(), "need at least one key");
        let mut prefix = vec![0u64; freq.len() + 1];
        for (i, &f) in freq.iter().enumerate() {
            prefix[i + 1] = prefix[i] + f;
        }
        OptimalBst { freq, prefix }
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.freq.len()
    }

    fn range_sum(&self, i: usize, j: usize) -> u64 {
        self.prefix[j + 1] - self.prefix[i]
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.keys() + j
    }

    fn coords(&self, cell: usize) -> (usize, usize) {
        (cell / self.keys(), cell % self.keys())
    }

    /// Plain sequential reference implementation (`O(n³)`).
    pub fn reference(&self) -> u64 {
        let n = self.keys();
        let mut dp = vec![vec![0u64; n]; n];
        for (i, row) in dp.iter_mut().enumerate() {
            row[i] = self.freq[i];
        }
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                let mut best = u64::MAX;
                for r in i..=j {
                    let left = if r > i { dp[i][r - 1] } else { 0 };
                    let right = if r < j { dp[r + 1][j] } else { 0 };
                    best = best.min(left + right);
                }
                dp[i][j] = best + self.range_sum(i, j);
            }
        }
        dp[0][n - 1]
    }
}

impl DpProblem for OptimalBst {
    type Value = u64;

    fn num_cells(&self) -> usize {
        self.keys() * self.keys()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let (i, j) = self.coords(cell);
        if i >= j {
            return;
        }
        let start = out.len();
        for r in i..=j {
            if r > i {
                out.push(self.cell(i, r - 1));
            }
            if r < j {
                out.push(self.cell(r + 1, j));
            }
        }
        super::sort_dedup_from(out, start);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        let (i, j) = self.coords(cell);
        if i > j {
            return 0;
        }
        if i == j {
            return self.freq[i];
        }
        let mut best = u64::MAX;
        for r in i..=j {
            let left = if r > i { get(self.cell(i, r - 1)) } else { 0 };
            let right = if r < j { get(self.cell(r + 1, j)) } else { 0 };
            best = best.min(left + right);
        }
        best + self.range_sum(i, j)
    }

    fn goal_cell(&self) -> usize {
        self.cell(0, self.keys() - 1)
    }

    fn name(&self) -> &'static str {
        "optimal-bst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::solve_memoized;
    use crate::solver::{solve_counter, solve_sequential, solve_wavefront};
    use lopram_core::PalPool;
    use proptest::prelude::*;

    #[test]
    fn textbook_example() {
        // Keys with frequencies 34, 8, 50: optimal cost 142 (classic example).
        let p = OptimalBst::new(vec![34, 8, 50]);
        assert_eq!(p.reference(), 142);
    }

    #[test]
    fn single_key_costs_its_frequency() {
        let p = OptimalBst::new(vec![7]);
        assert_eq!(p.reference(), 7);
        assert_eq!(solve_sequential(&p).goal, 7);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = OptimalBst::new(vec![34, 8, 50, 21, 13, 5, 40, 2]);
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn uniform_frequencies_give_balanced_cost() {
        // For 7 equal-frequency keys the optimal BST is the balanced tree:
        // cost = Σ freq · depth = 1·1 + 2·2 + 4·3 = 17 with freq 1.
        let p = OptimalBst::new(vec![1; 7]);
        assert_eq!(p.reference(), 17);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn prop_parallel_matches_reference(freq in proptest::collection::vec(1u64..50, 1..10)) {
            let p = OptimalBst::new(freq);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
            prop_assert_eq!(solve_memoized(&p, &pool).goal, expected);
        }
    }
}
