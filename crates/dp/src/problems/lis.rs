//! Longest increasing subsequence.
//!
//! Cell `i` = length of the longest increasing subsequence ending at index
//! `i`; it depends on **all** earlier cells, so the dependency DAG is the
//! transitive tournament: longest chain `n`, yet each level is computed from
//! `O(n)` reads — a stress test for schedulers on dense dependency lists.

use crate::spec::DpProblem;

/// Longest increasing subsequence as a dynamic program.
#[derive(Debug, Clone)]
pub struct Lis {
    values: Vec<i64>,
}

impl Lis {
    /// Create the problem for a sequence of values.
    pub fn new(values: Vec<i64>) -> Self {
        assert!(!values.is_empty(), "need at least one element");
        Lis { values }
    }

    /// Plain sequential reference implementation (`O(n²)`).
    pub fn reference(&self) -> u32 {
        let n = self.values.len();
        let mut dp = vec![1u32; n];
        let mut best = 1;
        for i in 1..n {
            for j in 0..i {
                if self.values[j] < self.values[i] {
                    dp[i] = dp[i].max(dp[j] + 1);
                }
            }
            best = best.max(dp[i]);
        }
        best
    }
}

impl DpProblem for Lis {
    type Value = u32;

    fn num_cells(&self) -> usize {
        // One cell per element plus a final aggregation cell.
        self.values.len() + 1
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        // The goal cell `n` reads all of `0..n`, like every other cell.
        out.extend(0..cell);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u32) -> u32 {
        let n = self.values.len();
        if cell == n {
            return (0..n).map(get).max().unwrap_or(0);
        }
        let mut best = 1;
        for j in 0..cell {
            if self.values[j] < self.values[cell] {
                best = best.max(get(j) + 1);
            }
        }
        best
    }

    fn goal_cell(&self) -> usize {
        self.values.len()
    }

    fn name(&self) -> &'static str {
        "lis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::solve_memoized;
    use crate::solver::{dependency_dag, solve_counter, solve_sequential, solve_wavefront};
    use lopram_core::PalPool;
    use proptest::prelude::*;

    #[test]
    fn known_cases() {
        assert_eq!(Lis::new(vec![10, 9, 2, 5, 3, 7, 101, 18]).reference(), 4);
        assert_eq!(Lis::new(vec![1, 2, 3, 4]).reference(), 4);
        assert_eq!(Lis::new(vec![4, 3, 2, 1]).reference(), 1);
        assert_eq!(Lis::new(vec![7]).reference(), 1);
        assert_eq!(Lis::new(vec![2, 2, 2]).reference(), 1);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = Lis::new(vec![
            3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
        ]);
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn dag_is_a_transitive_tournament() {
        let p = Lis::new(vec![5, 1, 8, 2]);
        let dag = dependency_dag(&p);
        // Every cell depends on all previous ones: longest chain = n + 1.
        assert_eq!(dag.longest_chain(), 5);
        assert_eq!(dag.max_width(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_parallel_matches_reference(values in proptest::collection::vec(-50i64..50, 1..40)) {
            let p = Lis::new(values);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }

        #[test]
        fn prop_lis_of_sorted_is_distinct_count(mut values in proptest::collection::vec(-50i64..50, 1..40)) {
            values.sort();
            let expected = {
                let mut v = values.clone();
                v.dedup();
                v.len() as u32
            };
            prop_assert_eq!(Lis::new(values).reference(), expected);
        }
    }
}
