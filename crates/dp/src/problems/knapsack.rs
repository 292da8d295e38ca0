//! 0/1 knapsack.
//!
//! The `(items+1) × (capacity+1)` table where row `i` depends only on row
//! `i−1`: every row is an antichain of width `capacity+1`, so the DAG is wide
//! and shallow — the friendliest shape for the paper's schedulers.

use crate::spec::DpProblem;

/// 0/1 knapsack as a dynamic program.
#[derive(Debug, Clone)]
pub struct Knapsack {
    weights: Vec<usize>,
    values: Vec<u64>,
    capacity: usize,
}

impl Knapsack {
    /// Create the problem; panics when `weights` and `values` differ in length.
    pub fn new(weights: Vec<usize>, values: Vec<u64>, capacity: usize) -> Self {
        assert_eq!(
            weights.len(),
            values.len(),
            "weights and values must pair up"
        );
        Knapsack {
            weights,
            values,
            capacity,
        }
    }

    fn cols(&self) -> usize {
        self.capacity + 1
    }

    fn cell(&self, item: usize, cap: usize) -> usize {
        item * self.cols() + cap
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u64 {
        let mut dp = vec![0u64; self.cols()];
        for i in 0..self.weights.len() {
            for cap in (0..=self.capacity).rev() {
                if self.weights[i] <= cap {
                    dp[cap] = dp[cap].max(dp[cap - self.weights[i]] + self.values[i]);
                }
            }
        }
        dp[self.capacity]
    }
}

impl DpProblem for Knapsack {
    type Value = u64;

    fn num_cells(&self) -> usize {
        (self.weights.len() + 1) * self.cols()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let item = cell / self.cols();
        let cap = cell % self.cols();
        if item == 0 {
            return;
        }
        out.push(self.cell(item - 1, cap));
        let w = self.weights[item - 1];
        if w <= cap {
            out.push(self.cell(item - 1, cap - w));
        }
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        let item = cell / self.cols();
        let cap = cell % self.cols();
        if item == 0 {
            return 0;
        }
        let without = get(self.cell(item - 1, cap));
        let w = self.weights[item - 1];
        if w <= cap {
            without.max(get(self.cell(item - 1, cap - w)) + self.values[item - 1])
        } else {
            without
        }
    }

    fn goal_cell(&self) -> usize {
        self.cell(self.weights.len(), self.capacity)
    }

    fn name(&self) -> &'static str {
        "knapsack"
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
        let p = Knapsack::new(vec![1, 3, 4, 5], vec![1, 4, 5, 7], 7);
        assert_eq!(p.reference(), 9);
        let trivial = Knapsack::new(vec![], vec![], 10);
        assert_eq!(trivial.reference(), 0);
        let too_heavy = Knapsack::new(vec![10, 20], vec![100, 200], 5);
        assert_eq!(too_heavy.reference(), 0);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = Knapsack::new(
            vec![2, 3, 4, 5, 9, 7, 1, 6],
            vec![3, 4, 5, 8, 10, 7, 1, 6],
            20,
        );
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn dag_is_row_staged() {
        let p = Knapsack::new(vec![2, 3], vec![5, 6], 6);
        let dag = dependency_dag(&p);
        // Longest chain = number of item rows + 1.
        assert_eq!(dag.longest_chain(), 3);
        // Width equals the number of capacity columns.
        assert_eq!(dag.max_width(), 7);
    }

    #[test]
    fn zero_capacity() {
        let p = Knapsack::new(vec![1, 2], vec![10, 20], 0);
        assert_eq!(p.reference(), 0);
        assert_eq!(solve_sequential(&p).goal, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_parallel_matches_reference(
            items in proptest::collection::vec((1usize..8, 1u64..30), 0..8),
            capacity in 0usize..25
        ) {
            let (weights, values): (Vec<usize>, Vec<u64>) = items.into_iter().unzip();
            let p = Knapsack::new(weights, values, capacity);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }

        #[test]
        fn prop_value_monotone_in_capacity(
            items in proptest::collection::vec((1usize..6, 1u64..20), 1..6),
            capacity in 1usize..20
        ) {
            let (weights, values): (Vec<usize>, Vec<u64>) = items.into_iter().unzip();
            let smaller = Knapsack::new(weights.clone(), values.clone(), capacity - 1).reference();
            let larger = Knapsack::new(weights, values, capacity).reference();
            prop_assert!(larger >= smaller);
        }
    }
}
