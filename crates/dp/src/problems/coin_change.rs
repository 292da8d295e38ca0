//! Coin change: count the ways to make an amount from a set of coin
//! denominations (order-insensitive).
//!
//! The `(coins+1) × (amount+1)` table is row-staged like knapsack but the
//! in-row dependency (`same row, amount − coin`) makes each row a chain of
//! its own — a DAG whose width depends on the denominations, exercising the
//! less regular shapes §4.6 anticipates.

use crate::spec::DpProblem;

/// Coin-change counting as a dynamic program.
#[derive(Debug, Clone)]
pub struct CoinChange {
    coins: Vec<usize>,
    amount: usize,
}

impl CoinChange {
    /// Create the problem; coins must be non-zero.
    pub fn new(coins: Vec<usize>, amount: usize) -> Self {
        assert!(coins.iter().all(|&c| c > 0), "coin values must be positive");
        CoinChange { coins, amount }
    }

    fn cols(&self) -> usize {
        self.amount + 1
    }

    fn cell(&self, coin: usize, amt: usize) -> usize {
        coin * self.cols() + amt
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u64 {
        let mut dp = vec![0u64; self.amount + 1];
        dp[0] = 1;
        for &c in &self.coins {
            for amt in c..=self.amount {
                dp[amt] += dp[amt - c];
            }
        }
        dp[self.amount]
    }
}

impl DpProblem for CoinChange {
    type Value = u64;

    fn num_cells(&self) -> usize {
        (self.coins.len() + 1) * self.cols()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let coin = cell / self.cols();
        let amt = cell % self.cols();
        if coin == 0 {
            return;
        }
        out.push(self.cell(coin - 1, amt));
        let c = self.coins[coin - 1];
        if c <= amt {
            out.push(self.cell(coin, amt - c));
        }
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        let coin = cell / self.cols();
        let amt = cell % self.cols();
        if coin == 0 {
            return u64::from(amt == 0);
        }
        let without = get(self.cell(coin - 1, amt));
        let c = self.coins[coin - 1];
        if c <= amt {
            without + get(self.cell(coin, amt - c))
        } else {
            without
        }
    }

    fn goal_cell(&self) -> usize {
        self.cell(self.coins.len(), self.amount)
    }

    fn name(&self) -> &'static str {
        "coin-change"
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
    fn known_cases() {
        assert_eq!(CoinChange::new(vec![1, 2, 5], 5).reference(), 4);
        assert_eq!(CoinChange::new(vec![2], 3).reference(), 0);
        assert_eq!(CoinChange::new(vec![1, 2, 3], 4).reference(), 4);
        assert_eq!(CoinChange::new(vec![5], 0).reference(), 1);
        assert_eq!(CoinChange::new(vec![], 0).reference(), 1);
        assert_eq!(CoinChange::new(vec![], 3).reference(), 0);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = CoinChange::new(vec![1, 2, 5, 10, 20], 60);
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn duplicate_denominations_count_separately() {
        // Two identical coins double-count combinations that use them, by design
        // of the row-staged formulation; the reference and the DP must agree.
        let p = CoinChange::new(vec![2, 2], 4);
        assert_eq!(solve_sequential(&p).goal, p.reference());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_parallel_matches_reference(
            coins in proptest::collection::vec(1usize..10, 0..5),
            amount in 0usize..40
        ) {
            let p = CoinChange::new(coins, amount);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }
    }
}
