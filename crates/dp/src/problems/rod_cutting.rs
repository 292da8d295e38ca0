//! Rod cutting: maximise revenue from cutting a rod of length `n` given a
//! price per piece length.
//!
//! Cell `i` depends on all cells `< i`, like LIS, but each cell also reads a
//! price table — a second dense-dependency problem with different work per
//! cell, useful for exercising load balancing in the schedulers.

use crate::spec::DpProblem;

/// Rod cutting as a dynamic program.
#[derive(Debug, Clone)]
pub struct RodCutting {
    prices: Vec<u64>,
    length: usize,
}

impl RodCutting {
    /// `prices[k]` is the price of a piece of length `k + 1`; `length` is the
    /// rod length to cut.
    pub fn new(prices: Vec<u64>, length: usize) -> Self {
        assert!(!prices.is_empty(), "need at least one piece price");
        RodCutting { prices, length }
    }

    fn price(&self, piece: usize) -> u64 {
        if piece == 0 {
            0
        } else {
            self.prices.get(piece - 1).copied().unwrap_or(0)
        }
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u64 {
        let mut dp = vec![0u64; self.length + 1];
        for len in 1..=self.length {
            for cut in 1..=len {
                dp[len] = dp[len].max(self.price(cut) + dp[len - cut]);
            }
        }
        dp[self.length]
    }
}

impl DpProblem for RodCutting {
    type Value = u64;

    fn num_cells(&self) -> usize {
        self.length + 1
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        out.extend(0..cell);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        if cell == 0 {
            return 0;
        }
        let mut best = 0;
        for cut in 1..=cell {
            best = best.max(self.price(cut) + get(cell - cut));
        }
        best
    }

    fn name(&self) -> &'static str {
        "rod-cutting"
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
    fn clrs_example() {
        // CLRS prices for lengths 1..10; rod of length 10 → 30, length 7 → 18.
        let prices = vec![1, 5, 8, 9, 10, 17, 17, 20, 24, 30];
        assert_eq!(RodCutting::new(prices.clone(), 10).reference(), 30);
        assert_eq!(RodCutting::new(prices.clone(), 7).reference(), 18);
        assert_eq!(RodCutting::new(prices, 0).reference(), 0);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = RodCutting::new(vec![1, 5, 8, 9, 10, 17, 17, 20, 24, 30], 25);
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn lengths_beyond_price_table_use_combinations() {
        // Only length-1 pieces priced: revenue = length × price.
        let p = RodCutting::new(vec![3], 9);
        assert_eq!(p.reference(), 27);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_parallel_matches_reference(
            prices in proptest::collection::vec(0u64..40, 1..10),
            length in 0usize..40
        ) {
            let p = RodCutting::new(prices, length);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }

        #[test]
        fn prop_revenue_monotone_in_length(
            prices in proptest::collection::vec(0u64..40, 1..10),
            length in 1usize..30
        ) {
            let shorter = RodCutting::new(prices.clone(), length - 1).reference();
            let longer = RodCutting::new(prices, length).reference();
            prop_assert!(longer >= shorter);
        }
    }
}
