//! The one-dimensional chain DP — the paper's explicit *negative* example.
//!
//! §4.3: "In certain cases, such as one dimensional dynamic programming the
//! DAG is a path and hence there is no speedup possible."  [`PrefixChain`]
//! computes running prefix aggregates where every cell depends only on its
//! predecessor, so the dependency DAG is a path: the antichain decomposition
//! has width 1 and every scheduler degenerates to sequential execution: its
//! speedup bound is 1 regardless of `p`.

use crate::spec::DpProblem;

/// A strictly sequential prefix-recurrence `M[i] = g(M[i−1], a_i)`.
#[derive(Debug, Clone)]
pub struct PrefixChain {
    values: Vec<i64>,
}

impl PrefixChain {
    /// Create the chain over the given inputs.
    pub fn new(values: Vec<i64>) -> Self {
        assert!(!values.is_empty(), "need at least one element");
        PrefixChain { values }
    }

    /// Reference implementation of the recurrence
    /// `M[i] = M[i−1] ⊕ a_i` where `⊕` mixes the running state non-linearly
    /// (so the recurrence cannot be trivially reassociated).
    pub fn reference(&self) -> i64 {
        let mut state = 0i64;
        for &v in &self.values {
            state = step(state, v);
        }
        state
    }

    /// Number of input elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the chain has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

fn step(state: i64, value: i64) -> i64 {
    // A non-associative mixing step: order matters, so the chain cannot be
    // parallelised by re-association.
    state
        .wrapping_mul(31)
        .wrapping_add(value)
        .rotate_left(7)
        .wrapping_sub(state >> 3)
}

impl DpProblem for PrefixChain {
    type Value = i64;

    fn num_cells(&self) -> usize {
        self.values.len()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        if cell > 0 {
            out.push(cell - 1);
        }
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> i64) -> i64 {
        let prev = if cell == 0 { 0 } else { get(cell - 1) };
        step(prev, self.values[cell])
    }

    fn name(&self) -> &'static str {
        "prefix-chain"
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
    fn dp_matches_reference() {
        let p = PrefixChain::new((0..1000).map(|i| i * 3 - 500).collect());
        let expected = p.reference();
        assert_eq!(solve_sequential(&p).goal, expected);
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn dag_is_a_path_with_no_parallelism() {
        let p = PrefixChain::new(vec![1; 200]);
        let dag = dependency_dag(&p);
        assert_eq!(dag.longest_chain(), 200);
        assert_eq!(dag.max_width(), 1);
        assert!((dag.max_speedup(8) - 1.0).abs() < 1e-12);
        assert_eq!(dag.greedy_schedule_length(8), 200);
    }

    #[test]
    fn order_sensitivity_of_the_recurrence() {
        let forward = PrefixChain::new(vec![1, 2, 3, 4, 5]).reference();
        let backward = PrefixChain::new(vec![5, 4, 3, 2, 1]).reference();
        assert_ne!(forward, backward, "the chain must not be reassociable");
    }

    proptest! {
        #[test]
        fn prop_all_schedulers_agree(values in proptest::collection::vec(-1000i64..1000, 1..120)) {
            let p = PrefixChain::new(values);
            let expected = p.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(solve_sequential(&p).goal, expected);
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }
    }
}
