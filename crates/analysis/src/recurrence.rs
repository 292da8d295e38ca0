//! Divide-and-conquer recurrences and the exact evaluators behind Theorem 1.
//!
//! A recurrence `T(n) = a · T(n/b) + f(n)` (Eq. 1 in the paper) describes the
//! sequential running time of a divide-and-conquer algorithm.  Theorem 1
//! expresses the wall-clock time with `p` processors as
//!
//! ```text
//! T_p(n) = T(n / b^{log_a p}) + Σ_{i=0}^{log_a(p)−1} f(n / b^i)        (Eq. 3)
//! ```
//!
//! and the parallel-merging variant divides the merge term at level `i` by
//! the `min(a^i, p)` processors that can work on it (Eq. 5 context).  The
//! evaluators here compute those quantities *exactly* (by walking the
//! recursion levels), so the tests can check that the step-accurate
//! simulator and the closed-form analysis agree.

use crate::growth::Growth;

/// A divide-and-conquer recurrence `T(n) = a·T(n/b) + f(n)` with a constant
/// cost for base cases of size at most `base_size`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recurrence {
    /// Number of subproblems `a ≥ 1`.
    pub a: u32,
    /// Division factor `b > 1`.
    pub b: u32,
    /// Driving (divide + merge) cost `f(n)`.
    pub f: Growth,
    /// Size below which the problem is solved directly.
    pub base_size: usize,
    /// Cost charged for solving one base case.
    pub base_cost: f64,
}

impl Recurrence {
    /// Create a recurrence; panics when `a < 1` or `b < 2`.
    pub fn new(a: u32, b: u32, f: Growth) -> Self {
        assert!(a >= 1, "a must be at least 1");
        assert!(b >= 2, "b must be at least 2");
        Recurrence {
            a,
            b,
            f,
            base_size: 1,
            base_cost: 1.0,
        }
    }

    /// Set the base-case size (default 1).
    pub fn with_base_size(mut self, base_size: usize) -> Self {
        assert!(base_size >= 1, "base size must be at least 1");
        self.base_size = base_size;
        self
    }

    /// Set the base-case cost (default 1.0).
    pub fn with_base_cost(mut self, base_cost: f64) -> Self {
        self.base_cost = base_cost;
        self
    }

    /// The critical exponent `log_b a`.
    pub fn critical_exponent(&self) -> f64 {
        (self.a as f64).ln() / (self.b as f64).ln()
    }

    /// Number of recursion levels before the subproblem size drops to the
    /// base size: the smallest `d` with `n / b^d ≤ base_size`.
    pub fn depth(&self, n: usize) -> u32 {
        let mut d = 0u32;
        let mut size = n as f64;
        let b = self.b as f64;
        while size > self.base_size as f64 {
            size /= b;
            d += 1;
        }
        d
    }

    /// `⌊log_a p⌋`, the recursion depth at which the number of subproblems
    /// first reaches the processor count (Figure 2).  Returns 0 when `a = 1`
    /// or `p ≤ 1`.
    pub fn parallel_depth(&self, p: usize) -> u32 {
        if self.a <= 1 || p <= 1 {
            return 0;
        }
        let mut depth = 0u32;
        let mut subproblems = 1usize;
        while subproblems.saturating_mul(self.a as usize) <= p {
            subproblems *= self.a as usize;
            depth += 1;
        }
        depth
    }

    /// Size of the subproblem that is executed sequentially once the
    /// processors are exhausted: `n / b^{log_a p}` (Figure 2).
    pub fn sequential_subproblem_size(&self, n: usize, p: usize) -> f64 {
        let k = self.parallel_depth(p);
        n as f64 / (self.b as f64).powi(k as i32)
    }

    /// Exact sequential time `T(n)`: the full recursion-tree sum
    /// `Σ_i a^i · f(n/b^i)` plus the base-case contributions.
    pub fn sequential_time(&self, n: usize) -> f64 {
        if n <= self.base_size {
            return self.base_cost;
        }
        let depth = self.depth(n);
        let mut total = 0.0;
        let mut size = n as f64;
        let mut count = 1.0;
        for _ in 0..depth {
            total += count * self.f.eval(size);
            size /= self.b as f64;
            count *= self.a as f64;
        }
        total += count * self.base_cost;
        total
    }

    /// The parallel wall-clock time of Eq. 3 (sequential merging):
    /// `T_p(n) = T(n / b^{log_a p}) + Σ_{i=0}^{log_a(p)−1} f(n/b^i)`.
    pub fn parallel_time_eq3(&self, n: usize, p: usize) -> f64 {
        if n <= self.base_size || p <= 1 {
            return self.sequential_time(n);
        }
        let k = self.parallel_depth(p);
        let b = self.b as f64;
        let sequential_part = self.sequential_time((n as f64 / b.powi(k as i32)).ceil() as usize);
        let mut merge_part = 0.0;
        let mut size = n as f64;
        for _ in 0..k {
            merge_part += self.f.eval(size);
            size /= b;
        }
        sequential_part + merge_part
    }

    /// The parallel wall-clock time when the merge at every level is itself
    /// parallelised with optimal speedup (Eq. 5 context): the level-`i` merge
    /// costs `(a^i / p) · f(n/b^i)` spread over the processors that exist at
    /// that level, i.e. `f(n/b^i) · a^i / min(a^i·…, p)`; above the parallel
    /// depth every processor works on its own subtree so the sequential
    /// evaluator already accounts for those merges.
    pub fn parallel_time_parallel_merge(&self, n: usize, p: usize) -> f64 {
        if n <= self.base_size || p <= 1 {
            return self.sequential_time(n);
        }
        let k = self.parallel_depth(p);
        let b = self.b as f64;
        let sequential_part = self.sequential_time((n as f64 / b.powi(k as i32)).ceil() as usize);
        let mut merge_part = 0.0;
        let mut size = n as f64;
        let mut level_tasks = 1.0;
        for _ in 0..k {
            // a^i merge tasks of cost f(n/b^i) shared among p processors.
            let total_level_cost = level_tasks * self.f.eval(size);
            merge_part += total_level_cost / (p as f64).min(level_tasks.max(1.0) * p as f64);
            size /= b;
            level_tasks *= self.a as f64;
        }
        sequential_part + merge_part
    }

    /// Predicted speedup `T(n) / T_p(n)` under Eq. 3.
    pub fn predicted_speedup(&self, n: usize, p: usize) -> f64 {
        self.sequential_time(n) / self.parallel_time_eq3(n, p)
    }

    /// Predicted speedup when merging is parallelised (Eq. 5).
    pub fn predicted_speedup_parallel_merge(&self, n: usize, p: usize) -> f64 {
        self.sequential_time(n) / self.parallel_time_parallel_merge(n, p)
    }
}

/// Recurrences for the classic algorithms used throughout the paper.
pub mod catalog {
    use super::*;

    /// Mergesort: `T(n) = 2·T(n/2) + n` (Master case 2).
    pub fn mergesort() -> Recurrence {
        Recurrence::new(2, 2, Growth::linear(1.0))
    }

    /// Karatsuba multiplication: `T(n) = 3·T(n/2) + n` (Master case 1).
    pub fn karatsuba() -> Recurrence {
        Recurrence::new(3, 2, Growth::linear(1.0))
    }

    /// Strassen matrix multiplication: `T(n) = 7·T(n/2) + n²` (Master case 1).
    pub fn strassen() -> Recurrence {
        Recurrence::new(7, 2, Growth::polynomial(1.0, 2.0))
    }

    /// Maximum subarray / closest pair style: `T(n) = 2·T(n/2) + n` (case 2).
    pub fn max_subarray() -> Recurrence {
        Recurrence::new(2, 2, Growth::linear(1.0))
    }

    /// A dominant-merge workload: `T(n) = 2·T(n/2) + n²` (Master case 3).
    pub fn quadratic_merge() -> Recurrence {
        Recurrence::new(2, 2, Growth::polynomial(1.0, 2.0))
    }

    /// Four-way polynomial multiplication: `T(n) = 4·T(n/2) + n` (case 1).
    pub fn poly_mul_four_way() -> Recurrence {
        Recurrence::new(4, 2, Growth::linear(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::catalog;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn critical_exponent_matches_known_values() {
        assert!((catalog::mergesort().critical_exponent() - 1.0).abs() < 1e-12);
        assert!((catalog::karatsuba().critical_exponent() - 1.585).abs() < 1e-3);
        assert!((catalog::strassen().critical_exponent() - 2.807).abs() < 1e-3);
    }

    #[test]
    fn depth_counts_levels() {
        let r = catalog::mergesort();
        assert_eq!(r.depth(1), 0);
        assert_eq!(r.depth(2), 1);
        assert_eq!(r.depth(1024), 10);
        let r3 = Recurrence::new(2, 3, Growth::linear(1.0));
        assert_eq!(r3.depth(27), 3);
    }

    #[test]
    fn parallel_depth_is_floor_log_a_p() {
        let ms = catalog::mergesort();
        assert_eq!(ms.parallel_depth(1), 0);
        assert_eq!(ms.parallel_depth(2), 1);
        assert_eq!(ms.parallel_depth(3), 1);
        assert_eq!(ms.parallel_depth(4), 2);
        assert_eq!(ms.parallel_depth(8), 3);
        let strassen = catalog::strassen();
        assert_eq!(strassen.parallel_depth(7), 1);
        assert_eq!(strassen.parallel_depth(48), 1);
        assert_eq!(strassen.parallel_depth(49), 2);
    }

    #[test]
    fn sequential_time_mergesort_is_n_log_n_like() {
        let r = catalog::mergesort();
        // T(n) = n log2 n + n (base cost 1 per leaf).
        let t = r.sequential_time(1024);
        assert!((t - (1024.0 * 10.0 + 1024.0)).abs() < 1e-6);
    }

    #[test]
    fn sequential_time_base_case() {
        let r = catalog::mergesort().with_base_cost(5.0);
        assert_eq!(r.sequential_time(1), 5.0);
    }

    #[test]
    fn eq3_matches_hand_computation_for_mergesort() {
        // n = 1024, p = 4: T_p = T(256) + f(1024) + f(512)
        let r = catalog::mergesort();
        let expected = r.sequential_time(256) + 1024.0 + 512.0;
        assert!((r.parallel_time_eq3(1024, 4) - expected).abs() < 1e-9);
    }

    #[test]
    fn eq3_with_one_processor_is_sequential() {
        let r = catalog::karatsuba();
        assert_eq!(r.parallel_time_eq3(4096, 1), r.sequential_time(4096));
    }

    #[test]
    fn case1_and_case2_predict_near_linear_speedup() {
        // Eq. 3 uses ⌊log_a p⌋ levels of parallel recursion, so the cleanest
        // check is at processor counts that are powers of a.
        let configs: [(Recurrence, &str, [usize; 2]); 3] = [
            (catalog::karatsuba(), "karatsuba", [3, 9]),
            (catalog::strassen(), "strassen", [7, 49]),
            (catalog::mergesort(), "mergesort", [4, 8]),
        ];
        for (r, label, ps) in configs {
            let n = 1 << 20;
            for p in ps {
                let s = r.predicted_speedup(n, p);
                // The paper promises O(T/p); allow generous slack for the
                // lower-order merge terms at moderate n.
                assert!(
                    s > 0.5 * p as f64,
                    "{label}: speedup {s} too low for p = {p}"
                );
                assert!(s <= p as f64 + 1e-6, "{label}: speedup cannot exceed p");
            }
        }
    }

    #[test]
    fn case3_sequential_merge_has_no_speedup() {
        let r = catalog::quadratic_merge();
        let n = 1 << 14;
        let s = r.predicted_speedup(n, 8);
        // T_p is dominated by f(n) = n², so speedup tends to T(n)/f(n) ≈ 2.
        assert!(
            s < 2.5,
            "case 3 speedup should be bounded by a constant, got {s}"
        );
    }

    #[test]
    fn case3_parallel_merge_restores_speedup() {
        let r = catalog::quadratic_merge();
        let n = 1 << 14;
        for p in [2usize, 4, 8] {
            let s = r.predicted_speedup_parallel_merge(n, p);
            assert!(
                s > 0.6 * p as f64,
                "parallel merging should give Θ(f(n)/p); got {s} for p = {p}"
            );
        }
    }

    #[test]
    fn sequential_subproblem_size_matches_figure2() {
        let r = catalog::mergesort();
        assert!((r.sequential_subproblem_size(1024, 4) - 256.0).abs() < 1e-9);
        assert!((r.sequential_subproblem_size(1024, 8) - 128.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "b must be at least 2")]
    fn rejects_b_less_than_two() {
        let _ = Recurrence::new(2, 1, Growth::linear(1.0));
    }

    proptest! {
        #[test]
        fn parallel_time_never_exceeds_sequential(n in 2usize..100_000, p in 1usize..64) {
            let r = catalog::mergesort();
            prop_assert!(r.parallel_time_eq3(n, p) <= r.sequential_time(n) + 1e-6);
        }

        #[test]
        fn parallel_merge_never_slower_than_sequential_merge(n in 2usize..100_000, p in 1usize..64) {
            let r = catalog::quadratic_merge();
            prop_assert!(
                r.parallel_time_parallel_merge(n, p) <= r.parallel_time_eq3(n, p) + 1e-6
            );
        }

        #[test]
        fn speedup_bounded_by_p(n in 16usize..1_000_000, p in 1usize..64) {
            for r in [catalog::mergesort(), catalog::karatsuba(), catalog::strassen()] {
                let s = r.predicted_speedup(n, p);
                prop_assert!(s <= p as f64 + 1e-6);
                prop_assert!(s >= 1.0 - 1e-6);
            }
        }

        #[test]
        fn depth_times_b_covers_n(n in 1usize..1_000_000) {
            let r = catalog::mergesort();
            let d = r.depth(n);
            prop_assert!((n as f64) / 2f64.powi(d as i32) <= 1.0 + 1e-9);
        }
    }
}
