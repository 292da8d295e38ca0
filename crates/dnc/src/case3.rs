//! A Master-theorem case-3 workload: dominant merge cost.
//!
//! The recursion computes `Σ_{i<j} a_i · a_j` (the sum of products over all
//! unordered pairs) the divide-and-conquer way: solve both halves, then merge
//! by *explicitly* accumulating every cross pair — `Θ(n²)` merge work, so
//! `T(n) = 2T(n/2) + Θ(n²)` and the root merge dominates (case 3).
//!
//! * With a **sequential merge** Theorem 1 predicts `T_p(n) = Θ(f(n))`: extra
//!   processors buy nothing.
//! * With a **parallel merge** ([`CrossMergeMode::Parallel`]) the cross
//!   accumulation is spread over the processors and Eq. 5 predicts
//!   `Θ(f(n)/p)` — linear speedup again.
//!
//! The algebraic identity `Σ_{i<j} a_i a_j = (S² − Σ a_i²)/2` provides an
//! `O(n)` oracle for the tests, so the expensive path is verifiable.

use lopram_core::Executor;

/// How the cross-pair merge is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossMergeMode {
    /// The parent accumulates all cross pairs itself (Theorem 1, case 3).
    Sequential,
    /// The cross pairs are accumulated by a `join` tree over halves of the
    /// left segment (the Eq. 5 refinement).
    Parallel,
}

/// Result of the cross-product-sum computation on one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossResult {
    /// `Σ_{i<j} a_i · a_j` within the segment.
    pub pair_sum: i128,
    /// `Σ a_i` of the segment (needed by the parent's merge).
    pub total: i128,
}

/// Closed-form oracle: `Σ_{i<j} a_i a_j = (S² − Σ a_i²) / 2`.
pub fn pair_sum_oracle(values: &[i64]) -> i128 {
    let s: i128 = values.iter().map(|&v| v as i128).sum();
    let sq: i128 = values.iter().map(|&v| (v as i128) * (v as i128)).sum();
    (s * s - sq) / 2
}

/// Sequential divide-and-conquer cross-product sum (case 3 baseline).
pub fn cross_product_sum_seq(values: &[i64]) -> i128 {
    cross_product_sum(
        &lopram_core::SeqExecutor,
        values,
        CrossMergeMode::Sequential,
    )
}

/// Pal-thread cross-product sum with the chosen merge mode.
pub fn cross_product_sum<E: Executor>(exec: &E, values: &[i64], mode: CrossMergeMode) -> i128 {
    recurse(exec, values, mode, 32).pair_sum
}

fn recurse<E: Executor>(
    exec: &E,
    values: &[i64],
    mode: CrossMergeMode,
    grain: usize,
) -> CrossResult {
    if values.len() <= grain {
        let mut pair_sum = 0i128;
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                pair_sum += values[i] as i128 * values[j] as i128;
            }
        }
        return CrossResult {
            pair_sum,
            total: values.iter().map(|&v| v as i128).sum(),
        };
    }
    let mid = values.len() / 2;
    let (left, right) = values.split_at(mid);
    let (l, r) = exec.join(
        || recurse(exec, left, mode, grain),
        || recurse(exec, right, mode, grain),
    );
    // The deliberately quadratic merge: accumulate every cross pair.
    let cross = match mode {
        CrossMergeMode::Sequential => cross_pairs_sequential(left, right),
        CrossMergeMode::Parallel => cross_pairs_parallel(exec, left, right, grain),
    };
    CrossResult {
        pair_sum: l.pair_sum + r.pair_sum + cross,
        total: l.total + r.total,
    }
}

fn cross_pairs_sequential(left: &[i64], right: &[i64]) -> i128 {
    let mut acc = 0i128;
    for &x in left {
        let x = x as i128;
        for &y in right {
            acc += x * y as i128;
        }
    }
    acc
}

/// The Eq. 5 merge: halve `left` with pal-threads down to `grain` rows and
/// add the exact `i128` halves, so the sum is the sequential merge's.
fn cross_pairs_parallel<E: Executor>(exec: &E, left: &[i64], right: &[i64], grain: usize) -> i128 {
    if left.len() <= grain {
        return cross_pairs_sequential(left, right);
    }
    let (lo, hi) = left.split_at(left.len() / 2);
    let (a, b) = exec.join(
        || cross_pairs_parallel(exec, lo, right, grain),
        || cross_pairs_parallel(exec, hi, right, grain),
    );
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1000..1000)).collect()
    }

    #[test]
    fn oracle_on_small_cases() {
        assert_eq!(pair_sum_oracle(&[]), 0);
        assert_eq!(pair_sum_oracle(&[5]), 0);
        assert_eq!(pair_sum_oracle(&[2, 3]), 6);
        assert_eq!(pair_sum_oracle(&[1, 2, 3]), 2 + 3 + 6);
    }

    #[test]
    fn sequential_matches_oracle() {
        for n in [0usize, 1, 2, 33, 100, 1000] {
            let v = random_vec(n, n as u64);
            assert_eq!(cross_product_sum_seq(&v), pair_sum_oracle(&v), "n = {n}");
        }
    }

    #[test]
    fn parallel_sequential_merge_matches_oracle() {
        let pool = PalPool::new(4).unwrap();
        let v = random_vec(2000, 9);
        assert_eq!(
            cross_product_sum(&pool, &v, CrossMergeMode::Sequential),
            pair_sum_oracle(&v)
        );
    }

    #[test]
    fn parallel_merge_matches_oracle() {
        let pool = PalPool::new(4).unwrap();
        let v = random_vec(2000, 10);
        assert_eq!(
            cross_product_sum(&pool, &v, CrossMergeMode::Parallel),
            pair_sum_oracle(&v)
        );
    }

    #[test]
    fn both_merge_modes_agree() {
        let pool = PalPool::new(3).unwrap();
        let v = random_vec(1500, 11);
        let seq_merge = cross_product_sum(&pool, &v, CrossMergeMode::Sequential);
        let par_merge = cross_product_sum(&pool, &v, CrossMergeMode::Parallel);
        assert_eq!(seq_merge, par_merge);
    }

    #[test]
    fn results_identical_for_any_p() {
        let v = random_vec(1200, 12);
        let expected = pair_sum_oracle(&v);
        for p in [1usize, 2, 4, 8] {
            let pool = PalPool::new(p).unwrap();
            for mode in [CrossMergeMode::Sequential, CrossMergeMode::Parallel] {
                assert_eq!(
                    cross_product_sum(&pool, &v, mode),
                    expected,
                    "p = {p}, mode = {mode:?}"
                );
            }
        }
    }

    #[test]
    fn negative_values_and_duplicates() {
        let v = vec![-5i64; 100];
        assert_eq!(cross_product_sum_seq(&v), pair_sum_oracle(&v));
        assert_eq!(
            cross_product_sum(&SeqExecutor, &v, CrossMergeMode::Parallel),
            pair_sum_oracle(&v)
        );
    }

    proptest! {
        #[test]
        fn prop_matches_oracle(v in proptest::collection::vec(-500i64..500, 0..300)) {
            let pool = PalPool::new(2).unwrap();
            prop_assert_eq!(
                cross_product_sum(&pool, &v, CrossMergeMode::Sequential),
                pair_sum_oracle(&v)
            );
            prop_assert_eq!(
                cross_product_sum(&pool, &v, CrossMergeMode::Parallel),
                pair_sum_oracle(&v)
            );
        }
    }
}
