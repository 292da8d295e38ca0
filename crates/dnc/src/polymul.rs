//! Four-way divide-and-conquer polynomial multiplication.
//!
//! Splitting both operands in half and computing all four half-size products
//! gives `T(n) = 4T(n/2) + Θ(n)` — still Master case 1 (`n^{log₂4} = n²`
//! dominates the linear combine), so the pal-thread version is promised
//! `O(T(n)/p)`.  This is the "unoptimised" sibling of Karatsuba: the same
//! speedup *shape*, different sequential constants.

use lopram_core::Executor;

use crate::karatsuba::schoolbook_mul;

/// Sequential four-way polynomial multiplication.
pub fn polymul_seq(a: &[i64], b: &[i64]) -> Vec<i64> {
    polymul_four_way(&lopram_core::SeqExecutor, a, b)
}

/// Pal-thread four-way polynomial multiplication (all four sub-products are
/// pal-threads).
pub fn polymul_four_way<E: Executor>(exec: &E, a: &[i64], b: &[i64]) -> Vec<i64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    recurse(exec, a, b, 32)
}

/// Pal-thread four-way multiplication with an explicit base-case threshold.
pub fn polymul_with_grain<E: Executor>(exec: &E, a: &[i64], b: &[i64], grain: usize) -> Vec<i64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    recurse(exec, a, b, grain.max(1))
}

fn recurse<E: Executor>(exec: &E, a: &[i64], b: &[i64], grain: usize) -> Vec<i64> {
    let n = a.len().max(b.len());
    if n <= grain {
        return schoolbook_mul(a, b);
    }
    let half = n.div_ceil(2);
    let (a_lo, a_hi) = split(a, half);
    let (b_lo, b_hi) = split(b, half);

    // palthreads { ll; lh; hl; hh }
    let ((ll, lh), (hl, hh)) = exec.join(
        || {
            exec.join(
                || recurse(exec, a_lo, b_lo, grain),
                || recurse(exec, a_lo, b_hi, grain),
            )
        },
        || {
            exec.join(
                || recurse(exec, a_hi, b_lo, grain),
                || recurse(exec, a_hi, b_hi, grain),
            )
        },
    );

    let mut out = vec![0i64; a.len() + b.len() - 1];
    add_shifted(&mut out, &ll, 0);
    add_shifted(&mut out, &lh, half);
    add_shifted(&mut out, &hl, half);
    add_shifted(&mut out, &hh, 2 * half);
    out
}

fn split(poly: &[i64], half: usize) -> (&[i64], &[i64]) {
    if poly.len() <= half {
        (poly, &[])
    } else {
        poly.split_at(half)
    }
}

fn add_shifted(out: &mut [i64], poly: &[i64], shift: usize) {
    for (i, &v) in poly.iter().enumerate() {
        if v != 0 {
            out[i + shift] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::karatsuba::karatsuba_mul_seq;
    use lopram_core::PalPool;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_poly(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-100..100)).collect()
    }

    #[test]
    fn matches_schoolbook() {
        let pool = PalPool::new(4).unwrap();
        for n in [1usize, 3, 16, 100, 257] {
            let a = random_poly(n, n as u64);
            let b = random_poly(n + 5, n as u64 + 7);
            assert_eq!(
                polymul_four_way(&pool, &a, &b),
                schoolbook_mul(&a, &b),
                "n = {n}"
            );
        }
    }

    #[test]
    fn matches_karatsuba() {
        let a = random_poly(150, 1);
        let b = random_poly(150, 2);
        assert_eq!(polymul_seq(&a, &b), karatsuba_mul_seq(&a, &b));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(polymul_seq(&[], &[1, 2]), Vec::<i64>::new());
        assert_eq!(polymul_seq(&[1, 2], &[]), Vec::<i64>::new());
    }

    #[test]
    fn results_identical_for_any_p() {
        let a = random_poly(300, 31);
        let b = random_poly(200, 32);
        let expected = schoolbook_mul(&a, &b);
        for p in [1usize, 2, 4, 8] {
            let pool = PalPool::new(p).unwrap();
            assert_eq!(polymul_four_way(&pool, &a, &b), expected, "p = {p}");
        }
    }

    proptest! {
        #[test]
        fn prop_matches_schoolbook(
            a in proptest::collection::vec(-40i64..40, 1..100),
            b in proptest::collection::vec(-40i64..40, 1..100)
        ) {
            let pool = PalPool::new(2).unwrap();
            prop_assert_eq!(polymul_with_grain(&pool, &a, &b, 4), schoolbook_mul(&a, &b));
        }
    }
}
