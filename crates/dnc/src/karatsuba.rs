//! Karatsuba polynomial multiplication — Master-theorem case 1.
//!
//! Polynomials are dense coefficient vectors over `i64`.  Karatsuba
//! replaces the four half-size products of the naive split with three,
//! giving `T(n) = 3T(n/2) + Θ(n)` — case 1, so Theorem 1 promises
//! `O(T(n)/p)` when the three recursive products become pal-threads.
//! [`schoolbook_mul`] is the `Θ(n²)` oracle used by tests.
//!
//! **Exactness.**  All of Karatsuba's coefficient arithmetic wraps, i.e.
//! is exact modulo 2⁶⁴, so the result is exact whenever every true
//! coefficient of the product fits in `i64` — in every build profile,
//! even where an operand sum or a cross term on the way overflows.
//!
//! **Allocations.**  Up to a few thousand coefficients a call allocates
//! its result and one scratch slab; the recursion splits the slab with
//! `split_at_mut` and writes every partial product in place.  Larger
//! nodes allocate their own scratch, so the scratch stays linear in `n`
//! (see [`karatsuba_mul`]).

use lopram_core::Executor;

/// Multiply two coefficient vectors with the `Θ(n²)` schoolbook algorithm.
pub fn schoolbook_mul(a: &[i64], b: &[i64]) -> Vec<i64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0i128; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x as i128 * y as i128;
        }
    }
    out.into_iter()
        .map(|c| i64::try_from(c).expect("coefficient overflow in schoolbook_mul"))
        .collect()
}

/// Sequential Karatsuba multiplication.
pub fn karatsuba_mul_seq(a: &[i64], b: &[i64]) -> Vec<i64> {
    karatsuba_mul(&lopram_core::SeqExecutor, a, b)
}

/// Base-case threshold of [`karatsuba_mul`]: operands this long or shorter
/// are multiplied by schoolbook.
const DEFAULT_GRAIN: usize = 32;

/// Pal-thread Karatsuba multiplication: the three recursive products are
/// created as pal-threads.
///
/// **Scratch.**  A node of size `n = max(a.len(), b.len())` above the
/// grain keeps its two operand sums and the middle product in `4⌈n/2⌉`
/// words of its own.  Its three children are pal-threads and must not
/// share scratch, so a whole subtree needs
/// `S(n) = 4⌈n/2⌉ + 3·S(⌈n/2⌉)` words (`0` at or below the grain).  That
/// is `4n·((3/2)^L − 1)` for `L = log₂(n/grain)` levels, i.e.
/// `Θ(n^1.585)`: ≈ 64·n at `n = 4096` and the default grain of 32, but
/// ≈ 1,750·n at `n = 2²⁰`.  So a subtree takes one slab of `S(n)` words
/// only while `S(n) ≤ 96·n`, and splits it among its children with
/// `split_at_mut`; a larger node allocates just its own `4⌈n/2⌉` words
/// and lets each child allocate in turn.  On `SeqExecutor` at most
/// `100·n` scratch words are ever live: one slab of at most `96·m`, `m ≤ n`,
/// under slab-less ancestors that own `4⌈n/2⌉ + 4⌈n/4⌉ + … ≈ 4·n` more.
///
/// Up to 4096 coefficients at the default grain a call therefore
/// allocates exactly twice: the result and one slab.
pub fn karatsuba_mul<E: Executor>(exec: &E, a: &[i64], b: &[i64]) -> Vec<i64> {
    karatsuba_mul_with_grain(exec, a, b, DEFAULT_GRAIN)
}

/// Pal-thread Karatsuba with an explicit base-case threshold.
pub fn karatsuba_mul_with_grain<E: Executor>(
    exec: &E,
    a: &[i64],
    b: &[i64],
    grain: usize,
) -> Vec<i64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let grain = grain.max(1);
    let mut out = vec![0i64; product_len(a.len(), b.len())];
    karatsuba(exec, a, b, &mut out, &mut [], grain);
    out
}

/// A subtree whose whole scratch `S(n)` is at most `SLAB_RATIO·n` words
/// takes it as one slab (see [`karatsuba_mul`]).  96 keeps 4096
/// coefficients at the default grain (`S = 263,552 ≈ 64·n`) in one slab
/// and 8192 (`≈ 98.5·n`) out of it.
const SLAB_RATIO: usize = 96;

/// `S(n)` of [`karatsuba_mul`]: the scratch words a node of size `n` and
/// its whole subtree use.
fn subtree_len(n: usize, grain: usize) -> usize {
    if n <= grain {
        return 0;
    }
    let half = n.div_ceil(2);
    4 * half + 3 * subtree_len(half, grain)
}

/// The scratch words a node of size `n > grain` allocates when its caller
/// hands it none: its subtree's slab, or past `SLAB_RATIO` its own
/// `4⌈n/2⌉` words alone.
fn alloc_len(n: usize, grain: usize) -> usize {
    let slab = subtree_len(n, grain);
    if slab <= SLAB_RATIO * n {
        slab
    } else {
        4 * n.div_ceil(2)
    }
}

/// Coefficient count of the product of polynomials of `a` and `b`
/// coefficients (an empty factor makes an empty product).
fn product_len(a: usize, b: usize) -> usize {
    if a == 0 || b == 0 {
        0
    } else {
        a + b - 1
    }
}

/// Writes `a·b` into `out` (`product_len` long, overwritten, not
/// accumulated into).  `scratch` is either the subtree's whole slab of
/// `S(n)` words or empty, and then the node allocates [`alloc_len`].
fn karatsuba<E: Executor>(
    exec: &E,
    a: &[i64],
    b: &[i64],
    out: &mut [i64],
    scratch: &mut [i64],
    grain: usize,
) {
    let n = a.len().max(b.len());
    if n <= grain {
        return schoolbook_into(a, b, out);
    }
    if scratch.is_empty() {
        let mut own = vec![0i64; alloc_len(n, grain)];
        return karatsuba(exec, a, b, out, &mut own, grain);
    }
    let half = n.div_ceil(2);
    let (a_lo, a_hi) = split(a, half);
    let (b_lo, b_hi) = split(b, half);
    // The operand sums are as long as the low halves, so the middle
    // product is as long as the low one.
    let low_len = product_len(a_lo.len(), b_lo.len());
    let high_len = product_len(a_hi.len(), b_hi.len());

    // The node's own 4⌈n/2⌉ words, then three equal child slabs — or
    // nothing, and each child allocates its own.
    let (own, children) = scratch.split_at_mut(4 * half);
    let (a_sum, rest) = own.split_at_mut(a_lo.len());
    let (b_sum, rest) = rest.split_at_mut(b_lo.len());
    let mid = &mut rest[..low_len];
    let child = children.len() / 3;
    let (s_low, rest) = children.split_at_mut(child);
    let (s_high, s_mid) = rest.split_at_mut(child);
    sum_into(a_lo, a_hi, a_sum);
    sum_into(b_lo, b_hi, b_sum);

    // `low` lands at out[0..], `high` at out[2·half..] whenever it is
    // non-empty; whatever lies between them is zero before the cross term.
    let (out_low, rest) = out.split_at_mut(low_len);
    let (gap, out_high) = rest.split_at_mut(rest.len() - high_len);
    gap.fill(0);

    // palthreads { low = a_lo*b_lo ; high = a_hi*b_hi ; mid = (a_lo+a_hi)(b_lo+b_hi) }
    exec.join(
        || {
            exec.join(
                || karatsuba(exec, a_lo, b_lo, out_low, s_low, grain),
                || karatsuba(exec, a_hi, b_hi, out_high, s_high, grain),
            )
        },
        || karatsuba(exec, a_sum, b_sum, mid, s_mid, grain),
    );

    // mid - low - high is the cross term; form it before out[half..],
    // which overlaps both, takes it.
    sub_assign(mid, &out[..low_len]);
    sub_assign(mid, &out[out.len() - high_len..]);
    // The cross term may run past the product's end; what does is zero.
    let room = out.len().saturating_sub(half);
    debug_assert!(mid.iter().skip(room).all(|&c| c == 0));
    for (o, &c) in out.iter_mut().skip(half).zip(mid.iter()) {
        *o = o.wrapping_add(c);
    }
}

/// Schoolbook product written into `out` (`product_len` long).
fn schoolbook_into(a: &[i64], b: &[i64], out: &mut [i64]) {
    out.fill(0);
    if b.is_empty() {
        return;
    }
    for (i, &x) in a.iter().enumerate() {
        for (o, &y) in out[i..].iter_mut().zip(b) {
            *o = o.wrapping_add(x.wrapping_mul(y));
        }
    }
}

fn split(poly: &[i64], half: usize) -> (&[i64], &[i64]) {
    if poly.len() <= half {
        (poly, &[])
    } else {
        poly.split_at(half)
    }
}

/// `sum = lo + hi`, where `hi` is no longer than `lo` (and `sum`).
fn sum_into(lo: &[i64], hi: &[i64], sum: &mut [i64]) {
    sum.copy_from_slice(lo);
    for (s, &h) in sum.iter_mut().zip(hi) {
        *s = s.wrapping_add(h);
    }
}

fn sub_assign(target: &mut [i64], other: &[i64]) {
    for (t, &v) in target.iter_mut().zip(other) {
        *t = t.wrapping_sub(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_poly(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-100..100)).collect()
    }

    #[test]
    fn schoolbook_known_product() {
        // (1 + 2x)(3 + 4x) = 3 + 10x + 8x².
        assert_eq!(schoolbook_mul(&[1, 2], &[3, 4]), vec![3, 10, 8]);
        assert_eq!(schoolbook_mul(&[], &[1, 2]), Vec::<i64>::new());
        assert_eq!(schoolbook_mul(&[5], &[7]), vec![35]);
    }

    #[test]
    fn karatsuba_matches_schoolbook_small() {
        let a = vec![1, -2, 3, 4];
        let b = vec![-5, 6, 7];
        assert_eq!(karatsuba_mul_seq(&a, &b), schoolbook_mul(&a, &b));
    }

    #[test]
    fn karatsuba_matches_schoolbook_random() {
        let pool = PalPool::new(4).unwrap();
        for n in [1usize, 2, 7, 31, 64, 200, 513] {
            let a = random_poly(n, n as u64);
            let b = random_poly(n + 3, n as u64 + 1000);
            assert_eq!(
                karatsuba_mul(&pool, &a, &b),
                schoolbook_mul(&a, &b),
                "n = {n}"
            );
        }
    }

    #[test]
    fn unequal_lengths_and_zeros() {
        let a = vec![0, 0, 0, 1];
        let b = vec![1];
        assert_eq!(karatsuba_mul_seq(&a, &b), vec![0, 0, 0, 1]);
        let z = vec![0i64; 50];
        let r = random_poly(50, 9);
        assert_eq!(karatsuba_mul_seq(&z, &r), vec![0i64; 99]);
    }

    #[test]
    fn small_grain_forces_deep_recursion() {
        let a = random_poly(100, 1);
        let b = random_poly(100, 2);
        assert_eq!(
            karatsuba_mul_with_grain(&SeqExecutor, &a, &b, 1),
            schoolbook_mul(&a, &b)
        );
    }

    #[test]
    fn degenerate_splits_match_schoolbook() {
        // Length-1 operands, one operand no longer than half the other (an
        // empty high half), and odd lengths split at every level.
        let pool = PalPool::new(2).unwrap();
        let shapes = [
            (1, 1),
            (1, 9),
            (9, 1),
            (3, 40),
            (40, 3),
            (5, 9),
            (9, 9),
            (17, 33),
            (33, 17),
            (101, 101),
        ];
        for (la, lb) in shapes {
            let a = random_poly(la, la as u64);
            let b = random_poly(lb, lb as u64 + 500);
            let expected = schoolbook_mul(&a, &b);
            for grain in [1, 4] {
                assert_eq!(
                    karatsuba_mul_with_grain(&SeqExecutor, &a, &b, grain),
                    expected,
                    "{la} x {lb}, grain {grain}, sequential"
                );
                assert_eq!(
                    karatsuba_mul_with_grain(&pool, &a, &b, grain),
                    expected,
                    "{la} x {lb}, grain {grain}, p = 2"
                );
            }
        }
    }

    #[test]
    fn overflowing_intermediates_leave_an_exact_result() {
        // (2⁶² + 2⁶²x)(1 − x): the operand sum 2⁶² + 2⁶² overflows `i64`
        // at grain 1, the product's coefficients do not.
        let (a, b) = ([1i64 << 62, 1 << 62], [1i64, -1]);
        let expected = vec![1i64 << 62, 0, -(1 << 62)];
        assert_eq!(schoolbook_mul(&a, &b), expected);
        let pool = PalPool::new(2).unwrap();
        assert_eq!(karatsuba_mul_with_grain(&SeqExecutor, &a, &b, 1), expected);
        assert_eq!(karatsuba_mul_with_grain(&pool, &a, &b, 1), expected);
        assert_eq!(karatsuba_mul(&SeqExecutor, &a, &b), expected);
        assert_eq!(karatsuba_mul(&pool, &a, &b), expected);
    }

    /// Most scratch words live at once on `SeqExecutor`: the own words of
    /// every slab-less node on one root-to-leaf path, plus one slab.
    fn peak_scratch(n: usize, grain: usize) -> usize {
        if n <= grain {
            return 0;
        }
        let own = alloc_len(n, grain);
        if own == subtree_len(n, grain) {
            own
        } else {
            own + peak_scratch(n.div_ceil(2), grain)
        }
    }

    #[test]
    fn scratch_stays_linear_in_n() {
        for grain in [1, 32] {
            for n in [2, 3, 1000, 4096, 8193, 1 << 17, (1 << 20) - 1, 1 << 20] {
                let peak = peak_scratch(n, grain);
                assert!(peak <= 100 * n, "n = {n}, grain {grain}: {peak} words");
            }
            // One slab for the whole tree would be superlinear.
            assert!(subtree_len(1 << 20, grain) > 1000 << 20, "grain {grain}");
        }
        // 4096 coefficients at the default grain still take one slab.
        assert_eq!(subtree_len(4096, DEFAULT_GRAIN), 263_552);
        assert_eq!(alloc_len(4096, DEFAULT_GRAIN), 263_552);
    }

    #[test]
    fn results_identical_for_any_p() {
        let a = random_poly(400, 21);
        let b = random_poly(300, 22);
        let expected = schoolbook_mul(&a, &b);
        for p in [1usize, 2, 3, 4, 8] {
            let pool = PalPool::new(p).unwrap();
            assert_eq!(karatsuba_mul(&pool, &a, &b), expected, "p = {p}");
        }
    }

    proptest! {
        #[test]
        fn prop_matches_schoolbook(
            a in proptest::collection::vec(-50i64..50, 1..120),
            b in proptest::collection::vec(-50i64..50, 1..120)
        ) {
            let pool = PalPool::new(2).unwrap();
            prop_assert_eq!(
                karatsuba_mul_with_grain(&pool, &a, &b, 4),
                schoolbook_mul(&a, &b)
            );
        }

        #[test]
        fn prop_multiplication_is_commutative(
            a in proptest::collection::vec(-50i64..50, 1..80),
            b in proptest::collection::vec(-50i64..50, 1..80)
        ) {
            prop_assert_eq!(karatsuba_mul_seq(&a, &b), karatsuba_mul_seq(&b, &a));
        }
    }
}
