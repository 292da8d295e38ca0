//! Strassen matrix multiplication — Master-theorem case 1 with a large `a`.
//!
//! Strassen's identity reduces one `n × n` product to seven half-size
//! products and `Θ(n²)` additions: `T(n) = 7T(n/2) + Θ(n²)`, case 1
//! (`n^{log₂7} ≈ n^{2.81}` dominates), so Theorem 1 promises `O(T(n)/p)`.
//! The seven recursive products are created as pal-threads at every level,
//! one fixed `join` tree of six forks per node.  A product with `L` levels
//! above the base case has `(7^L − 1)/6` such nodes, so it forks `7^L − 1`
//! times (342 for `64 × 64` at grain 8); the pool's `⌈α·log₂ p⌉` cutoff
//! alone decides which of those forks reach the scheduler.

use lopram_core::Executor;

use crate::matrix::Matrix;

/// Side length below which multiplication falls back to the naive kernel.
pub const DEFAULT_GRAIN: usize = 64;

/// Sequential Strassen multiplication.
pub fn strassen_mul_seq(a: &Matrix, b: &Matrix) -> Matrix {
    strassen_mul(&lopram_core::SeqExecutor, a, b)
}

/// Pal-thread Strassen multiplication.
pub fn strassen_mul<E: Executor>(exec: &E, a: &Matrix, b: &Matrix) -> Matrix {
    strassen_mul_with_grain(exec, a, b, DEFAULT_GRAIN)
}

/// Pal-thread Strassen multiplication with an explicit base-case side length.
pub fn strassen_mul_with_grain<E: Executor>(
    exec: &E,
    a: &Matrix,
    b: &Matrix,
    grain: usize,
) -> Matrix {
    assert_eq!(a.size(), b.size(), "matrix sizes must match");
    let n = a.size();
    if n == 0 {
        return Matrix::zeros(0);
    }
    let padded = n.next_power_of_two();
    if padded != n {
        let result = strassen_rec(exec, &a.padded(padded), &b.padded(padded), grain.max(1));
        return result.truncated(n);
    }
    strassen_rec(exec, a, b, grain.max(1))
}

fn strassen_rec<E: Executor>(exec: &E, a: &Matrix, b: &Matrix, grain: usize) -> Matrix {
    let n = a.size();
    if n <= grain || !n.is_multiple_of(2) {
        return a.naive_mul(b);
    }
    let a11 = a.quadrant(0, 0);
    let a12 = a.quadrant(0, 1);
    let a21 = a.quadrant(1, 0);
    let a22 = a.quadrant(1, 1);
    let b11 = b.quadrant(0, 0);
    let b12 = b.quadrant(0, 1);
    let b21 = b.quadrant(1, 0);
    let b22 = b.quadrant(1, 1);
    let mul = |l: &Matrix, r: &Matrix| strassen_rec(exec, l, r, grain);

    // palthreads { m1; …; m7 }: one fixed join tree, six forks.  Each
    // pal-thread forms its own operand sums; the pool's cutoff decides how
    // deep the forks go.
    let (((m1, m2), (m3, m4)), ((m5, m6), m7)) = exec.join(
        || {
            exec.join(
                || {
                    exec.join(
                        || mul(&(&a11 + &a22), &(&b11 + &b22)),
                        || mul(&(&a21 + &a22), &b11),
                    )
                },
                || exec.join(|| mul(&a11, &(&b12 - &b22)), || mul(&a22, &(&b21 - &b11))),
            )
        },
        || {
            exec.join(
                || {
                    exec.join(
                        || mul(&(&a11 + &a12), &b22),
                        || mul(&(&a21 - &a11), &(&b11 + &b12)),
                    )
                },
                || mul(&(&a12 - &a22), &(&b21 + &b22)),
            )
        },
    );

    let c11 = &(&(&m1 + &m4) - &m5) + &m7;
    let c12 = &m3 + &m5;
    let c21 = &m2 + &m4;
    let c22 = &(&(&m1 - &m2) + &m3) + &m6;
    Matrix::from_quadrants(&c11, &c12, &c21, &c22)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};
    use rand::prelude::*;

    fn random_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, |_, _| rng.gen_range(-5.0..5.0))
    }

    #[test]
    fn strassen_matches_naive_power_of_two() {
        let pool = PalPool::new(4).unwrap();
        for n in [2usize, 4, 8, 32, 64] {
            let a = random_matrix(n, n as u64);
            let b = random_matrix(n, n as u64 + 100);
            let expected = a.naive_mul(&b);
            let got = strassen_mul_with_grain(&pool, &a, &b, 8);
            assert!(
                got.max_abs_diff(&expected) < 1e-6,
                "n = {n}, diff = {}",
                got.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn strassen_handles_non_power_of_two() {
        let a = random_matrix(13, 1);
        let b = random_matrix(13, 2);
        let expected = a.naive_mul(&b);
        let got = strassen_mul_with_grain(&SeqExecutor, &a, &b, 4);
        assert!(got.max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn strassen_identity_and_zero() {
        let a = random_matrix(16, 3);
        let id = Matrix::identity(16);
        let z = Matrix::zeros(16);
        assert!(strassen_mul_seq(&a, &id).max_abs_diff(&a) < 1e-9);
        assert!(strassen_mul_seq(&a, &z).max_abs_diff(&z) < 1e-9);
    }

    #[test]
    fn results_identical_for_any_p() {
        let a = random_matrix(48, 21);
        let b = random_matrix(48, 22);
        let expected = a.naive_mul(&b);
        let seq = strassen_mul_with_grain(&SeqExecutor, &a, &b, 8);
        for p in [1usize, 2, 4, 7] {
            let pool = PalPool::new(p).unwrap();
            let got = strassen_mul_with_grain(&pool, &a, &b, 8);
            assert!(got.max_abs_diff(&expected) < 1e-6, "p = {p}");
            assert_eq!(got.max_abs_diff(&seq), 0.0, "p = {p}: bits differ");
        }
        // Six forks at every one of the 1 + 7 + 49 nodes above grain 8,
        // whatever the pool elides.
        let a = random_matrix(64, 23);
        let b = random_matrix(64, 24);
        let seq = strassen_mul_with_grain(&SeqExecutor, &a, &b, 8);
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let (got, m) = pool.scoped_metrics(|| strassen_mul_with_grain(&pool, &a, &b, 8));
            assert_eq!(m.forks(), 6 * (1 + 7 + 49), "p = {p}");
            assert_eq!(got.max_abs_diff(&seq), 0.0, "p = {p}: bits differ");
        }
    }

    #[test]
    fn empty_matrix_product() {
        let a = Matrix::zeros(0);
        let b = Matrix::zeros(0);
        assert_eq!(strassen_mul_seq(&a, &b).size(), 0);
    }
}
