//! Dense square matrices.
//!
//! A deliberately small, self-contained matrix type: row-major `f64`
//! storage, naive `Θ(n³)` multiplication, and the quadrant-view and
//! padding helpers a divide-and-conquer multiplier needs.

use std::ops::{Add, Sub};

/// A dense square matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of side `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Identity matrix of side `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major vector; panics when the length is not `n²`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "expected {} elements", n * n);
        Matrix { n, data }
    }

    /// Build a matrix by evaluating `f(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Matrix { n, data }
    }

    /// Side length.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Naive `Θ(n³)` multiplication (the correctness oracle).
    pub fn naive_mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n, "matrix sizes must match");
        let n = self.n;
        let mut out = Matrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Extract the quadrant (`qi`, `qj`) of a matrix whose side is even.
    pub fn quadrant(&self, qi: usize, qj: usize) -> Matrix {
        assert!(self.n.is_multiple_of(2), "quadrants require an even side");
        assert!(qi < 2 && qj < 2, "quadrant index out of range");
        let h = self.n / 2;
        Matrix::from_fn(h, |i, j| self[(qi * h + i, qj * h + j)])
    }

    /// Assemble a matrix from four quadrants of equal side.
    pub fn from_quadrants(c11: &Matrix, c12: &Matrix, c21: &Matrix, c22: &Matrix) -> Matrix {
        let h = c11.n;
        assert!(
            c12.n == h && c21.n == h && c22.n == h,
            "quadrants must have equal size"
        );
        Matrix::from_fn(2 * h, |i, j| match (i < h, j < h) {
            (true, true) => c11[(i, j)],
            (true, false) => c12[(i, j - h)],
            (false, true) => c21[(i - h, j)],
            (false, false) => c22[(i - h, j - h)],
        })
    }

    /// Pad the matrix with zeros up to side `m ≥ n`.
    pub fn padded(&self, m: usize) -> Matrix {
        assert!(m >= self.n);
        Matrix::from_fn(m, |i, j| {
            if i < self.n && j < self.n {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Take the top-left `m × m` corner.
    pub fn truncated(&self, m: usize) -> Matrix {
        assert!(m <= self.n);
        Matrix::from_fn(m, |i, j| self[(i, j)])
    }

    /// Maximum absolute entry-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n);
        Matrix {
            n: self.n,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n);
        Matrix {
            n: self.n,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    pub(crate) fn random_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, |_, _| rng.gen_range(-10.0..10.0))
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = random_matrix(8, 1);
        let id = Matrix::identity(8);
        assert!(a.naive_mul(&id).max_abs_diff(&a) < 1e-12);
        assert!(id.naive_mul(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn known_2x2_product() {
        let a = Matrix::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.naive_mul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn quadrant_roundtrip() {
        let a = random_matrix(16, 3);
        let rebuilt = Matrix::from_quadrants(
            &a.quadrant(0, 0),
            &a.quadrant(0, 1),
            &a.quadrant(1, 0),
            &a.quadrant(1, 1),
        );
        assert_eq!(a, rebuilt);
    }

    #[test]
    fn pad_and_truncate_roundtrip() {
        let a = random_matrix(10, 4);
        let padded = a.padded(16);
        assert_eq!(padded.size(), 16);
        assert_eq!(padded.truncated(10), a);
        assert_eq!(padded[(15, 15)], 0.0);
    }

    #[test]
    fn add_sub_are_elementwise() {
        let a = random_matrix(6, 5);
        let b = random_matrix(6, 6);
        let sum = &a + &b;
        let diff = &sum - &b;
        assert!(diff.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected 4 elements")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, vec![1.0, 2.0, 3.0]);
    }
}
