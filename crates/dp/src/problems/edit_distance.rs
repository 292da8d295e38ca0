//! Levenshtein edit distance — the string-editing problem of Apostolico,
//! Atallah, Larmore and McFaddin that the paper cites as the classical
//! parallel-DP benchmark (§4.2).
//!
//! Same anti-diagonal DAG as LCS, with unit insert/delete/substitute costs.

use crate::spec::DpProblem;

/// Edit distance between two byte strings as a dynamic program.
#[derive(Debug, Clone)]
pub struct EditDistance {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl EditDistance {
    /// Create the problem for two byte strings.
    pub fn new(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        EditDistance {
            a: a.into(),
            b: b.into(),
        }
    }

    fn cols(&self) -> usize {
        self.b.len() + 1
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.cols() + j
    }

    /// Plain sequential reference implementation.
    pub fn reference(&self) -> u32 {
        let (n, m) = (self.a.len(), self.b.len());
        let mut dp = vec![vec![0u32; m + 1]; n + 1];
        for (i, row) in dp.iter_mut().enumerate() {
            row[0] = i as u32;
        }
        for (j, cell) in dp[0].iter_mut().enumerate() {
            *cell = j as u32;
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub = if self.a[i - 1] == self.b[j - 1] { 0 } else { 1 };
                dp[i][j] = (dp[i - 1][j] + 1)
                    .min(dp[i][j - 1] + 1)
                    .min(dp[i - 1][j - 1] + sub);
            }
        }
        dp[n][m]
    }
}

impl DpProblem for EditDistance {
    type Value = u32;

    fn num_cells(&self) -> usize {
        (self.a.len() + 1) * self.cols()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let i = cell / self.cols();
        let j = cell % self.cols();
        if i == 0 || j == 0 {
            return;
        }
        out.extend([
            self.cell(i - 1, j - 1),
            self.cell(i - 1, j),
            self.cell(i, j - 1),
        ]);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u32) -> u32 {
        let i = cell / self.cols();
        let j = cell % self.cols();
        if i == 0 {
            return j as u32;
        }
        if j == 0 {
            return i as u32;
        }
        let sub = if self.a[i - 1] == self.b[j - 1] { 0 } else { 1 };
        (get(self.cell(i - 1, j)) + 1)
            .min(get(self.cell(i, j - 1)) + 1)
            .min(get(self.cell(i - 1, j - 1)) + sub)
    }

    fn goal_cell(&self) -> usize {
        self.cell(self.a.len(), self.b.len())
    }

    fn name(&self) -> &'static str {
        "edit-distance"
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
        assert_eq!(EditDistance::new(*b"kitten", *b"sitting").reference(), 3);
        assert_eq!(EditDistance::new(*b"", *b"abc").reference(), 3);
        assert_eq!(EditDistance::new(*b"abc", *b"").reference(), 3);
        assert_eq!(EditDistance::new(*b"same", *b"same").reference(), 0);
        assert_eq!(EditDistance::new(*b"flaw", *b"lawn").reference(), 2);
    }

    #[test]
    fn all_schedulers_match_reference() {
        let p = EditDistance::new(*b"divide and conquer", *b"dynamic programming");
        let expected = p.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(solve_sequential(&p).goal, expected);
        assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        assert_eq!(solve_counter(&p, &pool).goal, expected);
        assert_eq!(solve_memoized(&p, &pool).goal, expected);
    }

    #[test]
    fn edit_distance_is_a_metric_on_samples() {
        let words: [&[u8]; 4] = [b"abc", b"abd", b"xyz", b""];
        for &a in &words {
            assert_eq!(EditDistance::new(a, a).reference(), 0);
            for &b in &words {
                let ab = EditDistance::new(a, b).reference();
                let ba = EditDistance::new(b, a).reference();
                assert_eq!(ab, ba);
                for &c in &words {
                    let ac = EditDistance::new(a, c).reference();
                    let cb = EditDistance::new(c, b).reference();
                    assert!(ab <= ac + cb, "triangle inequality");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_parallel_matches_reference(
            a in proptest::collection::vec(0u8..3, 0..20),
            b in proptest::collection::vec(0u8..3, 0..20)
        ) {
            let p = EditDistance::new(a, b);
            let pool = PalPool::new(3).unwrap();
            let expected = p.reference();
            prop_assert_eq!(solve_counter(&p, &pool).goal, expected);
            prop_assert_eq!(solve_wavefront(&p, &pool).goal, expected);
        }

        #[test]
        fn prop_distance_bounded_by_longer_string(
            a in proptest::collection::vec(0u8..5, 0..20),
            b in proptest::collection::vec(0u8..5, 0..20)
        ) {
            let d = EditDistance::new(a.clone(), b.clone()).reference();
            prop_assert!(d as usize <= a.len().max(b.len()));
            prop_assert!(d as usize >= a.len().abs_diff(b.len()));
        }
    }
}
