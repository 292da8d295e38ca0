//! The dynamic-programming specification (Eq. 6 of the paper).
//!
//! The paper assumes the solution is given in the explicit form
//!
//! ```text
//! M[x] = f(x)                    if x is a base case
//! M[x] = f({M[y]}_{y ≺ x}, x)    otherwise
//! ```
//!
//! [`DpProblem`] is that specification with cells flattened to integer ids:
//! `dependencies(x, out)` appends the cells `y ≺ x` to a buffer the caller
//! owns, and `compute(x, get)` evaluates `f` with `get(y)` giving access to
//! already-computed dependencies.  All schedulers in this crate work for *any*
//! implementation of this trait — the point of §4.4's "general procedure
//! that, given the specification of the dynamic programming solution to a
//! problem, generates a scheduling strategy to solve it in parallel".
//!
//! The buffer-filling form is what lets a solver enumerate a whole table
//! without allocating: it clears one `Vec` between cells and the
//! implementation pushes into capacity that is already there, where a
//! returned `Vec` cost one heap allocation per cell (`3·10⁵` a solve on the
//! benchmark's 385 × 385 edit distance).

/// A dynamic-programming problem in the explicit form of Eq. 6.
pub trait DpProblem: Sync {
    /// Type of one table entry.
    type Value: Clone + Send + Sync;

    /// Total number of cells in the table `M`.
    fn num_cells(&self) -> usize;

    /// Append the cells this cell depends on (`y ≺ x`) to `out`, leaving
    /// what `out` already holds in place; base cases append nothing.  Every
    /// id must be smaller than [`num_cells`](Self::num_cells) and differ
    /// from `cell`, and the induced graph must be acyclic — the bottom-up
    /// solvers panic otherwise.  They store ids as `u32`, so a table (and the
    /// total length of its dependency lists) must stay below 2³².
    fn dependencies(&self, cell: usize, out: &mut Vec<usize>);

    /// Compute the value of `cell`; `get(y)` returns the value of dependency
    /// `y` (calling it for a non-dependency is a contract violation and may
    /// panic in the schedulers).
    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> Self::Value) -> Self::Value;

    /// The cell holding the answer to the overall problem (`M[I]` in the
    /// paper).  Defaults to the last cell.
    fn goal_cell(&self) -> usize {
        self.num_cells().saturating_sub(1)
    }

    /// A short human-readable name.
    fn name(&self) -> &'static str {
        "dp-problem"
    }

    /// `Some((rows, cols))` when the table is a grid that the bottom-up
    /// solvers may fill in place: cell `(i, j)` has id `i · cols + j`,
    /// `rows · cols` is [`num_cells`](Self::num_cells), and
    /// [`compute`](Self::compute) of `(i, j)` reads only `(i − 1, j − 1)`,
    /// `(i − 1, j)` and `(i, j − 1)` — LCS and edit distance.  Defaults to
    /// `None`.
    ///
    /// On a grid, [`solve_sequential`](crate::solve_sequential) and
    /// [`solve_wavefront`](crate::solve_wavefront) are one row-major loop
    /// that lists no dependency.  A `compute` that breaks the contract
    /// never sees a value that is not yet computed: a read ahead of the
    /// row-major order panics, and any earlier cell is served, the same way
    /// at every size and on every executor.
    fn grid(&self) -> Option<(usize, usize)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fibonacci as the smallest possible DP: cell i depends on i-1, i-2.
    struct Fib(usize);

    impl DpProblem for Fib {
        type Value = u64;

        fn num_cells(&self) -> usize {
            self.0
        }

        fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
            if cell >= 2 {
                out.extend([cell - 1, cell - 2]);
            }
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            match cell {
                0 => 0,
                1 => 1,
                _ => get(cell - 1) + get(cell - 2),
            }
        }

        fn name(&self) -> &'static str {
            "fibonacci"
        }
    }

    #[test]
    fn default_goal_is_last_cell() {
        let f = Fib(10);
        assert_eq!(f.goal_cell(), 9);
        assert_eq!(f.name(), "fibonacci");
    }

    #[test]
    fn dependencies_of_base_cases_are_empty() {
        let f = Fib(10);
        let mut deps = Vec::new();
        f.dependencies(0, &mut deps);
        f.dependencies(1, &mut deps);
        assert!(deps.is_empty());
        f.dependencies(5, &mut deps);
        assert_eq!(deps, vec![4, 3]);
        // Appends: what the buffer held stays.
        f.dependencies(2, &mut deps);
        assert_eq!(deps, vec![4, 3, 1, 0]);
    }

    #[test]
    fn compute_uses_lookup() {
        let f = Fib(10);
        let table = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34];
        let get = |i: usize| table[i];
        assert_eq!(f.compute(7, &get), 13);
    }
}
