//! Parallel memoization (§4.5).
//!
//! The top-down strategy: a cell is computed the first time it is needed.
//! Each cell carries a state — *empty*, *in progress* or *done*.  A thread
//! that needs a cell claims it (empty → in progress) and computes it, first
//! resolving the cell's dependencies; dependencies that are not yet available
//! are either claimed recursively (possibly as new pal-threads) or, when
//! another thread has already claimed them, waited on via a notify condition
//! — exactly the protocol the paper describes, including the probe counters
//! that measure the extra lookups memoization pays compared to the bottom-up
//! schedulers.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use lopram_core::Executor;
use parking_lot::{Condvar, Mutex};

use crate::spec::DpProblem;

const EMPTY: u8 = 0;
const IN_PROGRESS: u8 = 1;
const DONE: u8 = 2;

/// Result of a memoized evaluation.
#[derive(Debug, Clone)]
pub struct MemoRun<V> {
    /// Value of the goal cell.
    pub goal: V,
    /// Number of cells that were actually computed (memoization only touches
    /// cells reachable from the goal).
    pub computed_cells: usize,
    /// Number of probes that found a cell already computed or in progress —
    /// the overhead §4.5 discusses.
    pub repeated_probes: u64,
    /// Number of times a thread had to wait for a cell that another thread
    /// had marked "in progress".
    pub waits: u64,
}

struct MemoState<'a, P: DpProblem> {
    problem: &'a P,
    states: Vec<AtomicU8>,
    values: Vec<OnceLock<P::Value>>,
    lock: Mutex<()>,
    notify: Condvar,
    repeated_probes: AtomicU64,
    waits: AtomicU64,
    computed: AtomicU64,
}

/// Evaluate `problem` top-down from its goal cell with parallel memoization.
pub fn solve_memoized<P: DpProblem, E: Executor>(problem: &P, exec: &E) -> MemoRun<P::Value> {
    let n = problem.num_cells();
    assert!(n > 0, "a dynamic program needs at least one cell");
    let state = MemoState {
        problem,
        states: (0..n).map(|_| AtomicU8::new(EMPTY)).collect(),
        values: (0..n).map(|_| OnceLock::new()).collect(),
        lock: Mutex::new(()),
        notify: Condvar::new(),
        repeated_probes: AtomicU64::new(0),
        waits: AtomicU64::new(0),
        computed: AtomicU64::new(0),
    };
    let goal = problem.goal_cell();
    let value = resolve(&state, exec, goal);
    MemoRun {
        goal: value,
        computed_cells: state.computed.load(Ordering::Relaxed) as usize,
        repeated_probes: state.repeated_probes.load(Ordering::Relaxed),
        waits: state.waits.load(Ordering::Relaxed),
    }
}

fn resolve<P: DpProblem, E: Executor>(state: &MemoState<'_, P>, exec: &E, cell: usize) -> P::Value {
    // Fast paths: already computed, or already being computed by someone else.
    match state.states[cell].load(Ordering::Acquire) {
        DONE => {
            state.repeated_probes.fetch_add(1, Ordering::Relaxed);
            return state.values[cell]
                .get()
                .expect("done implies value")
                .clone();
        }
        IN_PROGRESS => {
            state.repeated_probes.fetch_add(1, Ordering::Relaxed);
            return wait_for(state, cell);
        }
        _ => {}
    }
    // Resolve the dependencies *before* claiming the cell.  The claim window
    // therefore contains only `problem.compute`, never a pal-thread join or a
    // wait, so no thread can block while it owns an in-progress cell — which
    // is what makes the wait below deadlock-free.
    let mut deps = Vec::new();
    state.problem.dependencies(cell, &mut deps);
    resolve_all(state, exec, &deps);
    match state.states[cell].compare_exchange(
        EMPTY,
        IN_PROGRESS,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => {
            let get = |i: usize| {
                state.values[i]
                    .get()
                    .expect("dependency resolved before compute")
                    .clone()
            };
            let value = state.problem.compute(cell, &get);
            state.values[cell]
                .set(value.clone())
                .unwrap_or_else(|_| panic!("cell {cell} computed twice"));
            state.computed.fetch_add(1, Ordering::Relaxed);
            {
                let _guard = state.lock.lock();
                state.states[cell].store(DONE, Ordering::Release);
                state.notify.notify_all();
            }
            value
        }
        Err(_) => {
            // Another thread claimed the cell while we resolved its
            // dependencies: register a notify condition and wait for it.
            state.repeated_probes.fetch_add(1, Ordering::Relaxed);
            wait_for(state, cell)
        }
    }
}

fn resolve_all<P: DpProblem, E: Executor>(state: &MemoState<'_, P>, exec: &E, deps: &[usize]) {
    match deps.len() {
        0 => {}
        1 => {
            let _ = resolve(state, exec, deps[0]);
        }
        len => {
            let mid = len / 2;
            let (left, right) = deps.split_at(mid);
            exec.join(
                || resolve_all(state, exec, left),
                || resolve_all(state, exec, right),
            );
        }
    }
}

fn wait_for<P: DpProblem>(state: &MemoState<'_, P>, cell: usize) -> P::Value {
    let mut guard = state.lock.lock();
    while state.states[cell].load(Ordering::Acquire) != DONE {
        state.waits.fetch_add(1, Ordering::Relaxed);
        state.notify.wait(&mut guard);
    }
    drop(guard);
    state.values[cell]
        .get()
        .expect("done implies value")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_sequential;
    use crate::spec::DpProblem;
    use lopram_core::{PalPool, SeqExecutor};

    /// Binomial coefficients C(n, k) over a rectangular (n+1)×(k+1) table;
    /// only part of the table is reachable from the goal, which is exactly
    /// what memoization should exploit.
    struct Binomial {
        n: usize,
        k: usize,
    }

    impl Binomial {
        fn id(&self, i: usize, j: usize) -> usize {
            i * (self.k + 1) + j
        }
    }

    impl DpProblem for Binomial {
        type Value = u64;

        fn num_cells(&self) -> usize {
            (self.n + 1) * (self.k + 1)
        }

        fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
            let i = cell / (self.k + 1);
            let j = cell % (self.k + 1);
            if j != 0 && j < i {
                out.extend([self.id(i - 1, j - 1), self.id(i - 1, j)]);
            }
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            let i = cell / (self.k + 1);
            let j = cell % (self.k + 1);
            if j == 0 || j >= i {
                if j == i || j == 0 {
                    1
                } else {
                    0
                }
            } else {
                get(self.id(i - 1, j - 1)) + get(self.id(i - 1, j))
            }
        }

        fn goal_cell(&self) -> usize {
            self.id(self.n, self.k)
        }

        fn name(&self) -> &'static str {
            "binomial"
        }
    }

    #[test]
    fn memoized_matches_bottom_up() {
        let p = Binomial { n: 20, k: 10 };
        let expected = solve_sequential(&p).goal;
        let pool = PalPool::new(4).unwrap();
        let run = solve_memoized(&p, &pool);
        assert_eq!(run.goal, expected);
        assert_eq!(run.goal, 184_756); // C(20, 10)
    }

    #[test]
    fn memoization_touches_only_reachable_cells() {
        let p = Binomial { n: 30, k: 3 };
        let run = solve_memoized(&p, &SeqExecutor);
        assert_eq!(run.goal, 4060); // C(30, 3)
        assert!(
            run.computed_cells < p.num_cells(),
            "memoization should skip unreachable cells ({} of {})",
            run.computed_cells,
            p.num_cells()
        );
    }

    #[test]
    fn probe_counters_record_sharing() {
        let p = Binomial { n: 18, k: 9 };
        let pool = PalPool::new(4).unwrap();
        let run = solve_memoized(&p, &pool);
        // Overlapping subproblems guarantee repeated probes.
        assert!(run.repeated_probes > 0);
        assert_eq!(run.goal, 48_620); // C(18, 9)
    }

    #[test]
    fn results_identical_for_any_p() {
        let p = Binomial { n: 24, k: 12 };
        let expected = solve_sequential(&p).goal;
        for procs in [1usize, 2, 4, 8] {
            let pool = PalPool::new(procs).unwrap();
            assert_eq!(solve_memoized(&p, &pool).goal, expected, "p = {procs}");
        }
    }

    #[test]
    fn single_cell_problem() {
        struct One;
        impl DpProblem for One {
            type Value = i32;
            fn num_cells(&self) -> usize {
                1
            }
            fn dependencies(&self, _: usize, _: &mut Vec<usize>) {}
            fn compute(&self, _: usize, _: &dyn Fn(usize) -> i32) -> i32 {
                41
            }
        }
        let run = solve_memoized(&One, &SeqExecutor);
        assert_eq!(run.goal, 41);
        assert_eq!(run.computed_cells, 1);
    }
}
