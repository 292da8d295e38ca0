//! Bottom-up schedulers for [`DpProblem`]s: sequential, wavefront
//! (antichain-by-antichain) and the counter-based Algorithm 1.
//!
//! All three evaluate one private `Schedule`: the table's dependency
//! lists flattened into a CSR array and its cells counting-sorted by level
//! of the Mirsky decomposition, built in one sequential pass that
//! allocates a dozen vectors however large the table is.  The
//! materialised [`Dag`] of [`dependency_dag`] is the *analysis* view of
//! the same enumeration — width tables and the ideal-schedule simulator
//! read it; no solver does.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

use lopram_analysis::Dag;
use lopram_core::Executor;
use parking_lot::Mutex;

use crate::spec::DpProblem;

/// The fully evaluated table of a dynamic program plus its goal value.
#[derive(Debug, Clone)]
pub struct DpSolution<V> {
    /// Value of every cell, indexed by cell id.
    pub values: Vec<V>,
    /// Value of the goal cell.
    pub goal: V,
}

/// Build the dependency DAG of `problem` (§4.3): edge `y → x` for every
/// dependency `y ≺ x`, i.e. edges point in the direction of computation.
///
/// This is the analysis view — antichain widths, the longest chain, the
/// input of `lopram_sim::simulate_dag_schedule` — with one adjacency vector
/// per cell.  The solvers schedule from a flat private structure instead and
/// never build it.
pub fn dependency_dag<P: DpProblem>(problem: &P) -> Dag {
    let n = problem.num_cells();
    let mut dag = Dag::new(n);
    let mut deps = Vec::new();
    for cell in 0..n {
        deps.clear();
        problem.dependencies(cell, &mut deps);
        for &d in &deps {
            dag.add_edge(d, cell);
        }
    }
    dag
}

/// `x` as a `u32` id or offset; a table too large for that is refused.
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("cell ids and dependency-list offsets must fit u32")
}

/// Lists of `u32`s in compressed sparse rows: list `x` is
/// `targets[start[x]..start[x + 1]]`.
struct Csr {
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn of(&self, x: usize) -> &[u32] {
        &self.targets[self.start[x] as usize..self.start[x + 1] as usize]
    }

    fn degree(&self, x: usize) -> u32 {
        self.start[x + 1] - self.start[x]
    }

    /// The `(key, item)` pairs grouped by key, by counting sort: list `k`
    /// holds the items of key `k < keys` in the order they came.
    fn grouped(keys: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut start = vec![0u32; keys + 1];
        for (key, _) in pairs.clone() {
            start[key as usize + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut cursor = start[..keys].to_vec();
        let mut targets = vec![0u32; start[keys] as usize];
        for (key, item) in pairs {
            let slot = &mut cursor[key as usize];
            targets[*slot as usize] = item;
            *slot += 1;
        }
        Csr { start, targets }
    }

    /// Every arc reversed; the lists of the result are in ascending order
    /// of the cell they came from.
    fn transposed(&self) -> Csr {
        let n = self.start.len() - 1;
        let arcs = (0..n).flat_map(|x| self.of(x).iter().map(move |&t| (t, x as u32)));
        Csr::grouped(n, arcs)
    }
}

/// What every bottom-up solver needs to know about a table, in flat arrays:
/// who reads whom, and the cells in level-major order (level `k` = the
/// cells whose longest dependency chain has `k` links, an antichain; within
/// a level ascending by id).
struct Schedule {
    /// `preds.of(x)`: the dependencies of `x`, as the problem listed them.
    preds: Csr,
    /// `levels.of(k)`: the cells of level `k`; `levels.targets` is every
    /// cell in an order that puts dependencies first.
    levels: Csr,
    /// Per level, the table reads its cells make (the sum of their
    /// in-degrees): with the cell count, the level's weight.
    reads: Vec<usize>,
}

impl Schedule {
    /// Enumerate `problem` once.  Panics on an empty table, a dependency
    /// that is out of range or the cell itself, and a cycle.
    fn build<P: DpProblem>(problem: &P) -> Schedule {
        let n = problem.num_cells();
        assert!(n > 0, "a dynamic program needs at least one cell");
        narrow(n); // ids are stored as u32 from here on
        let mut start = Vec::with_capacity(n + 1);
        // A table with fewer reads than cells is rare; beyond that, grow.
        let mut targets: Vec<u32> = Vec::with_capacity(n);
        let mut level = vec![0u32; n];
        // While every dependency has had a smaller id than its cell — row-
        // major 2-D and 1-D tables — ids are a topological order and levels
        // come out of this same pass.
        let mut ids_ascend = true;
        let mut deps = Vec::new();
        for cell in 0..n {
            start.push(narrow(targets.len()));
            deps.clear();
            problem.dependencies(cell, &mut deps);
            let mut above = 0;
            for &d in &deps {
                assert!(
                    d < n,
                    "dependency {d} of cell {cell} is out of range: the table has {n} cells"
                );
                assert_ne!(d, cell, "self-loops are not allowed in a dependency DAG");
                if d < cell {
                    above = above.max(level[d] + 1);
                } else {
                    ids_ascend = false;
                }
                targets.push(d as u32);
            }
            level[cell] = above;
        }
        start.push(narrow(targets.len()));
        let preds = Csr { start, targets };
        if !ids_ascend {
            level = kahn_levels(&preds);
        }

        let height = level.iter().max().map_or(0, |&top| top as usize + 1);
        let mut reads = vec![0usize; height];
        for (cell, &l) in level.iter().enumerate() {
            reads[l as usize] += preds.degree(cell) as usize;
        }
        let by_level = level.iter().enumerate().map(|(cell, &l)| (l, cell as u32));
        let levels = Csr::grouped(height, by_level);
        Schedule {
            preds,
            levels,
            reads,
        }
    }

    fn cells(&self) -> usize {
        self.levels.targets.len()
    }
}

/// Levels of a table whose ids are not a topological order: Kahn's
/// algorithm over the successor lists, a cell's level being final when its
/// last dependency leaves the queue.
fn kahn_levels(preds: &Csr) -> Vec<u32> {
    let n = preds.start.len() - 1;
    let succs = preds.transposed();
    let mut waiting: Vec<u32> = (0..n).map(|x| preds.degree(x)).collect();
    let mut level = vec![0u32; n];
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&x| waiting[x as usize] == 0)
        .collect();
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &v in succs.of(u as usize) {
            let v = v as usize;
            level[v] = level[v].max(level[u as usize] + 1);
            waiting[v] -= 1;
            if waiting[v] == 0 {
                queue.push(v as u32);
            }
        }
    }
    assert!(queue.len() == n, "dependency graph must be acyclic");
    level
}

/// Evaluate the table bottom-up on one processor, in a topological order of
/// the dependency DAG (level by level).  This is the `T_1` baseline of §4.6.
pub fn solve_sequential<P: DpProblem>(problem: &P) -> DpSolution<P::Value> {
    let schedule = Schedule::build(problem);
    let mut values: Vec<Option<P::Value>> = vec![None; schedule.cells()];
    for &cell in &schedule.levels.targets {
        let get = |i: usize| {
            values[i]
                .clone()
                .expect("dependency computed before dependant in topological order")
        };
        let v = problem.compute(cell as usize, &get);
        values[cell as usize] = Some(v);
    }
    finish(
        problem,
        values
            .into_iter()
            .map(|v| v.expect("all cells computed"))
            .collect(),
    )
}

/// Evaluate the table antichain by antichain (§4.3): the cells of one level
/// of the Mirsky decomposition are mutually independent and are computed in
/// parallel with `exec`; levels are processed in order.
///
/// The table is kept level-major while it is filled — each level's values
/// are appended behind the previous level's, a read going through the
/// cell's position into that finished prefix — and permuted to id order
/// once at the end.  A level is priced by what it does, `cells + reads`:
/// when [`Executor::chunk_count`] of that weight is one block (on a default
/// pool: below [`WAKE_GRAIN`](lopram_core::policy::WAKE_GRAIN), so any level
/// of fewer than eight thousand three-dependency cells) it runs as a plain
/// loop on the calling thread and forks nothing; otherwise it is cut into
/// that many contiguous blocks, one [`for_each_index`](Executor::for_each_index)
/// index each, every block writing its own output buffer.
pub fn solve_wavefront<P: DpProblem, E: Executor>(problem: &P, exec: &E) -> DpSolution<P::Value> {
    let schedule = Schedule::build(problem);
    let n = schedule.cells();
    let mut pos = vec![0u32; n];
    for (at, &cell) in schedule.levels.targets.iter().enumerate() {
        pos[cell as usize] = at as u32;
    }
    let mut table: Vec<P::Value> = Vec::with_capacity(n);
    // One output buffer per block of a forked level, reused across levels.
    let mut block_out: Vec<Mutex<Vec<P::Value>>> = Vec::new();
    for (k, &reads) in schedule.reads.iter().enumerate() {
        let cells = schedule.levels.of(k);
        let blocks = exec.chunk_count(cells.len() + reads).min(cells.len());
        if blocks == 1 {
            for &cell in cells {
                let value = problem.compute(cell as usize, &|i| read(&table, &pos, i));
                table.push(value);
            }
            continue;
        }
        if block_out.len() < blocks {
            block_out.resize_with(blocks, Default::default);
        }
        exec.for_each_index(0..blocks, |b| {
            let block = &cells[b * cells.len() / blocks..(b + 1) * cells.len() / blocks];
            let mut out = block_out[b].lock();
            for &cell in block {
                out.push(problem.compute(cell as usize, &|i| read(&table, &pos, i)));
            }
        });
        for out in &mut block_out[..blocks] {
            table.append(out.get_mut());
        }
    }
    let values = pos.iter().map(|&at| table[at as usize].clone()).collect();
    finish(problem, values)
}

/// The value of cell `i` in the level-major `table` filled so far.  Every
/// level before the running one is complete, so a dependency is always
/// there; a cell of the running or a later level is not.
fn read<V: Clone>(table: &[V], pos: &[u32], i: usize) -> V {
    table
        .get(pos[i] as usize)
        .expect("dependency belongs to an earlier antichain")
        .clone()
}

/// Set on drop: a worker of [`solve_counter`] that unwinds out of
/// `compute` tells the others that `remaining` will never reach zero.
struct Abandon<'a>(&'a AtomicBool);

impl Drop for Abandon<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The paper's Algorithm 1: every cell carries a counter of outstanding
/// dependencies; when a processor finishes a cell it decrements the counters
/// of the cells that depend on it and ready cells are picked up by the
/// available processors in creation order.
pub fn solve_counter<P: DpProblem, E: Executor>(problem: &P, exec: &E) -> DpSolution<P::Value> {
    let schedule = Schedule::build(problem);
    let n = schedule.cells();
    let succs = schedule.preds.transposed();

    // cv ← in-degree of v (number of vertices v depends on).
    let counters: Vec<AtomicU32> = (0..n)
        .map(|v| AtomicU32::new(schedule.preds.degree(v)))
        .collect();
    let table: Vec<OnceLock<P::Value>> = (0..n).map(|_| OnceLock::new()).collect();
    // Ready queue seeded with the base cases (in-degree 0) — level 0 of the
    // schedule — in creation order.
    let ready: Mutex<std::collections::VecDeque<usize>> =
        Mutex::new(schedule.levels.of(0).iter().map(|&v| v as usize).collect());
    let remaining = AtomicUsize::new(n);
    let abandoned = AtomicBool::new(false);

    let p = exec.processors();
    // One worker loop per processor: each worker repeatedly takes a ready
    // cell, computes it and releases the cells that become ready — the
    // `computeVertex` routine of Algorithm 1 executed by whichever processor
    // is available.
    exec.for_each_index(0..p, |_| {
        let _abandon = Abandon(&abandoned);
        loop {
            if remaining.load(Ordering::Acquire) == 0 || abandoned.load(Ordering::Acquire) {
                break;
            }
            let next = ready.lock().pop_front();
            let Some(cell) = next else {
                std::thread::yield_now();
                continue;
            };
            let get = |i: usize| {
                table[i]
                    .get()
                    .expect("counter reached zero only after all dependencies completed")
                    .clone()
            };
            let value = problem.compute(cell, &get);
            table[cell]
                .set(value)
                .unwrap_or_else(|_| panic!("cell {cell} computed twice"));
            remaining.fetch_sub(1, Ordering::AcqRel);
            for &succ in succs.of(cell) {
                if counters[succ as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    ready.lock().push_back(succ as usize);
                }
            }
        }
    });
    let values = table
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            cell.into_inner()
                .unwrap_or_else(|| panic!("cell {i} was never computed"))
        })
        .collect();
    finish(problem, values)
}

fn finish<P: DpProblem>(problem: &P, values: Vec<P::Value>) -> DpSolution<P::Value> {
    let goal = values[problem.goal_cell()].clone();
    DpSolution { values, goal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};

    /// Pascal's triangle laid out row by row: C(r, c) = C(r-1, c-1) + C(r-1, c).
    struct Pascal {
        rows: usize,
    }

    impl Pascal {
        fn id(&self, r: usize, c: usize) -> usize {
            r * (r + 1) / 2 + c
        }
    }

    impl DpProblem for Pascal {
        type Value = u64;

        fn num_cells(&self) -> usize {
            self.rows * (self.rows + 1) / 2
        }

        fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
            let (r, c) = row_col(cell);
            if c != 0 && c != r {
                out.extend([self.id(r - 1, c - 1), self.id(r - 1, c)]);
            }
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            let (r, c) = row_col(cell);
            if c == 0 || c == r {
                1
            } else {
                get(self.id(r - 1, c - 1)) + get(self.id(r - 1, c))
            }
        }

        fn name(&self) -> &'static str {
            "pascal"
        }
    }

    fn row_col(cell: usize) -> (usize, usize) {
        let mut r = 0usize;
        let mut acc = 0usize;
        while acc + r < cell {
            acc += r + 1;
            r += 1;
        }
        (r, cell - acc)
    }

    #[test]
    fn sequential_computes_pascal() {
        let p = Pascal { rows: 10 };
        let sol = solve_sequential(&p);
        // C(9, 4) = 126.
        assert_eq!(sol.values[p.id(9, 4)], 126);
        // Goal cell (last) = C(9,9) = 1.
        assert_eq!(sol.goal, 1);
    }

    #[test]
    fn all_schedulers_agree_on_pascal() {
        let p = Pascal { rows: 16 };
        let seq = solve_sequential(&p);
        let pool = PalPool::new(4).unwrap();
        let wave = solve_wavefront(&p, &pool);
        let counter = solve_counter(&p, &pool);
        assert_eq!(seq.values, wave.values);
        assert_eq!(seq.values, counter.values);
    }

    #[test]
    fn schedulers_work_on_sequential_executor() {
        let p = Pascal { rows: 8 };
        let seq = solve_sequential(&p);
        let wave = solve_wavefront(&p, &SeqExecutor);
        let counter = solve_counter(&p, &SeqExecutor);
        assert_eq!(seq.values, wave.values);
        assert_eq!(seq.values, counter.values);
    }

    #[test]
    fn dependency_dag_matches_specification() {
        let p = Pascal { rows: 6 };
        let dag = dependency_dag(&p);
        assert_eq!(dag.len(), p.num_cells());
        // Interior cell (3, 1) depends on (2, 0) and (2, 1).
        let cell = p.id(3, 1);
        assert!(dag.successors(p.id(2, 0)).contains(&cell));
        assert!(dag.successors(p.id(2, 1)).contains(&cell));
        // The two outer diagonals of the triangle are base cases (level 0);
        // interior cells of row r sit at level r − 1, so 6 rows give a
        // longest chain of 5.
        assert_eq!(dag.longest_chain(), 5);
    }

    #[test]
    fn results_identical_for_any_p() {
        let p = Pascal { rows: 20 };
        let expected = solve_sequential(&p);
        for procs in [1usize, 2, 3, 4, 8] {
            let pool = PalPool::new(procs).unwrap();
            assert_eq!(
                solve_counter(&p, &pool).values,
                expected.values,
                "p = {procs}"
            );
            assert_eq!(
                solve_wavefront(&p, &pool).values,
                expected.values,
                "p = {procs}"
            );
        }
    }

    /// A chain whose cell 10 cannot be computed.
    struct BrokenChain;

    impl DpProblem for BrokenChain {
        type Value = u64;

        fn num_cells(&self) -> usize {
            64
        }

        fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
            out.extend(cell.checked_sub(1));
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            assert_ne!(cell, 10, "cell 10 is broken");
            cell.checked_sub(1).map_or(0, get) + 1
        }
    }

    #[test]
    fn a_panicking_compute_propagates_out_of_every_solver() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;

        assert!(catch_unwind(|| solve_sequential(&BrokenChain)).is_err());
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let wavefront = catch_unwind(AssertUnwindSafe(|| solve_wavefront(&BrokenChain, &pool)));
            assert!(wavefront.is_err(), "wavefront, p = {p}");
            // The counter solver's other workers used to spin for ever on a
            // count that could no longer reach zero: solve on a helper
            // thread, so that a regression fails here instead of hanging.
            let (done, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| solve_counter(&BrokenChain, &pool)));
                let _ = done.send(run.is_err());
            });
            let panicked = outcome
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("solve_counter never returned at p = {p}"));
            assert!(panicked, "counter, p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_problem_rejected() {
        struct Empty;
        impl DpProblem for Empty {
            type Value = u8;
            fn num_cells(&self) -> usize {
                0
            }
            fn dependencies(&self, _: usize, _: &mut Vec<usize>) {}
            fn compute(&self, _: usize, _: &dyn Fn(usize) -> u8) -> u8 {
                0
            }
        }
        let _ = solve_sequential(&Empty);
    }
}
