//! The solvers' flat schedule against its reference, the materialised
//! [`dependency_dag`], seen only through the public API:
//!
//! * **levels** — a probe [`Executor`] that asks for every level to be
//!   split sees one `for_each_index` per level of width ≥ 2, and a recording
//!   problem sees every `compute`; together they spell out the antichains
//!   the wavefront evaluates, which must be `dependency_dag(..).levels()`,
//!   a valid decomposition as tall as the longest chain (§4.3/§4.6), with
//!   no speedup to offer exactly on the tables whose DAG is a path;
//! * **values** — all three bottom-up solvers and `solve_memoized` agree at
//!   p ∈ {1, 2, 3, 4, 8}, on default pools (every level a plain loop) and on
//!   `.grain(1)` pools (every level of width ≥ 2 forked, one output buffer
//!   per block);
//! * **forks** — none on a default pool for the benchmark's table; on a
//!   `.grain(64)` pool exactly what `chunk_count` and `index_chunk_count`
//!   predict from the level sizes; on a traced `.grain(1)` pool as many as
//!   on an untraced one, with a capture that reproduces every counter;
//! * **hostile specifications** panic with the messages they always had.
//!
//! Every problem is also run *scrambled* — its cell ids relabelled by a
//! random permutation — which takes the schedule off its fast path (levels
//! in the enumeration pass, valid while dependencies have smaller ids than
//! their cells) onto Kahn's algorithm.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use lopram_core::{Executor, PalPool, SeqExecutor, TraceConfig};
use lopram_dp::prelude::*;
use proptest::prelude::*;

/// splitmix64, for permutations and inputs that are a pure function of a seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
    }
    perm
}

/// `inner` with cell `x` renamed `to[x]`: the same table, but ids no longer
/// say anything about the order of evaluation.
struct Scrambled<'a, P> {
    inner: &'a P,
    to: Vec<usize>,
    from: Vec<usize>,
}

impl<'a, P: DpProblem> Scrambled<'a, P> {
    fn new(inner: &'a P, seed: u64) -> Self {
        let to = permutation(inner.num_cells(), seed);
        let mut from = vec![0; to.len()];
        for (old, &new) in to.iter().enumerate() {
            from[new] = old;
        }
        Scrambled { inner, to, from }
    }
}

impl<P: DpProblem> DpProblem for Scrambled<'_, P> {
    type Value = P::Value;

    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let start = out.len();
        self.inner.dependencies(self.from[cell], out);
        for d in &mut out[start..] {
            *d = self.to[*d];
        }
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> P::Value) -> P::Value {
        self.inner.compute(self.from[cell], &|y| get(self.to[y]))
    }

    fn goal_cell(&self) -> usize {
        self.to[self.inner.goal_cell()]
    }
}

/// What the probe executor and the recording problem write, in the order
/// the solver made it happen.
#[derive(Debug)]
enum Event {
    /// A `for_each_index` over this many indices.
    Pass(usize),
    /// A `compute` of this cell.
    Cell(usize),
}

type Log = Mutex<Vec<Event>>;

/// An executor that wants every pass split as far as it goes and runs it
/// in order on the calling thread, logging its length.
struct Probe<'a>(&'a Log);

impl Executor for Probe<'_> {
    fn processors(&self) -> usize {
        1
    }

    fn join<RA, RB>(&self, a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        (a(), b())
    }

    fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.0.lock().unwrap().push(Event::Pass(range.len()));
        range.for_each(f);
    }

    fn chunk_count(&self, _: usize) -> usize {
        usize::MAX
    }
}

/// `inner`, logging every `compute`.
struct Recorded<'a, P>(&'a P, &'a Log);

impl<P: DpProblem> DpProblem for Recorded<'_, P> {
    type Value = P::Value;

    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        self.0.dependencies(cell, out)
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> P::Value) -> P::Value {
        self.1.lock().unwrap().push(Event::Cell(cell));
        self.0.compute(cell, get)
    }

    fn goal_cell(&self) -> usize {
        self.0.goal_cell()
    }
}

/// The levels `solve_wavefront` evaluates `problem` in, read off a probed
/// run: with every level split into one-cell blocks, a level of width `w ≥ 2`
/// is a `Pass(w)` followed by its `w` cells, and a cell outside any pass is
/// a level of its own.
fn wavefront_levels<P: DpProblem>(problem: &P) -> Vec<Vec<usize>> {
    let log = Log::default();
    solve_wavefront(&Recorded(problem, &log), &Probe(&log));
    let mut events = log.into_inner().unwrap().into_iter();
    let mut levels = Vec::new();
    while let Some(event) = events.next() {
        let width = match event {
            Event::Pass(width) => width,
            Event::Cell(cell) => {
                levels.push(vec![cell]);
                continue;
            }
        };
        assert!(width >= 2, "a one-cell level was forked");
        let level: Vec<usize> = events
            .by_ref()
            .take(width)
            .map(|e| match e {
                Event::Cell(cell) => cell,
                pass => panic!("{pass:?} inside a level"),
            })
            .collect();
        assert_eq!(level.len(), width, "a pass ran short of its cells");
        levels.push(level);
    }
    levels
}

/// The order `solve_sequential` computes the cells of `problem` in.
fn sequential_order<P: DpProblem>(problem: &P) -> Vec<usize> {
    let log = Log::default();
    solve_sequential(&Recorded(problem, &log));
    let events = log.into_inner().unwrap();
    events
        .into_iter()
        .map(|e| match e {
            Event::Cell(cell) => cell,
            pass => panic!("{pass:?} in a sequential solve"),
        })
        .collect()
}

/// Default and `.grain(1)` pools at every p the solvers are checked under.
fn pools() -> Vec<(String, PalPool)> {
    let mut pools = Vec::new();
    for p in [1, 2, 3, 4, 8] {
        pools.push((format!("default p = {p}"), PalPool::new(p).unwrap()));
        let pinned = PalPool::builder().processors(p).grain(1).build().unwrap();
        pools.push((format!("grain(1) p = {p}"), pinned));
    }
    pools
}

/// Levels and values of one table against the reference.
fn check_table<P>(name: &str, problem: &P, pools: &[(String, PalPool)])
where
    P: DpProblem,
    P::Value: PartialEq + Debug,
{
    let dag = dependency_dag(problem);
    let reference = dag.levels();
    assert!(reference.validate(&dag), "{name}: antichain decomposition");
    assert_eq!(reference.height(), dag.longest_chain(), "{name}: levels");
    // §4.6: a table whose DAG is a path supports no speedup at all.
    let path = ["rod-cutting", "lis", "prefix-chain"]
        .iter()
        .any(|path| name.starts_with(path));
    assert_eq!(dag.max_speedup(8) == 1.0, path, "{name}: speedup bound");
    let levels = wavefront_levels(problem);
    assert_eq!(levels, reference.antichains, "{name}: antichains");
    assert_eq!(levels.len(), dag.longest_chain(), "{name}: height");
    assert_eq!(
        sequential_order(problem),
        reference.antichains.concat(),
        "{name}: sequential order"
    );

    let expected = solve_sequential(problem);
    for (pool_name, pool) in pools {
        let wavefront = solve_wavefront(problem, pool);
        assert_eq!(
            wavefront.values, expected.values,
            "{name}: wavefront, {pool_name}"
        );
        assert_eq!(
            wavefront.goal, expected.goal,
            "{name}: wavefront, {pool_name}"
        );
        let counter = solve_counter(problem, pool);
        assert_eq!(
            counter.values, expected.values,
            "{name}: counter, {pool_name}"
        );
        let memoized = solve_memoized(problem, pool);
        assert_eq!(
            memoized.goal, expected.goal,
            "{name}: memoized, {pool_name}"
        );
    }
}

/// [`check_table`] on `problem` as written and under two relabellings.
fn check<P>(name: &str, problem: P, pools: &[(String, PalPool)])
where
    P: DpProblem,
    P::Value: PartialEq + Debug,
{
    check_table(name, &problem, pools);
    for seed in [1, 2] {
        let scrambled = Scrambled::new(&problem, seed);
        check_table(&format!("{name} scrambled {seed}"), &scrambled, pools);
        // Relabelling moves values with their cells and changes nothing else.
        let plain = solve_sequential(&problem).values;
        let moved = solve_sequential(&scrambled).values;
        for (old, value) in plain.iter().enumerate() {
            assert_eq!(&moved[scrambled.to[old]], value, "{name}: cell {old}");
        }
    }
}

#[test]
fn levels_and_values_match_the_reference_for_every_problem() {
    let pools = pools();
    let pools = &pools[..];
    check(
        "lcs",
        Lcs::new(b"abracadabra".to_vec(), b"alakazam".to_vec()),
        pools,
    );
    check(
        "edit-distance",
        EditDistance::new(b"sunday".to_vec(), b"saturday".to_vec()),
        pools,
    );
    check(
        "matrix-chain",
        MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]),
        pools,
    );
    check(
        "optimal-bst",
        OptimalBst::new(vec![34, 8, 50, 21, 13]),
        pools,
    );
    check(
        "knapsack",
        Knapsack::new(vec![1, 3, 4, 5, 2], vec![1, 4, 5, 7, 3], 9),
        pools,
    );
    check("coin-change", CoinChange::new(vec![1, 2, 5], 12), pools);
    check(
        "rod-cutting",
        RodCutting::new(vec![1, 5, 8, 9, 10, 17, 17, 20], 11),
        pools,
    );
    check(
        "lis",
        Lis::new(vec![10, 9, 2, 5, 3, 7, 101, 18, 4, 6]),
        pools,
    );
    check(
        "prefix-chain",
        PrefixChain::new((0..40).map(|i| (i * 31) % 97 - 48).collect()),
        pools,
    );
    let edges = [
        (0, 1, 4),
        (1, 2, 1),
        (0, 2, 7),
        (2, 3, 2),
        (3, 0, 3),
        (4, 1, 5),
    ];
    check(
        "floyd-warshall",
        FloydWarshall::from_edges(5, &edges),
        pools,
    );
}

/// A table given by its dependency lists: cell `x` counts the paths that
/// end in it, `1 + Σ M[y]` over its dependencies (wrapping, so that any
/// list — a repeated id too — is a valid recurrence).
struct Table(Vec<Vec<usize>>);

impl DpProblem for Table {
    type Value = u64;

    fn num_cells(&self) -> usize {
        self.0.len()
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.0[cell]);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        self.0[cell]
            .iter()
            .fold(1, |sum, &y| sum.wrapping_add(get(y)))
    }
}

/// The message each bottom-up solver panics with on `table`, which all
/// three must refuse before computing anything.
fn refusals(table: &Table) -> Vec<String> {
    let solvers: [(&str, &dyn Fn()); 3] = [
        ("sequential", &|| drop(solve_sequential(table))),
        ("wavefront", &|| drop(solve_wavefront(table, &SeqExecutor))),
        ("counter", &|| drop(solve_counter(table, &SeqExecutor))),
    ];
    solvers
        .iter()
        .map(|(name, solve)| {
            let payload = catch_unwind(AssertUnwindSafe(solve))
                .expect_err(&format!("{name} accepted a hostile table"));
            match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast::<&str>()
                    .expect("a panic message")
                    .to_string(),
            }
        })
        .collect()
}

#[test]
fn hostile_specifications_are_refused_by_every_solver() {
    let cases = [
        ("two-cell cycle", vec![vec![1], vec![0]], "must be acyclic"),
        (
            "cycle behind a base case",
            vec![vec![], vec![0, 3], vec![1], vec![2]],
            "must be acyclic",
        ),
        (
            "self-loop",
            vec![vec![], vec![0, 1]],
            "self-loops are not allowed",
        ),
        (
            "dependency = num_cells",
            vec![vec![], vec![2]],
            "out of range",
        ),
        ("dependency far out", vec![vec![usize::MAX]], "out of range"),
        ("zero cells", vec![], "at least one cell"),
    ];
    for (name, deps, expected) in cases {
        for message in refusals(&Table(deps)) {
            assert!(
                message.contains(expected),
                "{name}: panicked with {message:?}, not {expected:?}"
            );
        }
    }
}

#[test]
fn repeated_dependencies_are_counted_like_any_other() {
    // Cell 2 lists cell 0 twice; the counter solver must see both arcs or
    // release cell 2 early.
    let table = Table(vec![vec![], vec![0], vec![0, 1, 0]]);
    let expected = vec![1, 2, 5];
    assert_eq!(solve_sequential(&table).values, expected);
    for (name, pool) in pools() {
        assert_eq!(solve_wavefront(&table, &pool).values, expected, "{name}");
        assert_eq!(solve_counter(&table, &pool).values, expected, "{name}");
    }
}

/// Forks of one `for_each_index` over `len` indices on `pool`: a balanced
/// `join` tree over `index_chunk_count(len)` blocks.
fn index_forks(pool: &PalPool, len: usize) -> u64 {
    pool.index_chunk_count(len) as u64 - 1
}

#[test]
fn a_level_forks_only_when_the_pool_says_its_weight_repays_it() {
    // The benchmark's `batch-large-*` table: 385 × 385 cells — the 769 base
    // cells of row and column 0, then 767 antidiagonals of at most 384
    // cells and three reads a cell.
    let text =
        |salt: usize| -> Vec<u8> { (0..384).map(|i| b"acgt"[(i * salt + i / 7) % 4]).collect() };
    let problem = EditDistance::new(text(3), text(5));
    let expected = solve_sequential(&problem).values;
    let dag = dependency_dag(&problem);
    let levels = dag.levels().antichains;
    assert_eq!(levels.len(), 768);
    let in_degrees = dag.in_degrees();
    let weight =
        |level: &Vec<usize>| level.len() + level.iter().map(|&x| in_degrees[x]).sum::<usize>();

    for p in [1, 2, 4] {
        let pool = PalPool::new(p).unwrap();
        assert_eq!(solve_wavefront(&problem, &pool).values, expected);
        assert_eq!(pool.metrics().forks(), 0, "default pool, p = {p}");

        let pinned = PalPool::builder().processors(p).grain(64).build().unwrap();
        let predicted: u64 = levels
            .iter()
            .map(|level| pinned.chunk_count(weight(level)).min(level.len()))
            .filter(|&blocks| blocks > 1)
            .map(|blocks| index_forks(&pinned, blocks))
            .sum();
        assert!(predicted > 0, "no level of the table splits at grain 64");
        for run in 1..=2 {
            assert_eq!(solve_wavefront(&problem, &pinned).values, expected);
            assert_eq!(
                pinned.metrics().forks(),
                run * predicted,
                "grain(64) pool, p = {p}, run {run}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random DAGs: arcs only from a lower to a higher id, then every id
    // relabelled, so no order is left for the schedule to lean on.
    #[test]
    fn wavefront_matches_sequential_on_random_dags(
        n in 1usize..48,
        arcs in proptest::collection::vec((0usize..48, 0usize..48), 0..160),
        seed in 0u64..1 << 32,
    ) {
        let to = permutation(n, seed);
        let mut deps = vec![Vec::new(); n];
        for (a, b) in arcs {
            let (a, b) = (a % n, b % n);
            if a != b {
                deps[to[a.max(b)]].push(to[a.min(b)]);
            }
        }
        let table = Table(deps);
        let expected = solve_sequential(&table).values;
        let reference = dependency_dag(&table).levels().antichains;
        prop_assert_eq!(wavefront_levels(&table), reference);
        let pool = PalPool::builder().processors(3).grain(1).build().unwrap();
        prop_assert_eq!(&solve_wavefront(&table, &pool).values, &expected);
        prop_assert_eq!(&solve_counter(&table, &pool).values, &expected);
    }

    // Edit distance on `.grain(1)` pools, where every antidiagonal of two
    // or more cells forks (a default pool runs levels this light as plain
    // loops).  Every fork is in a `for_each_index` join tree, so its count
    // is a pure function of the level widths and p: a traced pool forks
    // exactly as often as a fresh untraced one, and its capture
    // reproduces the pool's accounting counter for counter.
    #[test]
    fn traced_wavefront_forks_like_an_untraced_pool(
        len in 2usize..24,
        seed in 0usize..1000,
    ) {
        let text = |salt: usize| -> Vec<u8> {
            (0..len).map(|i| b"acgt"[(i * salt + seed + i / 3) % 4]).collect()
        };
        let problem = EditDistance::new(text(3), text(7));
        let expected = solve_sequential(&problem).goal;
        for p in [1, 2, 4] {
            let pinned = || PalPool::builder().processors(p).grain(1);
            let traced = pinned().trace(TraceConfig::default()).build().unwrap();
            prop_assert_eq!(solve_wavefront(&problem, &traced).goal, expected, "p = {}", p);
            let m = traced.metrics().snapshot();
            let trace = traced.take_trace().expect("tracing was on");
            prop_assert!(trace.is_complete(), "p = {}: capture dropped events", p);
            let s = trace.summary();
            prop_assert!(s.forks > 0, "nothing forked at p = {}", p);
            prop_assert_eq!(s.forks, m.forks(), "forks, p = {}", p);
            prop_assert_eq!(s.elided, m.elided, "elided, p = {}", p);
            prop_assert_eq!(s.spawned, m.spawned, "spawned, p = {}", p);
            prop_assert_eq!(s.inlined, m.inlined, "inlined, p = {}", p);
            prop_assert_eq!(s.steals, m.steals, "steals, p = {}", p);
            prop_assert_eq!(s.unclassified, 0u64, "quiesced capture, p = {}", p);

            let fresh = pinned().build().unwrap();
            prop_assert_eq!(solve_wavefront(&problem, &fresh).goal, expected);
            prop_assert_eq!(m.forks(), fresh.metrics().forks(), "fresh pool, p = {}", p);
        }
    }
}
