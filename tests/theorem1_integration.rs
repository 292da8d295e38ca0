//! Cross-crate integration tests for Theorem 1: the analysis crate's
//! predictions, the simulator's schedules and the real pal-thread runtime
//! must tell the same story for all three Master-theorem cases.

use lopram::analysis::{
    parallel_master_bound, recurrence::catalog, Growth, MergeMode, Recurrence, SpeedupClass,
};
use lopram::core::{PalPool, SeqExecutor};
use lopram::dnc::case3::{cross_product_sum, pair_sum_oracle, CrossMergeMode};
use lopram::dnc::karatsuba::{karatsuba_mul, schoolbook_mul};
use lopram::dnc::mergesort::merge_sort;
use lopram::sim::{CostSpec, TaskTree, TreeSimulator};

#[test]
fn case2_simulated_schedule_achieves_the_promised_speedup() {
    // Mergesort-shaped cost tree, p = 4: Theorem 1 case 2 promises O(T/p).
    let rec = catalog::mergesort();
    let bound = parallel_master_bound(&rec, MergeMode::Sequential);
    assert_eq!(bound.speedup, SpeedupClass::Linear);

    let n = 1usize << 12;
    let costs = CostSpec::merge_dominated(|s| s as u64);
    let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
    let result = TreeSimulator::new(&tree).run(4);
    // The simulated makespan should be within a small factor of Eq. 3.
    let predicted = rec.parallel_time_eq3(n, 4);
    let ratio = result.makespan as f64 / predicted;
    assert!(
        (0.7..1.3).contains(&ratio),
        "simulated {} vs Eq.3 {predicted}",
        result.makespan
    );
    // And the speedup over the same tree on one processor should be > 2.5.
    let seq = TreeSimulator::new(&tree).run(1);
    let speedup = seq.makespan as f64 / result.makespan as f64;
    assert!(speedup > 2.5, "speedup {speedup}");
}

#[test]
fn case3_simulator_shows_no_speedup_but_parallel_merge_analysis_does() {
    let rec = catalog::quadratic_merge();
    // Sequential merge: Θ(f(n)) — no speedup class.
    let seq_bound = parallel_master_bound(&rec, MergeMode::Sequential);
    assert_eq!(seq_bound.speedup, SpeedupClass::None);
    // Parallel merge: Θ(f(n)/p).
    let par_bound = parallel_master_bound(&rec, MergeMode::Parallel);
    assert_eq!(par_bound.speedup, SpeedupClass::Linear);

    let n = 1usize << 8;
    let costs = CostSpec::merge_dominated(|s| (s * s) as u64);
    let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
    let r1 = TreeSimulator::new(&tree).run(1);
    let r8 = TreeSimulator::new(&tree).run(8);
    let speedup = r1.makespan as f64 / r8.makespan as f64;
    assert!(
        speedup < 2.2,
        "case 3 with sequential merges must not scale (got {speedup})"
    );
}

#[test]
fn real_runtime_results_match_sequential_for_every_case() {
    let pool = PalPool::new(4).unwrap();

    // Case 1: Karatsuba.
    let a: Vec<i64> = (0..600).map(|i| (i % 23) - 11).collect();
    let b: Vec<i64> = (0..500).map(|i| (i % 17) - 8).collect();
    assert_eq!(karatsuba_mul(&pool, &a, &b), schoolbook_mul(&a, &b));

    // Case 2: mergesort.
    let mut v: Vec<i64> = (0..10_000).map(|i| (i * 7919) % 104_729 - 50_000).collect();
    let mut expected = v.clone();
    expected.sort();
    merge_sort(&pool, &mut v);
    assert_eq!(v, expected);

    // Case 3: cross-product sum, both merge modes.
    let vals: Vec<i64> = (0..2000).map(|i| (i % 211) - 105).collect();
    let oracle = pair_sum_oracle(&vals);
    assert_eq!(
        cross_product_sum(&pool, &vals, CrossMergeMode::Sequential),
        oracle
    );
    assert_eq!(
        cross_product_sum(&pool, &vals, CrossMergeMode::Parallel),
        oracle
    );
    // The sequential executor gives the same answers.
    assert_eq!(
        cross_product_sum(&SeqExecutor, &vals, CrossMergeMode::Sequential),
        oracle
    );
}

#[test]
fn eq3_prediction_brackets_simulated_makespan_across_the_sweep() {
    let rec = catalog::mergesort();
    for exp in [8u32, 10, 12] {
        let n = 1usize << exp;
        let costs = CostSpec {
            divide: Box::new(|_| 0),
            merge: Box::new(|s| s as u64),
            base: Box::new(|_| 1),
        };
        let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
        for p in [1usize, 2, 4, 8] {
            let sim = TreeSimulator::new(&tree).run(p);
            let analytic = rec.parallel_time_eq3(n, p);
            let ratio = sim.makespan as f64 / analytic;
            assert!(
                (0.8..1.25).contains(&ratio),
                "n = {n}, p = {p}: simulated {} vs Eq.3 {analytic}",
                sim.makespan
            );
        }
    }
}

#[test]
fn figure2_cutoff_depth_matches_analysis() {
    // The recursion spawns pal-threads down to depth ⌊log_a p⌋ and the
    // sequential subproblem has size n / b^{⌊log_a p⌋}.
    let rec = catalog::mergesort();
    assert_eq!(rec.parallel_depth(8), 3);
    assert!((rec.sequential_subproblem_size(1 << 10, 8) - 128.0).abs() < 1e-9);

    let karatsuba = catalog::karatsuba();
    assert_eq!(karatsuba.parallel_depth(9), 2);
    assert_eq!(karatsuba.parallel_depth(8), 1);

    // On the simulator, the deepest level whose calls all started at the
    // same step — one processor each — is ⌊log_a p⌋.
    for (a, b) in [(2, 2), (3, 2), (4, 2), (4, 4)] {
        let rec = Recurrence::new(a, b, Growth::linear(1.0));
        let tree = TaskTree::divide_and_conquer(1 << 8, a, b, 1, &CostSpec::unit());
        for p in [2, 4, 8, 16] {
            let result = TreeSimulator::new(&tree).run(p);
            let started_together = |level: &&Vec<usize>| {
                let at = |id: &usize| result.records[*id].activated_at;
                level.len() > 1 && level.iter().all(|id| at(id) == at(&level[0]))
            };
            let deepest = tree.levels()[1..]
                .iter()
                .filter(started_together)
                .map(|level| tree.node(level[0]).depth)
                .max()
                .unwrap_or(0);
            assert_eq!(deepest, rec.parallel_depth(p), "a = {a}, b = {b}, p = {p}");
        }
    }
}

/// Theorem 1's shape on the simulated LoPRAM, one recurrence per Master
/// case.  Eq. 3 rounds `log_a p` down, so it is a lower bound on the
/// simulated speedup (case 1 at p = 2 simulates ≈ 2× against a predicted
/// 1×); on cases 2 and 3 (sequential merges) it is also within 5%.
#[test]
fn simulated_speedup_meets_eq3_in_every_master_case() {
    // (case, recurrence, n, a, k, tolerance) for T(n) = a·T(n/2) + n^k.
    let cases = [
        ("case 1", catalog::karatsuba(), 1 << 10, 3, 1, None),
        ("case 2", catalog::mergesort(), 1 << 14, 2, 1, Some(0.05)),
        (
            "case 3",
            catalog::quadratic_merge(),
            1 << 9,
            2,
            2,
            Some(0.05),
        ),
    ];
    for (case, rec, n, a, k, tolerance) in cases {
        let costs = CostSpec::merge_dominated(move |s| (s as u64).pow(k));
        let tree = TaskTree::divide_and_conquer(n, a, 2, 1, &costs);
        let t1 = TreeSimulator::new(&tree).run(1).makespan as f64;
        for p in [2, 4, 8, 16] {
            let speedup = t1 / TreeSimulator::new(&tree).run(p).makespan as f64;
            let predicted = rec.predicted_speedup(n, p);
            let label = format!("{case}, p = {p}: simulated {speedup}, Eq. 3 {predicted}");
            assert!(speedup >= predicted, "{label}");
            if let Some(tolerance) = tolerance {
                assert!(speedup <= predicted * (1.0 + tolerance), "{label}");
            }
        }
    }
}

/// A `2T(n/2) + n²` tree whose merges are parallelised as Eq. 5 assumes: a
/// merge of size `s` gets the `p·s/n` processors its level has (at least
/// one), since the `2^d` merges at depth `d` already run side by side.
fn parallel_merge_tree(n: usize, p: usize) -> TaskTree {
    let merge = move |s: usize| ((s * s) as u64).div_ceil((p * s / n).max(1) as u64);
    TaskTree::divide_and_conquer(n, 2, 2, 1, &CostSpec::merge_dominated(merge))
}

#[test]
fn parallel_merge_speedup_follows_eq5_and_never_exceeds_p() {
    let n = 1 << 9;
    let rec = catalog::quadratic_merge();
    let t1 = TreeSimulator::new(&parallel_merge_tree(n, 1))
        .run(1)
        .makespan as f64;
    for p in [2, 4, 8, 16] {
        let tp = TreeSimulator::new(&parallel_merge_tree(n, p))
            .run(p)
            .makespan;
        let speedup = t1 / tp as f64;
        let predicted = rec.predicted_speedup_parallel_merge(n, p);
        assert!(speedup <= p as f64, "p = {p}: speedup {speedup} above p");
        assert!(
            (speedup / predicted - 1.0).abs() <= 0.01,
            "p = {p}: simulated {speedup}, Eq. 5 {predicted}"
        );
    }
}
