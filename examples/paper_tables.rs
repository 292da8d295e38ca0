//! The paper's analytical tables, printed from library calls.
//!
//! Every column is a step count of the simulated LoPRAM, an analytic
//! prediction or a structural count of a dependency DAG — never a clock
//! reading — so two runs print byte-identical output.  `cargo test` asserts
//! the same readings (`tests/theorem1_integration.rs`,
//! `crates/dp/tests/schedule.rs`).  Figure 1 is printed by the
//! `mergesort_tree` example, measured Theorem 1 speedups by
//! `master_theorem_cases`, and timings against the sequential twins by the
//! standalone `benchmark/` workspace.
//!
//! Run with `cargo run --release --example paper_tables`.

use lopram::analysis::{recurrence::catalog, Growth, Recurrence};
use lopram::core::SeqExecutor;
use lopram::dp::prelude::*;
use lopram::sim::{CostSpec, TaskTree, TreeSimulator};

const SWEEP: [usize; 4] = [2, 4, 8, 16];

fn main() {
    figure2_cutoff_depth();
    eq3_makespan();
    theorem1_speedups();
    dag_structure();
    memoization_reach();
}

/// Figure 2: the depth `⌊log_a p⌋` at which thread creation stops, against
/// the deepest level whose calls the simulator started all at once.
fn figure2_cutoff_depth() {
    let n = 1usize << 8;
    println!("Figure 2: parallel cutoff depth, n = {n}\n");
    println!(
        "{:>3} {:>3} {:>4} {:>14} {:>16} {:>14}",
        "a", "b", "p", "floor(log_a p)", "seq. subproblem", "sim: deepest"
    );
    for (a, b) in [(2, 2), (3, 2), (4, 2), (4, 4)] {
        let rec = Recurrence::new(a, b, Growth::linear(1.0));
        let tree = TaskTree::divide_and_conquer(n, a, b, 1, &CostSpec::unit());
        for p in SWEEP {
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
            println!(
                "{a:>3} {b:>3} {p:>4} {:>14} {:>16.1} {deepest:>14}",
                rec.parallel_depth(p),
                rec.sequential_subproblem_size(n, p)
            );
        }
    }
}

/// Eq. 3's closed form against the simulated makespan of `2T(n/2) + n`.
fn eq3_makespan() {
    println!("\nEq. 3: simulated makespan vs T_p = T(n/b^k) + sum f(n/b^i), 2T(n/2) + n\n");
    println!(
        "{:>6} {:>4} {:>14} {:>14} {:>7}",
        "n", "p", "simulated T_p", "Eq. 3 T_p", "ratio"
    );
    let rec = catalog::mergesort();
    for n in [1usize << 8, 1 << 10, 1 << 12] {
        let costs = CostSpec {
            divide: Box::new(|_| 0),
            merge: Box::new(|s| s as u64),
            base: Box::new(|_| 1),
        };
        let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
        for p in [1, 2, 4, 8, 16] {
            let simulated = TreeSimulator::new(&tree).run(p).makespan;
            let analytic = rec.parallel_time_eq3(n, p);
            let ratio = simulated as f64 / analytic;
            println!("{n:>6} {p:>4} {simulated:>14} {analytic:>14.0} {ratio:>7.3}");
        }
    }
}

/// Theorem 1 on the simulated LoPRAM: one recurrence per Master case with
/// Eq. 3's prediction, then case 3 with parallel merges against Eq. 5.
fn theorem1_speedups() {
    println!("\nTheorem 1 on the simulated LoPRAM: speedup T_1/T_p per Master case\n");
    println!(
        "{:<30} {:>6} {:>4} {:>10} {:>8} {:>10}",
        "workload", "n", "p", "sim T_p", "speedup", "Eq.3/Eq.5"
    );
    let row = |label: &str, n: usize, p: usize, t1: u64, tp: u64, predicted: f64| {
        let speedup = t1 as f64 / tp as f64;
        println!("{label:<30} {n:>6} {p:>4} {tp:>10} {speedup:>8.2} {predicted:>10.2}");
    };
    // (workload, recurrence, n, a, k) for T(n) = a·T(n/2) + n^k.
    let cases = [
        ("case 1: 3T(n/2)+n", catalog::karatsuba(), 1 << 10, 3, 1),
        ("case 2: 2T(n/2)+n", catalog::mergesort(), 1 << 14, 2, 1),
        (
            "case 3: 2T(n/2)+n^2 (seq)",
            catalog::quadratic_merge(),
            1 << 9,
            2,
            2,
        ),
    ];
    for (label, rec, n, a, k) in cases {
        let costs = CostSpec::merge_dominated(move |s| (s as u64).pow(k));
        let tree = TaskTree::divide_and_conquer(n, a, 2, 1, &costs);
        let t1 = TreeSimulator::new(&tree).run(1).makespan;
        for p in SWEEP {
            let tp = TreeSimulator::new(&tree).run(p).makespan;
            row(label, n, p, t1, tp, rec.predicted_speedup(n, p));
        }
    }
    // Eq. 5: a merge of size s gets the p·s/n processors its level has.
    let n = 1usize << 9;
    let parallel_merge = |p: usize| {
        let merge = move |s: usize| ((s * s) as u64).div_ceil((p * s / n).max(1) as u64);
        TaskTree::divide_and_conquer(n, 2, 2, 1, &CostSpec::merge_dominated(merge))
    };
    let t1 = TreeSimulator::new(&parallel_merge(1)).run(1).makespan;
    let rec = catalog::quadratic_merge();
    for p in SWEEP {
        let tp = TreeSimulator::new(&parallel_merge(p)).run(p).makespan;
        let predicted = rec.predicted_speedup_parallel_merge(n, p);
        row("case 3: parallel merge (Eq. 5)", n, p, t1, tp, predicted);
    }
}

/// Four letters, deterministic and aperiodic enough to make LCS and edit
/// distance tables non-trivial.
fn text(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| b"acgt"[(i * salt + i / 7) % 4]).collect()
}

/// §4.3/§4.6: the antichain structure of every DP problem's dependency DAG
/// and the speedup bound `work / max(chain, work/p)` it allows at p = 8.
fn dag_structure() {
    println!("\n§4.3/§4.6: dependency-DAG structure of the DP suite\n");
    println!(
        "{:<22} {:>7} {:>6} {:>10} {:>9} {:>9} {:>11}",
        "problem", "cells", "chain", "antichains", "max width", "avg width", "bound p=8"
    );
    fn row<P: DpProblem>(label: &str, problem: P) {
        let dag = dependency_dag(&problem);
        println!(
            "{label:<22} {:>7} {:>6} {:>10} {:>9} {:>9.1} {:>11.2}",
            dag.work(),
            dag.longest_chain(),
            dag.levels().height(),
            dag.max_width(),
            dag.average_width(),
            dag.max_speedup(8)
        );
    }
    row("lcs 300x300", Lcs::new(text(300, 3), text(300, 5)));
    row(
        "edit-distance 300x300",
        EditDistance::new(text(300, 7), text(300, 11)),
    );
    row(
        "matrix-chain 79",
        MatrixChain::new((0..80).map(|i| (i * 13) % 30 + 2).collect()),
    );
    row(
        "optimal-bst 80",
        OptimalBst::new((0..80).map(|i| (i * 7) % 40 + 1).collect()),
    );
    row(
        "knapsack 60x600",
        Knapsack::new(
            (0..60).map(|i| i % 9 + 1).collect(),
            (0..60).map(|i| (i * 3) % 20 + 1).collect(),
            600,
        ),
    );
    row(
        "coin-change 6x500",
        CoinChange::new(vec![1, 2, 5, 10, 20, 50], 500),
    );
    row(
        "rod-cutting 300",
        RodCutting::new((1..=30).map(|i| i * 2).collect(), 300),
    );
    row(
        "lis 300",
        Lis::new((0..300).map(|i| (i * 37) % 101).collect()),
    );
    let edges: Vec<_> = (0..150)
        .map(|i| ((i * 5) % 24, (i * 7 + 2) % 24, ((i * 11) % 30 + 1) as u64))
        .collect();
    row("floyd-warshall 24", FloydWarshall::from_edges(24, &edges));
    row("1-D chain 500", PrefixChain::new((0..500).collect()));
}

/// §4.5: top-down memoization computes only the cells reachable from the
/// goal, at the price of repeated probes (counted on one processor, where
/// the count is a function of the problem alone).
fn memoization_reach() {
    println!("\n§4.5: memoization reach (cells computed out of the table)\n");
    println!(
        "{:<20} {:>9} {:>9} {:>8} {:>10}",
        "problem", "computed", "table", "share", "probes"
    );
    fn row<P: DpProblem>(label: &str, problem: P) {
        let run = solve_memoized(&problem, &SeqExecutor);
        let cells = problem.num_cells();
        println!(
            "{label:<20} {:>9} {cells:>9} {:>8.3} {:>10}",
            run.computed_cells,
            run.computed_cells as f64 / cells as f64,
            run.repeated_probes
        );
    }
    row(
        "matrix-chain 59",
        MatrixChain::new((0..60).map(|i| (i * 11) % 35 + 2).collect()),
    );
    row("lcs 200x200", Lcs::new(text(200, 3), text(200, 5)));
    row(
        "knapsack 60x600",
        Knapsack::new(
            (0..60).map(|i| i % 17 + 1).collect(),
            (0..60).map(|i| (i * 5) % 40 + 1).collect(),
            600,
        ),
    );
    row(
        "coin-change 6x500",
        CoinChange::new(vec![1, 2, 5, 10, 20, 50], 500),
    );
}
