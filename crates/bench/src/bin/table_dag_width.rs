//! Experiment E9 — antichain structure of DP dependency DAGs (§4.3, §4.6).
//!
//! For every problem in the suite, prints the quantities §4.6 says govern the
//! achievable speedup: total work (cells), longest chain, number of
//! antichains (equal to the longest chain by the dual of Dilworth's theorem),
//! maximum and average antichain width, and the resulting speedup bound
//! `work / max(chain, work/p)` for `p = 8`.

use lopram_bench::{random_edges, random_string};
use lopram_dp::prelude::*;

fn report<P: DpProblem>(problem: &P, label: &str) {
    let dag = dependency_dag(problem);
    let levels = dag.levels();
    assert!(
        levels.validate(&dag),
        "antichain decomposition must be valid"
    );
    println!(
        "{:<22} {:>9} {:>8} {:>11} {:>10} {:>10.1} {:>12.2}",
        label,
        dag.work(),
        dag.longest_chain(),
        levels.height(),
        dag.max_width(),
        dag.average_width(),
        dag.max_speedup(8),
    );
}

fn main() {
    println!("Dependency-DAG structure of the DP suite (speedup bound for p = 8)\n");
    println!(
        "{:<22} {:>9} {:>8} {:>11} {:>10} {:>10} {:>12}",
        "problem", "cells", "chain", "antichains", "max width", "avg width", "bound (p=8)"
    );

    report(
        &Lcs::new(random_string(300, 4, 1), random_string(300, 4, 2)),
        "lcs 300x300",
    );
    report(
        &EditDistance::new(random_string(300, 4, 3), random_string(300, 4, 4)),
        "edit-distance 300x300",
    );
    report(
        &MatrixChain::new((0..80).map(|i| ((i * 13) % 30 + 2) as u64).collect()),
        "matrix-chain 79",
    );
    report(
        &OptimalBst::new((0..80).map(|i| ((i * 7) % 40 + 1) as u64).collect()),
        "optimal-bst 80",
    );
    report(
        &Knapsack::new(
            (0..60).map(|i| (i % 9) + 1).collect(),
            (0..60).map(|i| ((i * 3) % 20 + 1) as u64).collect(),
            600,
        ),
        "knapsack 60x600",
    );
    report(
        &CoinChange::new(vec![1, 2, 5, 10, 20, 50], 500),
        "coin-change 6x500",
    );
    report(
        &RodCutting::new((1..=30).map(|i| i * 2).collect(), 300),
        "rod-cutting 300",
    );
    report(
        &Lis::new((0..300).map(|i| ((i * 37) % 101) as i64).collect()),
        "lis 300",
    );
    report(
        &FloydWarshall::from_edges(24, &random_edges(24, 150, 7)),
        "floyd-warshall 24",
    );
    report(
        &PrefixChain::new((0..500).map(|i| i as i64).collect()),
        "1-D chain 500",
    );

    println!("\nPaper claim (§4.3/§4.6): the speedup is governed by the antichain structure;");
    println!("wide, shallow DAGs (grids, slabs) support speedup ≈ p while the 1-D chain,");
    println!("whose DAG is a path (max width 1), supports none.");
}
