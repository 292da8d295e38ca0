//! Experiment E8 — parallel dynamic programming (§4.4, Algorithm 1).
//!
//! Measures the wall-clock speedup of the wavefront and counter (Algorithm 1)
//! schedulers over the sequential bottom-up evaluation for the classic DP
//! problems, and prints next to them the ideal speedup of a greedy
//! `p`-processor schedule of the same dependency DAG (from `lopram-sim`).

use lopram_bench::{measure, pool_with, random_string, SpeedupRow, PROCESSOR_SWEEP};
use lopram_dp::prelude::*;
use lopram_sim::simulate_dag_schedule;

fn bench_problem<P: DpProblem>(problem: &P, label: &str, rows: &mut Vec<SpeedupRow>) {
    let runs = 3;
    let n = problem.num_cells();
    let seq = measure(runs, || {
        std::hint::black_box(solve_sequential(problem));
    });
    let dag = dependency_dag(problem);
    let costs = vec![1u64; dag.len()];
    for &p in &PROCESSOR_SWEEP {
        let pool = pool_with(p);
        let par = measure(runs, || {
            std::hint::black_box(solve_counter(problem, &pool));
        });
        let ideal = simulate_dag_schedule(&dag, &costs, p).speedup();
        rows.push(SpeedupRow {
            label: format!("{label} (counter)"),
            n,
            p,
            sequential: seq,
            parallel: par,
            predicted: Some(ideal),
        });
    }
    for &p in &PROCESSOR_SWEEP {
        let pool = pool_with(p);
        let par = measure(runs, || {
            std::hint::black_box(solve_wavefront(problem, &pool));
        });
        let ideal = simulate_dag_schedule(&dag, &costs, p).speedup();
        rows.push(SpeedupRow {
            label: format!("{label} (wavefront)"),
            n,
            p,
            sequential: seq,
            parallel: par,
            predicted: Some(ideal),
        });
    }
}

fn main() {
    let mut rows = Vec::new();

    let lcs = Lcs::new(random_string(900, 4, 1), random_string(900, 4, 2));
    bench_problem(&lcs, "lcs 900x900", &mut rows);

    let ed = EditDistance::new(random_string(900, 4, 3), random_string(900, 4, 4));
    bench_problem(&ed, "edit-dist 900x900", &mut rows);

    let knap = Knapsack::new(
        (0..220).map(|i| (i % 13) + 1).collect(),
        (0..220).map(|i| ((i * 7) % 50 + 1) as u64).collect(),
        2200,
    );
    bench_problem(&knap, "knapsack 220x2200", &mut rows);

    let mc = MatrixChain::new((0..140).map(|i| ((i * 17) % 40 + 2) as u64).collect());
    bench_problem(&mc, "matrix-chain 139", &mut rows);

    let fw = FloydWarshall::from_edges(48, &lopram_bench::random_edges(48, 400, 9));
    bench_problem(&fw, "floyd-warshall 48", &mut rows);

    let chain = PrefixChain::new((0..20_000).map(|i| i as i64 % 977 - 488).collect());
    bench_problem(&chain, "1-D chain (no par.)", &mut rows);

    lopram_bench::print_speedup_table(
        "Parallel dynamic programming (§4.4): measured vs ideal DAG-schedule speedup",
        &rows,
    );
    println!("\nPaper claim: 2-D and 3-D tables give speedup ≈ p (bounded by the ideal greedy");
    println!("schedule of the dependency DAG); the 1-D chain gives no speedup regardless of p.");
}
