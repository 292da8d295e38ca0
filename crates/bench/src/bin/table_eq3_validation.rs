//! Experiment E7 — exactness of Eq. 3.
//!
//! Theorem 1 derives `T_p(n) = T(n / b^{log_a p}) + Σ_{i<log_a p} f(n/b^i)`.
//! This binary compares that closed form against the step-accurate
//! pal-thread scheduler of `lopram-sim` on merge-dominated cost trees for a
//! grid of `(n, p)` values.

use lopram_analysis::recurrence::catalog;
use lopram_sim::{CostSpec, TaskTree, TreeSimulator};

fn main() {
    // `--smoke` runs a reduced grid; CI uses it to keep the paper-table
    // harness exercised without paying for the full sweep.
    let smoke = lopram_bench::smoke_flag();
    println!("Eq. 3 validation: simulated pal-thread makespan vs analytic prediction");
    println!("(workload: T(n) = 2T(n/2) + n, unit leaves, merge cost n)\n");
    println!(
        "{:>8} {:>4} {:>14} {:>14} {:>8}",
        "n", "p", "simulated T_p", "Eq.3 T_p", "ratio"
    );
    let rec = catalog::mergesort();
    let exps: &[u32] = if smoke { &[8, 10] } else { &[8, 10, 12, 14] };
    for &exp in exps {
        let n = 1usize << exp;
        let costs = CostSpec {
            divide: Box::new(|_| 0),
            merge: Box::new(|s| s as u64),
            base: Box::new(|_| 1),
        };
        let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
        for &p in &[1usize, 2, 4, 8, 16] {
            let sim = TreeSimulator::new(&tree).run(p);
            let analytic = rec.parallel_time_eq3(n, p);
            println!(
                "{:>8} {:>4} {:>14} {:>14.0} {:>8.3}",
                n,
                p,
                sim.makespan,
                analytic,
                sim.makespan as f64 / analytic
            );
        }
    }
    println!("\nPaper claim: the schedule produced by the pal-thread scheduler realises Eq. 3");
    println!("exactly (ratios ≈ 1); deviations reflect only the +1 divide step per level that");
    println!("the analytic recurrence does not charge.");
}
