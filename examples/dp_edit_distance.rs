//! Parallel dynamic programming on the LoPRAM: edit distance (§4.2–§4.4).
//!
//! Builds the dependency DAG of the edit-distance table, prints the antichain
//! structure the paper's analysis relies on, and times the wavefront and
//! Algorithm 1 schedulers against the sequential bottom-up evaluation.
//! It asserts that all three fill the whole table identically.  Edit
//! distance is a grid, so the sequential and wavefront solvers are the same
//! row-major loop; the counter solver goes through the dependency schedule.
//!
//! Run with `cargo run --release --example dp_edit_distance`.

use std::time::Instant;

use lopram::core::PalPool;
use lopram::dp::prelude::*;
use lopram::sim::simulate_dag_schedule;

fn main() {
    let n = 600;
    let a: Vec<u8> = (0..n).map(|i| (i * 7 % 4) as u8).collect();
    let b: Vec<u8> = (0..n).map(|i| (i * 13 % 4) as u8).collect();
    let problem = EditDistance::new(a, b);

    // The dependency DAG and its antichain (Mirsky) decomposition.
    let dag = dependency_dag(&problem);
    println!(
        "edit distance {n}x{n}: {} cells, longest chain {}, max antichain width {}, avg width {:.1}",
        dag.work(),
        dag.longest_chain(),
        dag.max_width(),
        dag.average_width()
    );
    for p in [2usize, 4, 8] {
        println!(
            "  speedup bound with p = {p}: {:.2} (ideal greedy schedule: {:.2})",
            dag.max_speedup(p),
            simulate_dag_schedule(&dag, &vec![1; dag.len()], p).speedup()
        );
    }

    // Measure the schedulers.
    let start = Instant::now();
    let sequential = solve_sequential(&problem);
    let t_seq = start.elapsed();

    let pool = PalPool::for_input_size(problem.num_cells());
    println!(
        "\nrunning parallel schedulers on p = {} processors",
        pool.processors()
    );

    let start = Instant::now();
    let wavefront = solve_wavefront(&problem, &pool);
    let t_wave = start.elapsed();
    let wave_forks = pool.metrics().forks();

    let start = Instant::now();
    let counter = solve_counter(&problem, &pool);
    let t_counter = start.elapsed();

    assert_eq!(sequential.goal, problem.reference());
    assert!(
        sequential.values == wavefront.values,
        "wavefront table differs"
    );
    assert!(sequential.values == counter.values, "counter table differs");
    println!("edit distance = {}", sequential.goal);
    println!("sequential bottom-up : {t_seq:.2?}");
    println!(
        "wavefront (row-major): {t_wave:.2?}  (speedup {:.2}, {wave_forks} forks)",
        t_seq.as_secs_f64() / t_wave.as_secs_f64()
    );
    println!(
        "Algorithm 1 (counters): {t_counter:.2?}  (speedup {:.2})",
        t_seq.as_secs_f64() / t_counter.as_secs_f64()
    );
}
