//! Smoke test for the umbrella crate's manifest wiring: every sub-crate must
//! be reachable through `lopram::prelude`, and `solve_sequential` must name
//! the dynamic-programming solver.  A failure here means a workspace
//! manifest or re-export regressed, not an algorithm.

use lopram::prelude::*;

#[test]
fn prelude_reexports_resolve_across_every_subcrate() {
    // core: policy + pool.
    let p = processors_for(1 << 10, ProcessorPolicy::LogN);
    assert!((1..=10).contains(&p));
    let pool = PalPool::new(2).expect("two processors");
    assert_eq!(pool.processors(), 2);

    // dnc: algorithm entry point via the prelude re-export.
    let mut data = vec![5i64, 1, 4, 2, 3];
    merge_sort(&pool, &mut data);
    assert_eq!(data, vec![1, 2, 3, 4, 5]);

    // analysis: recurrence + Master classification.
    let rec = Recurrence::new(2, 2, Growth::linear(1.0));
    let bound = parallel_master_bound(&rec, MergeMode::Sequential);
    assert_eq!(bound.speedup, SpeedupClass::Linear);

    // dp: one problem through the sequential and one parallel solver.
    let problem = Lcs::new(b"lopram".to_vec(), b"program".to_vec());
    let seq = solve_sequential(&problem).goal;
    assert_eq!(seq, solve_wavefront(&problem, &pool).goal);

    // sim: a tiny cost tree through the step-accurate scheduler.
    let costs = CostSpec {
        divide: Box::new(|_| 0),
        merge: Box::new(|s| s as u64),
        base: Box::new(|_| 1),
    };
    let tree = TaskTree::divide_and_conquer(1 << 6, 2, 2, 1, &costs);
    let sim = TreeSimulator::new(&tree).run(2);
    assert!(sim.makespan > 0);
}
