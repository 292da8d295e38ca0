//! Cross-crate integration tests for the dynamic-programming pipeline:
//! problem specification → dependency DAG (analysis) → ideal schedule
//! (simulator) → real pal-thread execution (dp + core).

use lopram::core::PalPool;
use lopram::dp::prelude::*;
use lopram::sim::simulate_dag_schedule;

#[test]
fn lcs_pipeline_from_spec_to_schedulers() {
    let a: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
    let b: Vec<u8> = (0..180).map(|i| (i % 3) as u8).collect();
    let problem = Lcs::new(a, b);

    // Dependency DAG and its antichain structure.
    let dag = dependency_dag(&problem);
    assert_eq!(dag.len(), problem.num_cells());
    assert!(dag.is_acyclic());
    let levels = dag.levels();
    assert!(levels.validate(&dag));
    assert_eq!(levels.height(), 200 + 180);

    // The ideal p-processor schedule of that DAG scales with p.
    let costs = vec![1u64; dag.len()];
    let s2 = simulate_dag_schedule(&dag, &costs, 2).speedup();
    let s8 = simulate_dag_schedule(&dag, &costs, 8).speedup();
    assert!(s2 > 1.8);
    assert!(s8 > 6.0);

    // All real schedulers agree with the sequential reference.
    let expected = problem.reference();
    let pool = PalPool::new(4).unwrap();
    assert_eq!(solve_sequential(&problem).goal, expected);
    assert_eq!(solve_wavefront(&problem, &pool).goal, expected);
    assert_eq!(solve_counter(&problem, &pool).goal, expected);
    assert_eq!(solve_memoized(&problem, &pool).goal, expected);
}

/// §3.2: "The algorithm must execute properly for any value of p" —
/// Algorithm 1 on one table, from one processor to well past the core count.
#[test]
fn counter_solves_lcs_identically_for_any_p() {
    let a: Vec<u8> = (0..200).map(|i| b"acgt"[(i * 3 + i / 7) % 4]).collect();
    let b: Vec<u8> = (0..180).map(|i| b"acgt"[(i * 5 + i / 7) % 4]).collect();
    let problem = Lcs::new(a, b);
    let expected = solve_sequential(&problem).values;
    for p in [1, 2, 3, 4, 6, 8, 12, 16] {
        let pool = PalPool::new(p).unwrap();
        assert_eq!(solve_counter(&problem, &pool).values, expected, "p = {p}");
    }
}

#[test]
fn chain_dp_has_no_parallelism_but_stays_correct() {
    let problem = PrefixChain::new((0..3000).map(|i| (i % 997) as i64 - 498).collect());
    let dag = dependency_dag(&problem);
    assert_eq!(dag.max_width(), 1);
    assert!((dag.max_speedup(8) - 1.0).abs() < 1e-12);

    let expected = problem.reference();
    let pool = PalPool::new(8).unwrap();
    assert_eq!(solve_counter(&problem, &pool).goal, expected);
    assert_eq!(solve_wavefront(&problem, &pool).goal, expected);
}

#[test]
fn every_problem_agrees_across_schedulers_and_processor_counts() {
    let pool2 = PalPool::new(2).unwrap();
    let pool8 = PalPool::new(8).unwrap();

    let lcs = Lcs::new(b"abracadabra".to_vec(), b"alakazam".to_vec());
    let ed = EditDistance::new(b"sunday".to_vec(), b"saturday".to_vec());
    let mc = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]);
    let bst = OptimalBst::new(vec![34, 8, 50, 21, 13]);
    let knap = Knapsack::new(vec![1, 3, 4, 5, 2], vec![1, 4, 5, 7, 3], 9);
    let coins = CoinChange::new(vec![1, 2, 5], 40);
    let rod = RodCutting::new(vec![1, 5, 8, 9, 10, 17, 17, 20], 17);
    let lis = Lis::new(vec![10, 9, 2, 5, 3, 7, 101, 18, 4, 6]);

    macro_rules! check {
        ($p:expr) => {{
            let expected = solve_sequential(&$p).goal;
            for pool in [&pool2, &pool8] {
                assert_eq!(solve_wavefront(&$p, pool).goal, expected);
                assert_eq!(solve_counter(&$p, pool).goal, expected);
                assert_eq!(solve_memoized(&$p, pool).goal, expected);
            }
        }};
    }
    check!(lcs);
    check!(ed);
    check!(mc);
    check!(bst);
    check!(knap);
    check!(coins);
    check!(rod);
    check!(lis);
}

/// The full solver cross-check matrix: all four solvers agree on **every**
/// problem in `dp::problems`, at every p in {1, 2, 4}.  The older tests
/// sampled this grid (p ∈ {2, 8}, no chain/Floyd–Warshall × memoized, no
/// p = 1 anywhere); this pins the whole thing, including the p = 1
/// degenerate pools whose cutoff elides every fork.
#[test]
fn all_four_solvers_agree_on_every_problem_at_small_p() {
    let pools: Vec<PalPool> = [1, 2, 4]
        .into_iter()
        .map(|p| PalPool::new(p).unwrap())
        .collect();

    macro_rules! check {
        ($name:literal, $p:expr) => {{
            let problem = $p;
            let sequential = solve_sequential(&problem);
            for pool in &pools {
                let p = pool.processors();
                let wavefront = solve_wavefront(&problem, pool);
                let counter = solve_counter(&problem, pool);
                // The two bottom-up parallel solvers fill the whole table:
                // compare every cell, not just the goal.
                assert_eq!(
                    wavefront.values, sequential.values,
                    "{}: wavefront table diverged at p = {p}",
                    $name
                );
                assert_eq!(
                    counter.values, sequential.values,
                    "{}: counter table diverged at p = {p}",
                    $name
                );
                // Top-down memoization only computes the cells the goal
                // needs: compare the goal value.
                assert_eq!(
                    solve_memoized(&problem, pool).goal,
                    sequential.goal,
                    "{}: memoized goal diverged at p = {p}",
                    $name
                );
            }
        }};
    }

    check!(
        "lcs",
        Lcs::new(b"abracadabra".to_vec(), b"alakazam".to_vec())
    );
    check!(
        "edit-distance",
        EditDistance::new(b"sunday".to_vec(), b"saturday".to_vec())
    );
    check!(
        "matrix-chain",
        MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25])
    );
    check!("optimal-bst", OptimalBst::new(vec![34, 8, 50, 21, 13]));
    check!(
        "knapsack",
        Knapsack::new(vec![1, 3, 4, 5, 2], vec![1, 4, 5, 7, 3], 9)
    );
    check!("coin-change", CoinChange::new(vec![1, 2, 5], 40));
    check!(
        "rod-cutting",
        RodCutting::new(vec![1, 5, 8, 9, 10, 17, 17, 20], 17)
    );
    check!("lis", Lis::new(vec![10, 9, 2, 5, 3, 7, 101, 18, 4, 6]));
    // The chain stays small: memoization recurses one frame per cell along
    // the single dependency chain.
    check!(
        "prefix-chain",
        PrefixChain::new((0..128).map(|i| (i % 23) as i64 - 11).collect())
    );
    check!(
        "floyd-warshall",
        FloydWarshall::from_edges(
            12,
            &(0..60)
                .map(|i| ((i * 5) % 12, (i * 7 + 2) % 12, ((i * 11) % 30 + 1) as u64))
                .collect::<Vec<_>>(),
        )
    );
}

#[test]
fn floyd_warshall_matches_reference_through_the_full_pipeline() {
    let edges: Vec<(usize, usize, u64)> = (0..120)
        .map(|i| ((i * 7) % 20, (i * 13 + 3) % 20, ((i * 31) % 50 + 1) as u64))
        .collect();
    let problem = FloydWarshall::from_edges(20, &edges);
    let expected = problem.reference();
    let pool = PalPool::new(4).unwrap();
    assert_eq!(
        problem.distances(&solve_counter(&problem, &pool).values),
        expected
    );
    assert_eq!(
        problem.distances(&solve_wavefront(&problem, &pool).values),
        expected
    );

    let dag = dependency_dag(&problem);
    // One antichain per k-slab plus the base slab.
    assert_eq!(dag.longest_chain(), 21);
}
