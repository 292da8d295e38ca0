//! Level-synchronous frontier BFS on the pal-thread runtime.
//!
//! Demonstrates the irregular-workload path of the reproduction: a CSR
//! graph, the direction-switching parallel BFS of `lopram-graph` (sparse
//! levels top-down by scan/pack, dense levels bottom-up), its sequential
//! twin, and the `RunMetrics` counters that make the §3.1 schedule
//! observable.
//!
//! ```sh
//! cargo run --release --example graph_bfs
//! ```

use lopram::core::{processors_for, PalPool, ProcessorPolicy};
use lopram::graph::prelude::*;

fn main() {
    // A seeded G(n, m) graph: same edges on every run.
    let n = 1 << 14;
    let g = gnm(n, 4 * n, 7);
    println!(
        "G(n, m): {} vertices, {} edges, max degree {}",
        g.vertices(),
        g.edges(),
        g.max_degree()
    );

    // The paper's processor policy: p = O(log n).
    let p = processors_for(n, ProcessorPolicy::LogN);
    let pool = PalPool::new(p).expect("log n >= 1");
    println!(
        "pool: p = {p} (LogN policy), cutoff depth = {:?}",
        pool.cutoff_depth()
    );

    let par = bfs_par(&g, &pool, 0);
    let seq = bfs_seq(&g, 0);
    assert_eq!(par, seq, "parallel BFS must equal its sequential twin");

    let reached = par.iter().filter(|&&d| d != UNREACHED).count();
    println!(
        "BFS from 0: {} of {} vertices reached in {} levels",
        reached,
        g.vertices(),
        levels(&par)
    );

    // Per-level frontier sizes and arcs, and the direction both kernels
    // expand each frontier in: top-down (scan/pack) while it is sparse,
    // bottom-up (every unreached vertex looks for a parent) once dense.
    let mut frontiers = vec![(0usize, 0usize); levels(&par) + 1];
    for (v, &d) in par.iter().enumerate().filter(|&(_, &d)| d != UNREACHED) {
        frontiers[d].0 += 1;
        frontiers[d].1 += g.degree(v);
    }
    for (level, &(size, arcs)) in frontiers.iter().enumerate() {
        let direction = if is_dense_level(&g, size, arcs) {
            "dense, bottom-up"
        } else {
            "sparse, top-down"
        };
        println!("  level {level:>2}: {size:>6} vertices, {arcs:>6} arcs  {direction}");
    }
    assert!(
        frontiers.iter().any(|&(f, a)| is_dense_level(&g, f, a)),
        "the search should switch to bottom-up for its widest levels"
    );

    // The schedule the runtime produced, fork by fork.
    let m = pool.metrics();
    println!(
        "schedule: spawned = {}, inlined = {}, steals = {}, elided = {} ({} forks total)",
        m.spawned(),
        m.inlined(),
        m.steals(),
        m.elided(),
        m.forks(),
    );

    // Connected components: union-find reproduces the sequential twin.
    let labels = components_union_find(&g, &pool);
    assert_eq!(labels, components_seq(&g));
    println!("components: {}", component_count(&labels));
}
