//! Experiment E14 — graph-kernel speedups on the pal-thread runtime.
//!
//! The LoPRAM claim is exercised on the *irregular* workload family: the
//! scan/pack-based graph kernels of `lopram-graph` (level-synchronous BFS,
//! connected components by label propagation and tree hooking, degree
//! histogram, triangle count) over four graph shapes (seeded `G(n, m)`,
//! grid, star, complete binary tree), at `p ∈ {1, 2, 4}`.
//!
//! Every parallel run is checked against its sequential twin — the table
//! refuses to print a speedup for a wrong answer — and the per-pool
//! `RunMetrics` counters are reported so the §3.1 schedule stays
//! observable: `spawned`/`steals` (pal-threads granted to / migrated to a
//! freed processor), `inlined`, and `elided` (forks below the `⌈α·log₂ p⌉`
//! cutoff that never became scheduler jobs).
//!
//! `--smoke` runs a reduced grid and asserts (CI-gated):
//! * parallel == sequential for **every** kernel × shape × p;
//! * nonzero `spawned` and nonzero `steals` at every `p >= 2` (the
//!   work-stealing runtime really migrates irregular work; retried a few
//!   times to absorb scheduling noise on a single-core host);
//! * exact `spawned + inlined + elided` fork accounting for the scan and
//!   pack primitives via [`assert_metrics_consistent`];
//! * exact BFS and CC fork counts under the adaptive grain policy, on a
//!   path graph where the per-level counts are closed-form — both on the
//!   default adaptive pool (wake floor ⇒ zero forks) and with the grain
//!   pinned to 1 via [`PalPoolBuilder::grain`] (legacy 4p blocking ⇒
//!   `2·(n − 2)` forks), proving the policy stays a pure function of
//!   `(len, p, configuration)` and never of the schedule.
//!
//! [`PalPoolBuilder::grain`]: lopram_core::PalPoolBuilder::grain

use std::time::Duration;

use lopram_bench::measure;
use lopram_core::{assert_metrics_consistent, MetricsSnapshot, PalPool};
use lopram_graph::prelude::*;

/// One measured cell: a kernel on a shape at a processor count.
struct Row {
    kernel: &'static str,
    shape: &'static str,
    p: usize,
    sequential: Duration,
    parallel: Duration,
    metrics: MetricsSnapshot,
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<10} {:>3} {:>12} {:>12} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "kernel", "shape", "p", "T_1", "T_p", "speedup", "spawned", "inlined", "steals", "elided"
    );
    for r in rows {
        let speedup = r.sequential.as_secs_f64() / r.parallel.as_secs_f64().max(1e-12);
        println!(
            "{:<12} {:<10} {:>3} {:>12.3?} {:>12.3?} {:>8.2} {:>9} {:>9} {:>8} {:>8}",
            r.kernel,
            r.shape,
            r.p,
            r.sequential,
            r.parallel,
            speedup,
            r.metrics.spawned,
            r.metrics.inlined,
            r.metrics.steals,
            r.metrics.elided,
        );
    }
}

/// A graph kernel with its sequential twin; `run_par` must equal `run_seq`
/// for any schedule, and both sides reduce their answer to a `u64`
/// fingerprint so the harness can compare heterogeneous outputs uniformly.
struct Kernel {
    name: &'static str,
    run_seq: fn(&CsrGraph) -> u64,
    run_par: fn(&CsrGraph, &PalPool) -> u64,
}

fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    // Order-sensitive FNV-1a fold: identical sequences, identical prints.
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    })
}

const KERNELS: [Kernel; 5] = [
    Kernel {
        name: "bfs",
        run_seq: |g| fingerprint(bfs_seq(g, 0).into_iter().map(|d| d as u64)),
        run_par: |g, pool| fingerprint(bfs_par(g, pool, 0).into_iter().map(|d| d as u64)),
    },
    Kernel {
        name: "cc-labelprop",
        run_seq: |g| fingerprint(components_seq(g).into_iter().map(|l| l as u64)),
        run_par: |g, pool| {
            fingerprint(components_label_prop(g, pool).into_iter().map(|l| l as u64))
        },
    },
    Kernel {
        name: "cc-hook",
        run_seq: |g| fingerprint(components_seq(g).into_iter().map(|l| l as u64)),
        run_par: |g, pool| fingerprint(components_hook(g, pool).into_iter().map(|l| l as u64)),
    },
    Kernel {
        name: "degree-hist",
        run_seq: |g| fingerprint(degree_histogram_seq(g)),
        run_par: |g, pool| fingerprint(degree_histogram(g, pool)),
    },
    Kernel {
        name: "triangles",
        run_seq: triangle_count_seq,
        run_par: triangle_count,
    },
];

fn shapes(smoke: bool) -> Vec<(&'static str, CsrGraph)> {
    if smoke {
        vec![
            // Wide enough that BFS's middle levels and the per-vertex
            // passes clear the default policy's wake floor: the sweep's
            // source of real forks and steals.  The other three shapes sit
            // below it and run every pass as one block.
            ("gnm", gnm(1 << 15, 1 << 17, 42)),
            ("grid", grid(48, 48)),
            ("star", star(4096)),
            ("tree", binary_tree(4095)),
        ]
    } else {
        vec![
            ("gnm", gnm(1 << 16, 1 << 18, 42)),
            ("grid", grid(256, 256)),
            ("star", star(1 << 16)),
            ("tree", binary_tree((1 << 16) - 1)),
        ]
    }
}

/// One full sweep; returns the rows plus (spawned, steals) totals per p.
fn sweep(shapes: &[(&'static str, CsrGraph)], runs: usize) -> (Vec<Row>, Vec<(usize, u64, u64)>) {
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for &p in &[1usize, 2, 4] {
        let (mut spawned, mut steals) = (0u64, 0u64);
        for &(shape, ref graph) in shapes {
            for kernel in &KERNELS {
                let expected = (kernel.run_seq)(graph);
                let sequential = measure(runs, || {
                    std::hint::black_box((kernel.run_seq)(graph));
                });
                // A fresh pool per cell isolates both the timing and the
                // counters (pools own persistent workers that idle-poll).
                let pool = PalPool::new(p).expect("p >= 1");
                let got = (kernel.run_par)(graph, &pool);
                assert_eq!(
                    got, expected,
                    "{} on {} diverged from its sequential twin at p = {p}",
                    kernel.name, shape
                );
                let parallel = measure(runs, || {
                    std::hint::black_box((kernel.run_par)(graph, &pool));
                });
                let metrics = pool.metrics().snapshot();
                assert!(
                    metrics.steals <= metrics.spawned,
                    "steals can never exceed processor grants"
                );
                spawned += metrics.spawned;
                steals += metrics.steals;
                rows.push(Row {
                    kernel: kernel.name,
                    shape,
                    p,
                    sequential,
                    parallel,
                    metrics,
                });
            }
        }
        totals.push((p, spawned, steals));
    }
    (rows, totals)
}

fn main() {
    let smoke = lopram_bench::smoke_flag();
    let runs = if smoke { 1 } else { 3 };
    let shapes = shapes(smoke);

    println!(
        "Graph-kernel speedups — {} kernels x {} shapes x p in {{1, 2, 4}}\n",
        KERNELS.len(),
        shapes.len()
    );

    // On a loaded single-core CI host a sweep can, rarely, complete
    // without a single steal; the schedule is racy even though every
    // result is checked deterministic.  Retry the sweep a few times
    // before declaring the migration rule broken.
    let mut attempt = 0;
    let (rows, totals) = loop {
        let (rows, totals) = sweep(&shapes, runs);
        let migrated = totals.iter().all(|&(p, s, st)| p < 2 || (s > 0 && st > 0));
        if migrated || !smoke || attempt >= 2 {
            break (rows, totals);
        }
        attempt += 1;
        eprintln!("attempt {attempt}: a p >= 2 sweep saw no steals - retrying");
    };
    print_rows(&rows);

    println!("\nReading: BFS and the packs/scans underneath it fork balanced block trees, so");
    println!("the elided column tracks the alpha*log p cutoff while spawned/steals show the");
    println!("top-of-tree blocks migrating; label propagation and hooking are flat for_each");
    println!("sweeps (injected, not stolen); p = 1 pools elide everything by construction.");

    if smoke {
        for &(p, spawned, steals) in &totals {
            if p >= 2 {
                assert!(
                    spawned > 0,
                    "p = {p}: no pal-thread was ever granted a processor across a full sweep"
                );
                assert!(
                    steals > 0,
                    "p = {p}: the runtime migrated nothing across a full sweep of \
                     irregular kernels — the §3.1 activation rule is not reaching them"
                );
            } else {
                assert_eq!(steals, 0, "a one-processor pool cannot migrate work");
            }
        }

        // Exact fork accounting for the primitives the kernels are built
        // on: block trees fork chunk_count - 1 times per parallel pass,
        // independent of the schedule.
        let input: Vec<u64> = (0..100_000).collect();
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).expect("p >= 1");
            let per_pass = pool.chunk_count(input.len()) as u64 - 1;
            assert!(per_pass > 0, "100 000 elements clear the wake floor");
            let scan = pool.scan(&input, 0u64, |a, b| a + b);
            assert_eq!(scan.total, 99_999 * 100_000 / 2);
            assert_metrics_consistent(pool.metrics(), 2 * per_pass);

            let pool = PalPool::new(p).expect("p >= 1");
            let kept = pool.pack(&input, |_, x| x % 2 == 0);
            assert_eq!(kept.len(), 50_000);
            assert_metrics_consistent(pool.metrics(), 2 * per_pass);
        }

        // BFS/CC fork counts stay exact under the adaptive grain policy.
        // On a path graph every frontier is a single vertex and every
        // candidate buffer holds at most two entries, so the per-level
        // block counts — and hence the whole kernel's fork count — are
        // closed-form.
        let n = 64usize;
        let path_graph = path(n);
        let expected_dist = bfs_seq(&path_graph, 0);
        for p in [1usize, 2, 4] {
            // Default adaptive pool: every level sits below the wake
            // floor — a plain loop on the calling thread, zero forks, end
            // to end, at every p.
            let pool = PalPool::new(p).expect("p >= 1");
            assert_eq!(bfs_par(&path_graph, &pool, 0), expected_dist);
            assert_metrics_consistent(pool.metrics(), 0);

            // Grain pinned to 1 via the builder (the legacy 4p blocking):
            // the only multi-block pass is the pack over the 2-candidate
            // buffer of each of the n − 2 interior levels — 2 blocks × 2
            // passes = 2 forks per level, independent of p and schedule.
            let pool = PalPool::builder()
                .processors(p)
                .grain(1)
                .build()
                .expect("p >= 1");
            assert_eq!(bfs_par(&path_graph, &pool, 0), expected_dist);
            assert_metrics_consistent(pool.metrics(), 2 * (n as u64 - 2));
        }
        // CC fork accounting: at p = 1 the elided spawns run in creation
        // (ascending-index) order, so label propagation on a path
        // converges in exactly two sweeps (one propagating, one
        // confirming the fixpoint) of 4 chunk spawns each.
        let pool = PalPool::new(1).expect("p = 1");
        assert_eq!(
            components_label_prop(&path_graph, &pool),
            components_seq(&path_graph)
        );
        assert_metrics_consistent(pool.metrics(), 2 * 4);

        println!(
            "\nsmoke: OK (per-p spawned/steals: {:?}; scan/pack + BFS/CC fork accounting \
             exact under adaptive grain)",
            totals
        );
    }
}
