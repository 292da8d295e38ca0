//! Trace capture over the irregular graph kernels: a traced pool must
//! record BFS's entire fork structure (every fork of a blocked primitive
//! is a pass fork), reproduce the pool's `RunMetrics` from the event
//! stream, and stay an observer — identical distances and identical
//! schedule-independent counters as an untraced twin pool.

use lopram_core::{PalPool, TraceConfig};
use lopram_graph::prelude::*;

/// These graphs sit far below the default policy's wake floor, where every
/// pass is one block and nothing forks; the suite is about fork structure,
/// so its pools pin a grain small enough that BFS levels really split.
fn pinned_pool(p: usize) -> lopram_core::PalPoolBuilder {
    PalPool::builder().processors(p).grain(16)
}

fn traced_pool(p: usize) -> PalPool {
    pinned_pool(p)
        .trace(TraceConfig::default())
        .build()
        .unwrap()
}

#[test]
fn traced_bfs_reproduces_metrics_on_every_shape() {
    let shapes: Vec<(&str, CsrGraph)> = vec![
        ("gnm", gnm(1024, 4096, 7)),
        ("grid", grid(24, 24)),
        ("star", star(512)),
        ("tree", binary_tree(511)),
    ];
    for (name, graph) in &shapes {
        let expected = bfs_seq(graph, 0);
        for p in [1usize, 2, 4] {
            let pool = traced_pool(p);
            assert_eq!(&bfs_par(graph, &pool, 0), &expected, "{name}, p = {p}");
            let m = pool.metrics().snapshot();
            let trace = pool.take_trace().expect("tracing was on");
            assert!(trace.is_complete(), "{name}, p = {p}: dropped events");
            let s = trace.summary();
            assert_eq!(s.forks, m.forks(), "{name}, p = {p}: forks");
            assert_eq!(s.elided, m.elided, "{name}, p = {p}: elided");
            assert_eq!(s.spawned, m.spawned, "{name}, p = {p}: spawned");
            assert_eq!(s.inlined, m.inlined, "{name}, p = {p}: inlined");
            assert_eq!(s.steals, m.steals, "{name}, p = {p}: steals");
            assert_eq!(s.unclassified, 0, "{name}, p = {p}: quiesced capture");
            // BFS obtains all parallelism from blocked primitives, so its
            // fork count is exactly the pass-fork count: the capture names
            // the pass behind every fork.
            assert_eq!(s.forks, s.pass_forks, "{name}, p = {p}: all pass forks");
            assert!(s.passes > 0, "{name}, p = {p}: levels record passes");
            assert!(s.pass_forks > 0, "{name}, p = {p}: some level is fat");
            if p == 1 {
                assert_eq!(s.steals, 0, "{name}: one processor cannot steal");
                assert_eq!(s.elided, s.forks, "{name}: p = 1 elides everything");
            }
        }
    }
}

#[test]
fn tracing_is_an_observer_for_graph_kernels() {
    let graph = gnm(2048, 8192, 42);
    for p in [1usize, 2, 4] {
        let plain = pinned_pool(p).build().unwrap();
        let traced = traced_pool(p);
        assert_eq!(
            bfs_par(&graph, &plain, 0),
            bfs_par(&graph, &traced, 0),
            "p = {p}: tracing changed BFS output"
        );
        assert_eq!(
            components_union_find(&graph, &plain),
            components_union_find(&graph, &traced),
            "p = {p}: tracing changed CC output"
        );
        // Both kernels' fork counts are exact closed forms of the input,
        // so tracing must leave the totals untouched.
        let mp = plain.metrics().snapshot();
        let mt = traced.metrics().snapshot();
        assert!(mp.forks() > 0, "p = {p}: the kernels forked");
        assert_eq!(mp.forks(), mt.forks(), "p = {p}: tracing changed forks");
        assert_eq!(mp.elided, mt.elided, "p = {p}: tracing changed elisions");
    }
}

#[test]
fn repeated_bfs_capture_windows_stay_complete() {
    // Re-running BFS and draining between runs: every window is complete
    // (buffers reset on drain) and every window records the same structure
    // (BFS fork counts are schedule-independent).
    let graph = grid(32, 32);
    let pool = traced_pool(2);
    let mut first_forks = None;
    for round in 0..5 {
        let dist = bfs_par(&graph, &pool, 0);
        assert_eq!(dist, bfs_seq(&graph, 0), "round {round}");
        let trace = pool.take_trace().expect("tracing was on");
        assert!(trace.is_complete(), "round {round}: dropped events");
        let forks = trace.summary().forks;
        match first_forks {
            None => first_forks = Some(forks),
            Some(f) => assert_eq!(forks, f, "round {round}: structure drifted"),
        }
    }
}
