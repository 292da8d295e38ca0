//! Differential property tests: every parallel kernel and primitive must
//! reproduce its sequential twin bit-for-bit on random graphs, for every
//! processor count in `{1, 2, 4}` — §3.2's "the algorithm must execute
//! properly for any value of p", applied to the irregular workloads.
//!
//! Graphs are drawn as random edge lists (endpoints folded into `0..n`),
//! which covers multi-edges, self-loops, isolated vertices and
//! disconnected graphs in one strategy.  The suite also pins the fork
//! accounting of the scan/pack primitives through
//! [`assert_metrics_consistent`]: the fork count of a blocked primitive is
//! a function of the block count alone, never of the schedule.
//!
//! Both BFS kernels switch direction per level, so they are also held to
//! an independent oracle: a test-local textbook queue BFS, on dense random
//! graphs and on multi-component ones.
//!
//! Random graphs this small never clear the default pool's wake floor, so
//! a plain test adds inputs that fork: the kernels on four fixed shapes,
//! one of them wide enough that its passes split.

use std::collections::VecDeque;

use lopram_core::{assert_metrics_consistent, PalPool};
use lopram_graph::prelude::*;
use proptest::prelude::*;

/// Processor counts every property is checked under.
const P_SWEEP: [usize; 3] = [1, 2, 4];

/// Build a graph on `n` vertices from raw endpoint pairs by folding the
/// endpoints into range.
fn graph_from(n: usize, raw: &[(usize, usize)]) -> CsrGraph {
    let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// Canonical relabelling: components numbered by first appearance, so two
/// labellings can be compared as partitions rather than as raw ids.
fn normalize(labels: &[usize]) -> Vec<usize> {
    let mut next = 0usize;
    let mut rename = vec![usize::MAX; labels.len()];
    labels
        .iter()
        .map(|&l| {
            if rename[l] == usize::MAX {
                rename[l] = next;
                next += 1;
            }
            rename[l]
        })
        .collect()
}

/// Textbook BFS — one FIFO queue, no levels, no direction — the oracle
/// both direction-switching kernels are held to.
fn bfs_queue(graph: &CsrGraph, src: usize) -> Vec<usize> {
    let mut dist = vec![UNREACHED; graph.vertices()];
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if dist[v] == UNREACHED {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// `parts` disjoint `gnm(n, density · n, ·)` blocks side by side, each
/// seeded apart: a source reaches its own block only.
fn gnm_blocks(parts: usize, n: usize, density: usize, seed: u64) -> CsrGraph {
    let mut edges = Vec::new();
    for k in 0..parts {
        let block = gnm(n, density * n, seed.wrapping_add(k as u64));
        for v in 0..n {
            for &u in block.neighbors(v).iter().filter(|&&u| v < u) {
                edges.push((k * n + v, k * n + u));
            }
        }
    }
    CsrGraph::from_undirected_edges(parts * n, &edges)
}

#[test]
fn kernels_match_their_twins_on_shapes_that_fork() {
    let shapes = [
        // Wide enough that BFS's middle levels and the per-vertex passes
        // clear the wake floor; the other three run every pass as one block.
        ("gnm", gnm(1 << 15, 1 << 17, 42)),
        ("grid", grid(48, 48)),
        ("star", star(4096)),
        ("tree", binary_tree(4095)),
    ];
    for (shape, g) in &shapes {
        let dist = bfs_seq(g, 0);
        let labels = components_seq(g);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            assert_eq!(bfs_par(g, &pool, 0), dist, "bfs, {shape}, p = {p}");
            let union_find = components_union_find(g, &pool);
            assert_eq!(union_find, labels, "union-find, {shape}, p = {p}");
            // Chunks spawned from this (non-worker) thread, as the CC
            // kernels' index passes are, are injected into the pool: a
            // `spawned` count that needs no steal, so it holds whatever the
            // schedule.  Whether anything was also stolen depends on it.
            let m = pool.metrics().snapshot();
            assert!(m.steals <= m.spawned, "{shape}, p = {p}: {m:?}");
            if p == 1 {
                assert_eq!(m.steals, 0, "{shape}: a one-processor pool cannot migrate");
            } else if *shape == "gnm" {
                assert!(
                    m.spawned > 0,
                    "p = {p}: no pass on gnm was granted a processor"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_distances_match_sequential(
        n in 1usize..48,
        src in 0usize..usize::MAX,
        raw in collection::vec((0usize..64, 0usize..64), 0..160),
    ) {
        let g = graph_from(n, &raw);
        let src = src % n;
        let expected = bfs_seq(&g, src);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            prop_assert_eq!(&bfs_par(&g, &pool, src), &expected, "p = {}", p);
        }
    }

    #[test]
    fn bfs_kernels_match_a_textbook_queue_bfs(
        n in 1usize..64,
        density in 0usize..17,
        parts in 1usize..4,
        seed in 0u64..u64::MAX,
        src in 0usize..usize::MAX,
    ) {
        // Up to 16 edges per vertex (clamped to the complete graph), and
        // up to three components: dense levels are common, unreachable
        // vertices too.
        let g = gnm_blocks(parts, n, density, seed);
        let src = src % g.vertices();
        let expected = bfs_queue(&g, src);
        prop_assert_eq!(&bfs_seq(&g, src), &expected, "bfs_seq");
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            prop_assert_eq!(&bfs_par(&g, &pool, src), &expected, "p = {}", p);
        }
    }

    #[test]
    fn component_labels_match_sequential(
        n in 1usize..40,
        raw in collection::vec((0usize..64, 0usize..64), 0..120),
    ) {
        let g = graph_from(n, &raw);
        let expected = components_seq(&g);
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            let uf_labels = components_union_find(&g, &pool);
            // Every kernel labels components by their minimum vertex id,
            // so the comparison is exact…
            prop_assert_eq!(&uf_labels, &expected, "union-find, p = {}", p);
            // …and a fortiori up to relabelling (the weaker contract a
            // future variant without the min-id guarantee must keep).
            prop_assert_eq!(normalize(&uf_labels), normalize(&expected));
            // The component count is invariant under relabelling.
            prop_assert_eq!(
                component_count(&normalize(&expected)),
                component_count(&expected)
            );
        }
    }

    #[test]
    fn scan_matches_sequential_twin(
        input in collection::vec(-1000i64..1000, 0..400),
    ) {
        // Sequential twin: running exclusive prefix sums.
        let mut acc = 0i64;
        let expected: Vec<i64> = input
            .iter()
            .map(|x| {
                let before = acc;
                acc += x;
                before
            })
            .collect();
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            let mut exclusive = Vec::new();
            let total = pool.scan_copy_in(&input, 0i64, |a, b| a + b, &mut exclusive);
            prop_assert_eq!(&exclusive, &expected, "p = {}", p);
            prop_assert_eq!(total, acc, "p = {}", p);
            // Fork accounting is schedule-independent: two parallel
            // passes over chunk_count blocks.
            let forks = if input.is_empty() {
                0
            } else {
                2 * (pool.chunk_count(input.len()) as u64 - 1)
            };
            assert_metrics_consistent(pool.metrics(), forks);
        }
    }

    #[test]
    fn pack_matches_sequential_twin(
        input in collection::vec(0u32..500, 0..400),
        modulus in 1u32..7,
        residue in 0u32..7,
    ) {
        let residue = residue % modulus;
        let expected: Vec<u32> = input
            .iter()
            .copied()
            .filter(|x| x % modulus == residue)
            .collect();
        for p in P_SWEEP {
            let pool = PalPool::new(p).unwrap();
            let mut packed = Vec::new();
            pool.pack_in(&input, |_, x| x % modulus == residue, &mut packed);
            prop_assert_eq!(&packed, &expected, "p = {}", p);
            // One counting pass always; the write pass only when
            // something survived.
            let forks = if input.is_empty() {
                0
            } else {
                let per_pass = pool.chunk_count(input.len()) as u64 - 1;
                if expected.is_empty() { per_pass } else { 2 * per_pass }
            };
            assert_metrics_consistent(pool.metrics(), forks);
        }
    }

    #[test]
    fn bfs_levels_bound_component_size(
        n in 1usize..48,
        raw in collection::vec((0usize..64, 0usize..64), 0..160),
    ) {
        // Structural sanity riding along the differential sweep: the
        // number of BFS levels is at most the component size minus one,
        // and every reachable vertex's distance is realised by a
        // neighbour one level closer.
        let g = graph_from(n, &raw);
        let dist = bfs_seq(&g, 0);
        // The source is always reachable, so `reachable >= 1` and the
        // level count is at most the component size minus one.
        let reachable = dist.iter().filter(|&&d| d != UNREACHED).count();
        prop_assert!(levels(&dist) < reachable);
        for (v, &d) in dist.iter().enumerate() {
            if d != UNREACHED && d > 0 {
                prop_assert!(
                    g.neighbors(v).iter().any(|&u| dist[u] == d - 1),
                    "vertex {} at distance {} has no parent", v, d
                );
            }
        }
    }
}
