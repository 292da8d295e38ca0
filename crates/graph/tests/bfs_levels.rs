//! `bfs_par` across its three kinds of level.
//!
//! A dense level ([`is_dense_level`]) runs bottom-up as one blocked pass
//! over the vertices.  A sparse level whose frontier and arcs are each a
//! single block under the pool's chunking policy runs as a plain loop on
//! the calling thread; any other sparse level runs the three-pass
//! scan/pack pipeline.  Every choice is a pure function of the level's
//! sizes (the direction ignores the pool), so three things must hold on
//! every shape, source, processor count and grain:
//!
//! * distances equal [`bfs_seq`]'s, however often a search switches
//!   between the kinds;
//! * the fork count is the closed form — `C_n − 1` for a dense level, zero
//!   for a thin one, `3·(C_f − 1) + (1 or 2)·(C_a − 1)` for a fat one —
//!   exactly;
//! * a traced pool runs the same code — thin levels included — so it
//!   produces the same output and the same fork count, and its capture
//!   reproduces the pool's accounting counter for counter.

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::{PalPool, PalPoolBuilder, TraceConfig};
use lopram_graph::prelude::*;

/// `(frontier length, total degree)` of every BFS level from `src`.
fn level_profile(g: &CsrGraph, dist: &[usize]) -> Vec<(usize, usize)> {
    let mut profile = vec![(0usize, 0usize); levels(dist) + 1];
    for (v, &d) in dist.iter().enumerate() {
        if d != UNREACHED {
            profile[d].0 += 1;
            profile[d].1 += g.degree(v);
        }
    }
    profile
}

/// How `bfs_par` runs the level that expands a frontier.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dense,
    Thin,
    Fat,
}

/// The kind of a level, restated through the public functions it is
/// defined by: the direction rule, then `chunk_count`.
fn kind(g: &CsrGraph, pool: &PalPool, frontier: usize, arcs: usize) -> Kind {
    if is_dense_level(g, frontier, arcs) {
        Kind::Dense
    } else if pool.chunk_count(frontier) == 1 && (arcs == 0 || pool.chunk_count(arcs) == 1) {
        Kind::Thin
    } else {
        Kind::Fat
    }
}

/// Exact fork count of `bfs_par` on `pool` for a search with this level
/// profile: a dense level costs one pass over the vertices' blocks; a fat
/// level one degree pass and two expand passes over the frontier's blocks,
/// plus the pack's count pass (and its write pass unless the level
/// discovered nothing) over the arcs' blocks.
fn expected_forks(g: &CsrGraph, pool: &PalPool, profile: &[(usize, usize)]) -> u64 {
    let mut forks = 0;
    for (level, &(frontier, arcs)) in profile.iter().enumerate() {
        forks += match kind(g, pool, frontier, arcs) {
            Kind::Dense => pool.chunk_count(g.vertices()) as u64 - 1,
            Kind::Thin => 0,
            Kind::Fat => {
                let discovered = profile.get(level + 1).is_some();
                let c_f = pool.chunk_count(frontier) as u64;
                let c_a = pool.chunk_count(arcs) as u64;
                3 * (c_f - 1) + if discovered { 2 } else { 1 } * (c_a - 1)
            }
        };
    }
    forks
}

/// How often a search's levels switch kind: `[thin → fat, fat → thin,
/// sparse → dense, dense → sparse]`.
fn switches(g: &CsrGraph, pool: &PalPool, profile: &[(usize, usize)]) -> [usize; 4] {
    let kinds: Vec<Kind> = profile.iter().map(|&(f, a)| kind(g, pool, f, a)).collect();
    let count = |from: fn(Kind) -> bool, to: fn(Kind) -> bool| {
        kinds.windows(2).filter(|w| from(w[0]) && to(w[1])).count()
    };
    [
        count(|k| k == Kind::Thin, |k| k == Kind::Fat),
        count(|k| k == Kind::Fat, |k| k == Kind::Thin),
        count(|k| k != Kind::Dense, |k| k == Kind::Dense),
        count(|k| k == Kind::Dense, |k| k != Kind::Dense),
    ]
}

/// `gnm(2¹⁶, 2¹⁹, 42)` plus a second component: a source joined to every
/// vertex of a 200-clique, and a 50-vertex tail hanging off the clique.
/// The clique's level has 40 k arcs — fat on a default pool, yet sparse
/// against the whole graph's 1.1 M — and the tail's levels are thin, so a
/// search from the returned source switches fat → thin on any pool.
fn gnm_with_clique() -> (CsrGraph, usize) {
    let g = gnm(1 << 16, 1 << 19, 42);
    let src = g.vertices();
    let clique = src + 1..src + 201;
    let mut edges: Vec<(usize, usize)> = (0..g.vertices())
        .flat_map(|v| {
            g.neighbors(v)
                .iter()
                .filter(move |&&u| v < u)
                .map(move |&u| (v, u))
        })
        .collect();
    for u in clique.clone() {
        edges.push((src, u));
        edges.extend((u + 1..clique.end).map(|w| (u, w)));
    }
    // The tail: a path leaving the clique's last vertex.
    let tail = clique.end..clique.end + 50;
    edges.extend((clique.end - 1..tail.end - 1).map(|v| (v, v + 1)));
    (CsrGraph::from_undirected_edges(tail.end, &edges), src)
}

/// The default policy plus two pinned grains: `grain(64)` puts the
/// boundary inside small graphs, `grain(1)` makes even a two-arc path
/// level fat.
fn builders(p: usize) -> [(&'static str, PalPoolBuilder); 3] {
    let base = || PalPool::builder().processors(p);
    [
        ("default", base()),
        ("grain64", base().grain(64)),
        ("grain1", base().grain(1)),
    ]
}

#[test]
fn bfs_is_exact_across_thin_and_fat_levels() {
    let hub_and_leaves = WAKE_GRAIN + 100;
    let (gnm_wide, clique_src) = gnm_with_clique();
    let cases: Vec<(&str, CsrGraph, Vec<usize>)> = vec![
        // Corner: the frontier grows to a diagonal and shrinks back;
        // centre: four fronts at once.  Never dense.
        ("grid", grid(48, 48), vec![0, 24 * 48 + 24]),
        // One or two vertices per level, all the way.  Never dense.
        ("path_permuted", path_permuted(3000, 5), vec![0, 1500]),
        // From the hub: every leaf at once, bottom-up.  From a leaf: one
        // arc, then the hub's > WAKE_GRAIN arcs, then every leaf.
        ("star", star(hub_and_leaves), vec![0, 5]),
        // Thin, then two dense levels below the default wake floor (they
        // fork only on pinned grains), then thin again.
        ("gnm", gnm(1 << 14, 1 << 17, 7), vec![0, 9999]),
        // n ≥ WAKE_GRAIN, so the dense passes fork on a default pool too.
        // From 4: thin, one scan/pack level, dense, dense, thin.  From the
        // clique's source: thin, scan/pack, then a thin tail.
        ("gnm_wide", gnm_wide.clone(), vec![4, clique_src]),
    ];
    let mut crossed_default = [0; 4];
    let mut crossed_pinned = [0; 4];
    for (name, g, sources) in &cases {
        for &src in sources {
            let expected = bfs_seq(g, src);
            let profile = level_profile(g, &expected);
            for p in [1usize, 2, 4] {
                for (grain, builder) in builders(p) {
                    let label = format!("{name} from {src}, p = {p}, {grain}");
                    let plain = builder.clone().build().unwrap();
                    let traced = builder.trace(TraceConfig::default()).build().unwrap();
                    assert_eq!(bfs_par(g, &plain, src), expected, "{label}");
                    assert_eq!(bfs_par(g, &traced, src), expected, "{label}, traced");
                    let forks = expected_forks(g, &plain, &profile);
                    assert_eq!(plain.metrics().forks(), forks, "{label}: forks");
                    let m = traced.metrics().snapshot();
                    assert_eq!(m.forks(), forks, "{label}: traced forks");
                    let trace = traced.take_trace().expect("tracing was on");
                    assert!(trace.is_complete(), "{label}: dropped events");
                    let s = trace.summary();
                    assert_eq!(s.forks, m.forks(), "{label}: summary forks");
                    assert_eq!(s.elided, m.elided, "{label}: summary elided");
                    assert_eq!(s.spawned, m.spawned, "{label}: summary spawned");
                    assert_eq!(s.inlined, m.inlined, "{label}: summary inlined");
                    assert_eq!(s.steals, m.steals, "{label}: summary steals");
                    assert_eq!(s.unclassified, 0, "{label}: quiesced capture");
                    let crossed = if grain == "default" {
                        &mut crossed_default
                    } else {
                        &mut crossed_pinned
                    };
                    for (total, n) in crossed.iter_mut().zip(switches(g, &plain, &profile)) {
                        *total += n;
                    }
                }
            }
        }
    }
    // The sweep really exercised every switch — thin ⇄ fat and
    // sparse ⇄ dense — on the default policy and on pinned grains.
    assert!(
        crossed_default.iter().all(|&n| n > 0),
        "{crossed_default:?}"
    );
    assert!(crossed_pinned.iter().all(|&n| n > 0), "{crossed_pinned:?}");
}

#[test]
fn sub_floor_searches_never_reach_the_runtime() {
    // A grid this size never leaves the thin regime on a default pool:
    // the whole search forks nothing and ships nothing to the workers.
    let g = grid(64, 64);
    let pool = PalPool::new(2).unwrap();
    let (dist, delta) = pool.scoped_metrics(|| bfs_par(&g, &pool, 0));
    assert_eq!(dist, bfs_seq(&g, 0));
    assert_eq!(delta.forks(), 0);
    assert_eq!(delta.spawned + delta.inlined + delta.steals, 0);
}
