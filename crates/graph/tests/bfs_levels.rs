//! `bfs_par` across the thin/fat level boundary.
//!
//! A BFS level whose frontier and arcs are each a single block under the
//! pool's chunking policy runs as a plain loop on the calling thread; any
//! other level runs the three-pass scan/pack pipeline.  The choice is a
//! pure function of the level's sizes, so three things must hold on every
//! shape, source, processor count and grain:
//!
//! * distances equal [`bfs_seq`]'s, however often a search switches
//!   between the two level kinds;
//! * the fork count is the closed form — zero for a thin level,
//!   `3·(C_f − 1) + (1 or 2)·(C_a − 1)` for a fat one — exactly;
//! * a traced pool (which never takes the loop, so its `Pass` events stay
//!   replayable) produces the same output and the same fork count.

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

/// The thin-level rule, restated through the one public function it is
/// defined by.
fn is_thin(pool: &PalPool, frontier: usize, arcs: usize) -> bool {
    pool.chunk_count(frontier) == 1 && (arcs == 0 || pool.chunk_count(arcs) == 1)
}

/// Exact fork count of `bfs_par` on `pool` for a search with this level
/// profile: a fat level costs one degree pass and two expand passes over
/// the frontier's blocks, plus the pack's count pass (and its write pass
/// unless the level discovered nothing) over the arcs' blocks.
fn expected_forks(pool: &PalPool, profile: &[(usize, usize)]) -> u64 {
    let mut forks = 0;
    for (level, &(frontier, arcs)) in profile.iter().enumerate() {
        if is_thin(pool, frontier, arcs) {
            continue;
        }
        let discovered = profile.get(level + 1).is_some();
        let c_f = pool.chunk_count(frontier) as u64;
        let c_a = pool.chunk_count(arcs) as u64;
        forks += 3 * (c_f - 1) + if discovered { 2 } else { 1 } * (c_a - 1);
    }
    forks
}

/// How a search's levels alternate: (thin → fat switches, fat → thin).
fn switches(pool: &PalPool, profile: &[(usize, usize)]) -> (usize, usize) {
    let thin: Vec<bool> = profile.iter().map(|&(f, a)| is_thin(pool, f, a)).collect();
    let up = thin.windows(2).filter(|w| w[0] && !w[1]).count();
    let down = thin.windows(2).filter(|w| !w[0] && w[1]).count();
    (up, down)
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
    let cases: Vec<(&str, CsrGraph, Vec<usize>)> = vec![
        // Corner: the frontier grows to a diagonal and shrinks back;
        // centre: four fronts at once.
        ("grid", grid(48, 48), vec![0, 24 * 48 + 24]),
        // One or two vertices per level, all the way.
        ("path_permuted", path_permuted(3000, 5), vec![0, 1500]),
        // From a leaf: one arc, then the hub's > WAKE_GRAIN arcs, then
        // every leaf at once.
        ("star", star(hub_and_leaves), vec![0, 5]),
        // Widens past the default wake floor after a few levels and
        // drops back under it for the last.
        ("gnm", gnm(1 << 14, 1 << 17, 7), vec![0, 9999]),
    ];
    let mut crossed_default = (0, 0);
    let mut crossed_pinned = (0, 0);
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
                    let forks = expected_forks(&plain, &profile);
                    assert_eq!(plain.metrics().forks(), forks, "{label}: forks");
                    assert_eq!(traced.metrics().forks(), forks, "{label}: traced forks");
                    let (up, down) = switches(&plain, &profile);
                    let crossed = if grain == "default" {
                        &mut crossed_default
                    } else {
                        &mut crossed_pinned
                    };
                    crossed.0 += up;
                    crossed.1 += down;
                }
            }
        }
    }
    // The sweep really exercised both directions of the switch, on the
    // default policy and on pinned grains.
    assert!(crossed_default.0 > 0 && crossed_default.1 > 0);
    assert!(crossed_pinned.0 > 0 && crossed_pinned.1 > 0);
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
