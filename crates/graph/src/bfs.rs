//! Breadth-first search: level-synchronous, direction-switching frontier
//! BFS on the pal-thread runtime, with a sequential twin that switches the
//! same way.
//!
//! **Direction.**  Every level runs one of two ways, chosen by one pure
//! rule, [`is_dense_level`] (GBBS's `edgeMap` default, Dhulipala–Blelloch–
//! Shun): a level is *dense* when its frontier and the frontier's arcs
//! together exceed `m / 20` for a graph of `m` arcs.
//!
//! * A **sparse** level runs top-down (push): every frontier vertex claims
//!   its unreached neighbours.
//! * A **dense** level runs bottom-up (pull): every unreached vertex scans
//!   its neighbours and stops at the first one at distance `level − 1`,
//!   then writes only its own distance slot.  No claim, no candidate
//!   buffer, no pack.  The result is exact on every schedule: a racy read
//!   of a neighbour being found in this same level sees `UNREACHED` or
//!   `level`, and neither equals `level − 1`.
//!
//! Each level's frontier size and arc count come from the level that found
//! it: a dense pass's blocks return them, and a sparse level sums its new
//! frontier's degrees in one loop (the sum the thin-level test always
//! made).  A frontier list is rebuilt — one O(n) filter of
//! `dist == level − 1` — only when a search switches from dense back to
//! sparse.
//!
//! **Work bound.**  Every reached vertex is on exactly one frontier, so
//! over a search the frontiers' sizes sum to at most `n` and their arcs to
//! at most `m`.  A dense level takes more than `m / 20` of that `n + m`, so
//! at most `20·(n + m)/m` levels are dense — about 30 on a connected graph,
//! where `n ≤ m/2 + 1`.  A dense level costs O(n + m) and a sparse one
//! O(its frontier and arcs), so a search costs O(n + m) whenever
//! `n = O(m)`.
//!
//! **Parallel sparse levels** are the classic scan/pack formulation
//! (Blelloch; Tithi et al.'s level-synchronous BFS with optimal
//! prefix-sum): the frontier's degrees are block-summed inside
//! [`PalPool::expand_in`] to give every frontier vertex its own region of
//! the candidate buffer, candidates are claimed with a compare-and-swap
//! on the distance array, and the claimed candidates are compacted into
//! the next frontier with [`PalPool::pack_in`].  A **thin** sparse level —
//! frontier and arcs each a single block under the pool's chunking policy,
//! i.e. below [`WAKE_GRAIN`](lopram_core::policy::WAKE_GRAIN) on a default
//! pool — is not worth three passes, let alone a wake: it runs as the
//! sequential twin's loop on the calling thread.  A **dense** level is one
//! blocked pass over the vertices ([`PalPool::map_blocks_in`]).  All
//! parallelism flows through `PalPool::join`, so the kernel inherits the
//! `⌈α·log₂ p⌉` sequential cutoff and full `RunMetrics` fork accounting.
//!
//! A 384×384 grid never goes dense and never leaves the thin regime; a
//! G(2¹⁷, 2²⁰) search runs three thin levels, one scan/pack level, two
//! dense levels and a thin last level.
//!
//! Every per-level buffer — frontier, degrees, candidates, block results,
//! and the distance array itself — is checked out of the pool's
//! [`Workspace`](lopram_core::Workspace) arena and reused across levels
//! (and across BFS calls on the same pool), so a steady-state BFS level
//! performs **zero allocations**: the GBBS recipe of reusing scratch
//! rather than re-materializing it (`tests/alloc_counts.rs` holds a warm
//! search to exactly one heap allocation — the returned vector).

use std::sync::atomic::{AtomicUsize, Ordering};

use lopram_core::runtime::cancel;
use lopram_core::PalPool;

use crate::csr::CsrGraph;

/// Distance label of a vertex no BFS level reached.
pub const UNREACHED: usize = usize::MAX;

/// A BFS level is dense when its frontier and the frontier's arcs together
/// exceed `m / DENSE_DIVISOR` for a graph of `m` arcs (GBBS's default).
const DENSE_DIVISOR: usize = 20;

/// The direction rule: `true` when a BFS level whose frontier holds
/// `frontier_len` vertices with `frontier_arcs` arcs between them should
/// run bottom-up on `graph` — when `frontier_len + frontier_arcs` exceeds
/// `graph.arcs() / 20` (GBBS's default).
///
/// A pure function of the graph and the level's sizes — never of the pool
/// — so every kernel, pool and trace takes the same directions.  Since the
/// frontiers' sizes and arcs sum to at most `n + m`, at most
/// `20·(n + m)/m` levels of a search are dense, and each costs O(n + m):
/// total work stays O(n + m) whenever `n = O(m)` (see the module docs).
pub fn is_dense_level(graph: &CsrGraph, frontier_len: usize, frontier_arcs: usize) -> bool {
    frontier_len + frontier_arcs > graph.arcs() / DENSE_DIVISOR
}

/// Sequential BFS distances from `src` (`UNREACHED` for vertices in other
/// components) — the differential twin of [`bfs_par`].
///
/// The same direction-switching search on one thread: a sparse level
/// walks the frontier and appends what it claims, a dense level
/// ([`is_dense_level`]) sweeps the unreached vertices for a neighbour at
/// distance `level − 1`.  Writing `level` into a vertex mid-sweep cannot
/// fool a later vertex, which compares against `level − 1`.  Work is
/// O(n + m) whenever `n = O(m)` (see the module docs).
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph`.
pub fn bfs_seq(graph: &CsrGraph, src: usize) -> Vec<usize> {
    assert!(src < graph.vertices(), "source {src} out of range");
    let mut dist = vec![UNREACHED; graph.vertices()];
    dist[src] = 0;
    // After a dense level `frontier` is left empty while `frontier_len`
    // counts its vertices; the next sparse level rebuilds it.
    let mut frontier = vec![src];
    let mut next = Vec::new();
    let (mut frontier_len, mut frontier_arcs) = (1, graph.degree(src));
    let mut level = 0;
    while frontier_len > 0 {
        level += 1;
        let parent = level - 1;
        if is_dense_level(graph, frontier_len, frontier_arcs) {
            frontier.clear();
            (frontier_len, frontier_arcs) = (0, 0);
            for v in 0..dist.len() {
                if dist[v] != UNREACHED {
                    continue;
                }
                let neighbors = graph.neighbors(v);
                if neighbors.iter().any(|&u| dist[u] == parent) {
                    dist[v] = level;
                    frontier_len += 1;
                    frontier_arcs += neighbors.len();
                }
            }
        } else {
            if frontier.is_empty() {
                frontier.extend((0..dist.len()).filter(|&v| dist[v] == parent));
            }
            next.clear();
            for &u in &frontier {
                for &v in graph.neighbors(u) {
                    if dist[v] == UNREACHED {
                        dist[v] = level;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            frontier_len = frontier.len();
            frontier_arcs = arcs_of(graph, &frontier);
        }
    }
    dist
}

/// Level-synchronous, direction-switching parallel BFS distances from
/// `src`; identical output to [`bfs_seq`] for every processor count.
///
/// Each level takes the direction [`is_dense_level`] gives it — a pure
/// function of the graph and the level's sizes, so `bfs_seq`, a traced and
/// an untraced pool all take the same directions:
///
/// * **dense** — one [`map_blocks_in`](PalPool::map_blocks_in) pass over
///   the [`chunk_count`](PalPool::chunk_count)`(n)` vertex blocks: every
///   unreached vertex looks for a neighbour at distance `level − 1` and, if
///   it finds one, stores `level` into its own slot (a relaxed store — no
///   compare-and-swap: nobody else writes that slot this level, and a racy
///   read of it sees `UNREACHED` or `level`, never `level − 1`).  Each
///   block returns `(found, arcs)` for the next level's rule.  `C − 1`
///   forks.
/// * **sparse, fat** — one [`map_collect_in`](PalPool::map_collect_in)
///   (frontier degrees), one [`expand_in`](PalPool::expand_in) (block-sum
///   the degrees, then gather-and-claim neighbour candidates — duplicates
///   are resolved by a compare-and-swap on the distance array, so each
///   vertex enters exactly one frontier), one
///   [`pack_in`](PalPool::pack_in) (compact the claimed candidates).
///   Which parent claims a shared candidate is not deterministic; the set
///   of vertices per level is.
/// * **sparse, thin** — when `chunk_count` is 1 for the frontier length
///   *and* for its arcs (on a default pool: both below
///   [`WAKE_GRAIN`](lopram_core::policy::WAKE_GRAIN)), every one of those
///   passes would be a single block on the calling thread anyway, so the
///   level runs as [`bfs_seq`]'s sparse loop, with no degree buffer, no
///   candidate buffer, no compare-and-swap and no pack.  The level sits
///   between two barriers on one thread, so relaxed loads and stores are
///   sound.  A traced pool takes the loop too: a thin level records no
///   `Pass` event, as it forks nothing.
///
/// A sparse level after a dense one first rebuilds its frontier list with
/// one sequential O(n) filter.  The fork count is therefore the closed
/// form `Σ_dense (C(n) − 1) + Σ_fat (3·(C_f − 1) + (1 or 2)·(C_a − 1))`,
/// schedule-independent (`tests/bfs_levels.rs`).
///
/// All level buffers come from [`PalPool::workspace`] and are reused
/// across levels and calls: after the first search warms the arena, a
/// level allocates nothing (see the module docs).
///
/// Cancellation is cooperative: under
/// [`run_cancellable`](lopram_core::run_cancellable) the search
/// checkpoints at every level boundary and (through the primitives) at
/// every fork and block boundary, so a fired token unwinds in O(grain)
/// work — at most one thin level between two checkpoints — and the unwind
/// returns every arena buffer, leaving the pool warm (what `lopram-serve`
/// relies on when a client abandons a graph job mid-flight).
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph`.
pub fn bfs_par(graph: &CsrGraph, pool: &PalPool, src: usize) -> Vec<usize> {
    assert!(src < graph.vertices(), "source {src} out of range");
    let n = graph.vertices();
    let ws = pool.workspace();
    let mut dist = ws.checkout::<AtomicUsize>();
    dist.resize_with(n, || AtomicUsize::new(UNREACHED));
    dist[src].store(0, Ordering::Relaxed);

    // After a dense level `frontier` is left empty while `frontier_len`
    // counts its vertices; the next sparse level rebuilds it.
    let mut frontier = ws.checkout::<usize>();
    let mut next = ws.checkout::<usize>();
    let mut degrees = ws.checkout::<usize>();
    let mut candidates = ws.checkout::<usize>();
    let mut found = ws.checkout::<(usize, usize)>();
    frontier.push(src);
    let (mut frontier_len, mut frontier_arcs) = (1, graph.degree(src));
    let mut level = 0usize;
    while frontier_len > 0 {
        // Level boundary: the natural sequential point of the kernel.
        // Inside `run_cancellable` a fired token stops the search here at
        // the latest — the primitives below checkpoint at their own fork
        // and block boundaries too.
        cancel::checkpoint();
        level += 1;
        let parent = level - 1;
        let dist_ref: &[AtomicUsize] = &dist;
        if is_dense_level(graph, frontier_len, frontier_arcs) {
            frontier.clear();
            pool.map_blocks_in(
                0..n,
                |block| {
                    let (mut count, mut arcs) = (0, 0);
                    for v in block {
                        if dist_ref[v].load(Ordering::Relaxed) != UNREACHED {
                            continue;
                        }
                        let neighbors = graph.neighbors(v);
                        if neighbors
                            .iter()
                            .any(|&u| dist_ref[u].load(Ordering::Relaxed) == parent)
                        {
                            dist_ref[v].store(level, Ordering::Relaxed);
                            count += 1;
                            arcs += neighbors.len();
                        }
                    }
                    (count, arcs)
                },
                &mut found,
            );
            (frontier_len, frontier_arcs) = found
                .iter()
                .fold((0, 0), |(len, arcs), &(c, a)| (len + c, arcs + a));
            continue;
        }
        if frontier.is_empty() {
            frontier.extend((0..n).filter(|&v| dist_ref[v].load(Ordering::Relaxed) == parent));
        }
        let frontier_ref: &[usize] = &frontier;
        if is_thin_level(pool, frontier_len, frontier_arcs) {
            next.clear();
            for &u in frontier_ref {
                for &v in graph.neighbors(u) {
                    if dist_ref[v].load(Ordering::Relaxed) == UNREACHED {
                        dist_ref[v].store(level, Ordering::Relaxed);
                        next.push(v);
                    }
                }
            }
        } else {
            pool.map_collect_in(
                0..frontier_ref.len(),
                |i| graph.degree(frontier_ref[i]),
                &mut degrees,
            );
            pool.expand_in(
                &degrees,
                UNREACHED,
                |i, region| {
                    for (slot, &v) in region.iter_mut().zip(graph.neighbors(frontier_ref[i])) {
                        let claimed = dist_ref[v]
                            .compare_exchange(UNREACHED, level, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok();
                        *slot = if claimed { v } else { UNREACHED };
                    }
                },
                &mut candidates,
            );
            pool.pack_in(&candidates, |_, &v| v != UNREACHED, &mut next);
        }
        // Swap the guards themselves (not their contents) so each buffer
        // stays attributed to its own checkout in the arena accounting.
        std::mem::swap(&mut frontier, &mut next);
        frontier_len = frontier.len();
        frontier_arcs = arcs_of(graph, &frontier);
    }
    dist.iter().map(|d| d.load(Ordering::Relaxed)).collect()
}

/// Total degree of `frontier`: the arc count a sparse level hands the
/// direction rule.  Summed in its own loop after the level, not as a
/// running sum in the discovery loop: on the 384² grid the running sum
/// made a search ≈ 25 % slower in the benchmark's `batch-fine-pN`.
fn arcs_of(graph: &CsrGraph, frontier: &[usize]) -> usize {
    frontier.iter().map(|&v| graph.degree(v)).sum()
}

/// `true` when a sparse BFS level of `frontier_len` vertices and
/// `frontier_arcs` arcs is a single block end to end: the pool's chunking
/// policy gives one block for the frontier (the degree and expand passes)
/// and one block for its arcs (the pack pass), so the three passes would
/// fork nothing and the level can run as a plain loop.  A pure function of
/// the level's sizes and the pool's configuration.
fn is_thin_level(pool: &PalPool, frontier_len: usize, frontier_arcs: usize) -> bool {
    // `chunk_count` wants a non-empty pass; a level without arcs is thin.
    pool.chunk_count(frontier_len) == 1
        && (frontier_arcs == 0 || pool.chunk_count(frontier_arcs) == 1)
}

/// Eccentricity of `src` (the number of BFS levels): the largest finite
/// distance in `distances`, or 0 when only `src` is reachable.
pub fn levels(distances: &[usize]) -> usize {
    distances
        .iter()
        .copied()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn grid_distances_are_manhattan() {
        let g = gen::grid(5, 7);
        let d = bfs_seq(&g, 0);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(d[r * 7 + c], r + c);
            }
        }
        assert_eq!(levels(&d), 5 + 7 - 2);
    }

    #[test]
    fn parallel_matches_sequential_on_every_shape() {
        let shapes = [
            gen::gnm(300, 900, 11),
            gen::grid(12, 25),
            gen::star(257),
            gen::path(301),
            gen::binary_tree(511),
        ];
        for p in [1, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            for (k, g) in shapes.iter().enumerate() {
                assert_eq!(
                    bfs_par(g, &pool, 0),
                    bfs_seq(g, 0),
                    "shape {k} diverged at p = {p}"
                );
            }
        }
    }

    #[test]
    fn a_level_is_dense_past_one_twentieth_of_the_arcs() {
        let g = gen::gnm(1000, 5000, 3);
        assert_eq!(g.arcs() / DENSE_DIVISOR, 500);
        assert!(!is_dense_level(&g, 100, 400));
        assert!(is_dense_level(&g, 100, 401));
        // A long path's levels never are; a star's hub level is.
        let path = gen::path(1000);
        assert!(!is_dense_level(&path, 1, 2));
        let star = gen::star(1000);
        assert!(is_dense_level(&star, 1, star.degree(0)));
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1), (3, 4)]);
        let pool = PalPool::new(2).unwrap();
        let d = bfs_par(&g, &pool, 0);
        assert_eq!(d, vec![0, 1, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_undirected_edges(1, &[]);
        let pool = PalPool::new(2).unwrap();
        assert_eq!(bfs_par(&g, &pool, 0), vec![0]);
        assert_eq!(levels(&[0]), 0);
    }
}
