//! Breadth-first search: level-synchronous frontier BFS on the pal-thread
//! runtime, with a sequential twin.
//!
//! The parallel algorithm is the classic scan/pack formulation (Blelloch;
//! Tithi et al.'s level-synchronous BFS with optimal prefix-sum; GBBS's
//! `edgeMap`): per level, the frontier's degrees are block-summed inside
//! [`PalPool::expand_in`] to give every frontier vertex its own region of
//! the candidate buffer, candidates are claimed with a compare-and-swap
//! on the distance array, and the claimed candidates are compacted into
//! the next frontier with [`PalPool::pack_in`].  All parallelism flows
//! through `PalPool::join`, so the kernel inherits the `⌈α·log₂ p⌉`
//! sequential cutoff and full `RunMetrics` fork accounting.
//!
//! A **thin** level — one whose frontier and whose arcs are both a single
//! block under the pool's chunking policy, i.e. below
//! [`WAKE_GRAIN`](lopram_core::policy::WAKE_GRAIN) on a default pool — is
//! not worth three passes, let alone a wake: it runs as the sequential
//! twin's loop on the calling thread (Dhulipala–Blelloch–Shun run small
//! frontiers through a sequential sparse path for the same reason).  A
//! 384×384 grid never leaves that regime; a G(n, m) search enters the
//! scan/pack pipeline after its first few levels and drops back out for
//! its last.
//!
//! Every per-level buffer — frontier, degrees, candidates, and the
//! distance array itself — is checked out of the pool's
//! [`Workspace`](lopram_core::Workspace) arena and reused across levels
//! (and across BFS calls on the same pool), so a steady-state BFS level
//! performs **zero allocations**: the GBBS recipe of reusing scratch
//! rather than re-materializing it (`tests/alloc_counts.rs` holds a warm
//! search to at most one heap allocation per level — the returned vector,
//! amortized).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use lopram_core::runtime::cancel;
use lopram_core::PalPool;

use crate::csr::CsrGraph;
use crate::fuse::{fuse, FusionNode};
use crate::partition::PartitionPlan;

/// Distance label of a vertex no BFS level reached.
pub const UNREACHED: usize = usize::MAX;

/// Sequential BFS distances from `src` (`UNREACHED` for vertices in other
/// components) — the differential twin of [`bfs_par`].
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph`.
pub fn bfs_seq(graph: &CsrGraph, src: usize) -> Vec<usize> {
    assert!(src < graph.vertices(), "source {src} out of range");
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

/// Level-synchronous parallel BFS distances from `src`; identical output to
/// [`bfs_seq`] for every processor count.
///
/// Per **fat** level: one [`map_collect_in`](PalPool::map_collect_in)
/// (frontier degrees), one [`expand_in`](PalPool::expand_in) (block-sum the
/// degrees, then gather-and-claim neighbour candidates — duplicates are
/// resolved by a compare-and-swap on the distance array, so each vertex
/// enters exactly one frontier), one [`pack_in`](PalPool::pack_in) (compact
/// the claimed candidates).  The set of vertices per level is
/// deterministic — distances are the level number — even though which
/// parent claims a shared candidate is not.
///
/// A **thin** level is a loop, not three passes: when
/// [`chunk_count`](PalPool::chunk_count) is 1 for the frontier length *and*
/// for the frontier's total degree (on a default pool: both below
/// [`WAKE_GRAIN`](lopram_core::policy::WAKE_GRAIN)), every one of those
/// passes would be a single block on the calling thread anyway, so the
/// level runs as [`bfs_seq`]'s inner loop — for each frontier vertex, for
/// each neighbour, claim if unreached and push — with no degree buffer, no
/// candidate buffer, no compare-and-swap and no pack.  The level sits
/// between two barriers on one thread, so relaxed loads and stores are
/// sound, and the next frontier comes out in exactly the order the pack
/// would have produced.  Fork count of such a level is 0 either way, so
/// the closed form `Σ_levels passes·(C − 1)` is unchanged.  A *traced*
/// pool ([`PalPool::is_tracing`]) never takes the loop: its levels keep
/// recording the `Pass` events the replayer recounts under other grains.
///
/// All level buffers come from [`PalPool::workspace`] and are reused
/// across levels and calls: after the first level warms the arena, a
/// level allocates nothing (see the module docs).
///
/// Cancellation is cooperative: under
/// [`run_cancellable`](lopram_core::run_cancellable) the search
/// checkpoints at every level boundary and (through the primitives) at
/// every fork and chunk boundary, so a fired token unwinds in O(grain)
/// work — at most one thin level between two checkpoints — and the unwind
/// returns every arena buffer, leaving the pool warm (what `lopram-serve`
/// relies on when a client abandons a graph job mid-flight).
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph`.
pub fn bfs_par(graph: &CsrGraph, pool: &PalPool, src: usize) -> Vec<usize> {
    assert!(src < graph.vertices(), "source {src} out of range");
    let ws = pool.workspace();
    let mut dist = ws.checkout::<AtomicUsize>();
    dist.resize_with(graph.vertices(), || AtomicUsize::new(UNREACHED));
    dist[src].store(0, Ordering::Relaxed);

    let mut frontier = ws.checkout::<usize>();
    let mut next = ws.checkout::<usize>();
    let mut degrees = ws.checkout::<usize>();
    let mut candidates = ws.checkout::<usize>();
    frontier.push(src);
    let mut level = 0usize;
    while !frontier.is_empty() {
        // Level boundary: the natural sequential point of the kernel.
        // Inside `run_cancellable` a fired token stops the search here at
        // the latest — the primitives below checkpoint at their own fork
        // and chunk boundaries too.
        cancel::checkpoint();
        level += 1;
        let frontier_ref: &[usize] = &frontier;
        let dist_ref: &[AtomicUsize] = &dist;
        if is_thin_level(graph, pool, frontier_ref) {
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
    }
    dist.iter().map(|d| d.load(Ordering::Relaxed)).collect()
}

/// `true` when a BFS level over `frontier` is a single block end to end:
/// the pool's chunking policy gives one block for the frontier (the degree
/// and expand passes) and one block for its arcs (the pack pass), so the
/// three passes would fork nothing and the level can run as a plain loop.
/// A pure function of the level's sizes and the pool's configuration.
fn is_thin_level(graph: &CsrGraph, pool: &PalPool, frontier: &[usize]) -> bool {
    if pool.is_tracing() || pool.chunk_count(frontier.len()) != 1 {
        return false;
    }
    let arcs: usize = frontier.iter().map(|&u| graph.degree(u)).sum();
    // `chunk_count` wants a non-empty pass; a level without arcs is thin.
    arcs == 0 || pool.chunk_count(arcs) == 1
}

/// Per-partition level state of the partitioned BFS: the current and the
/// upcoming frontier, both arena-backed (capacities recorded at take so
/// check-in can account growth).
struct BfsPart {
    frontier: Vec<usize>,
    frontier_cap: usize,
    next: Vec<usize>,
    next_cap: usize,
}

/// Partitioned level-synchronous BFS: plans a `parts`-way
/// [`PartitionPlan`] and runs [`bfs_partitioned_with`] on it.  Output is
/// identical to [`bfs_seq`] (and hence [`bfs_par`]) for every processor
/// and partition count.
///
/// Exact fork cost, schedule-independent:
/// [`plan_forks`](crate::partition::plan_forks) for the plan plus
/// `(levels + 1) · (parts − 1)` for the solve — one
/// [`fuse`] tree per frontier round, where `levels` is
/// [`levels`]`(&dist)` (the source's eccentricity).
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph` or `parts == 0`.
pub fn bfs_partitioned(graph: &CsrGraph, pool: &PalPool, src: usize, parts: usize) -> Vec<usize> {
    let plan = PartitionPlan::new(graph, pool, parts);
    bfs_partitioned_with(graph, pool, &plan, src)
}

/// [`bfs_partitioned`] on a pre-built plan (amortize one plan over many
/// sources).
///
/// Per frontier round, one fusion tree (`parts − 1` forks, no blocked
/// passes):
///
/// * **leaf** — partition `k` drains its frontier with *plain* reads and
///   writes on its exclusive distance slice (the fusion tree's ownership
///   discipline replaces [`bfs_par`]'s compare-and-swap): an unreached
///   local neighbour is claimed into `next`; a neighbour across a cut
///   arc goes to an arena-backed outbox.
/// * **merge** — frontier handoff across cut edges: each side's outbox
///   entries owned by the other side are claimed there (first claim
///   wins, later duplicates see the written level) and pushed onto the
///   owner partition's `next`; entries leaving the subtree stay in the
///   surviving outbox.  The root's outbox is structurally empty.
///
/// Claims happen exactly once per vertex at its BFS level, so the result
/// is deterministic — identical to [`bfs_seq`] — and the steady-state
/// round allocates nothing: distances, frontiers and outboxes all come
/// from the pool's [`Workspace`](lopram_core::Workspace) arena.
///
/// # Panics
///
/// Panics if `src` is not a vertex of `graph` or the plan's vertex count
/// disagrees with the graph's.
pub fn bfs_partitioned_with(
    graph: &CsrGraph,
    pool: &PalPool,
    plan: &PartitionPlan<'_>,
    src: usize,
) -> Vec<usize> {
    let n = graph.vertices();
    assert!(src < n, "source {src} out of range");
    assert_eq!(plan.vertices(), n, "plan was built for a different graph");
    let ws = pool.workspace();
    let cuts = plan.cuts();
    let parts = plan.parts();

    let mut dist = ws.checkout::<usize>();
    dist.resize(n, UNREACHED);
    dist[src] = 0;

    let mut state: Vec<BfsPart> = (0..parts)
        .map(|_| {
            let frontier = ws.take_buffer::<usize>();
            let frontier_cap = frontier.capacity();
            let next = ws.take_buffer::<usize>();
            let next_cap = next.capacity();
            BfsPart {
                frontier,
                frontier_cap,
                next,
                next_cap,
            }
        })
        .collect();
    state[plan.owner(src)].frontier.push(src);

    let mut level = 0usize;
    while state.iter().any(|s| !s.frontier.is_empty()) {
        level += 1;
        let escaped = fuse(
            pool,
            cuts,
            &mut dist,
            &mut state,
            &|node: FusionNode<'_, usize, BfsPart>| {
                let FusionNode {
                    vertices,
                    data,
                    state,
                    ..
                } = node;
                let BfsPart { frontier, next, .. } = &mut state[0];
                let mut out = ws.checkout::<usize>();
                for &v in frontier.iter() {
                    for &u in graph.neighbors(v) {
                        if vertices.contains(&u) {
                            let d = &mut data[u - vertices.start];
                            if *d == UNREACHED {
                                *d = level;
                                next.push(u);
                            }
                        } else {
                            out.push(u);
                        }
                    }
                }
                out
            },
            &|node, mut out, other| {
                let FusionNode {
                    parts,
                    vertices,
                    data,
                    state,
                } = node;
                // A child's outbox never names vertices of that child's
                // own subtree, so anything inside this node's range came
                // from the opposite side: claim it here, at the lowest
                // common ancestor of the cut edge.
                let mut claim = |u: usize, state: &mut [BfsPart]| {
                    let d = &mut data[u - vertices.start];
                    if *d == UNREACHED {
                        *d = level;
                        let k = cuts.partition_point(|&c| c <= u) - 1;
                        state[k - parts.start].next.push(u);
                    }
                };
                let mut kept = 0;
                for i in 0..out.len() {
                    let u = out[i];
                    if vertices.contains(&u) {
                        claim(u, state);
                    } else {
                        out[kept] = u;
                        kept += 1;
                    }
                }
                out.truncate(kept);
                for &u in other.iter() {
                    if vertices.contains(&u) {
                        claim(u, state);
                    } else {
                        out.push(u);
                    }
                }
                // `other` drops here and returns to the arena.
                out
            },
        );
        debug_assert!(escaped.is_empty(), "the root outbox owns every vertex");
        drop(escaped);
        for s in &mut state {
            s.frontier.clear();
            std::mem::swap(&mut s.frontier, &mut s.next);
            std::mem::swap(&mut s.frontier_cap, &mut s.next_cap);
        }
    }

    let result = dist.as_slice().to_vec();
    for s in state {
        ws.put_buffer(s.frontier, s.frontier_cap);
        ws.put_buffer(s.next, s.next_cap);
    }
    result
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
