//! Connected components: parallel label propagation and tree hooking, with
//! a sequential twin.  (The work-efficient sampled union-find variant lives
//! in [`uf`](crate::uf) — these round-synchronous kernels pay O(diameter)
//! rounds and exist as its ablation baseline.)
//!
//! All three algorithms label every vertex with the **minimum vertex id of
//! its component**, so differential tests can compare outputs directly —
//! no relabelling needed (the property suite still checks equality up to
//! relabelling, which is what the algorithms guarantee in general).
//!
//! The parallel variants check their label/parent arrays out of the
//! pool's [`Workspace`](lopram_core::Workspace) arena, so repeated CC
//! calls on one pool (the steady state of a component-tracking service)
//! reuse a single allocation instead of re-materializing an
//! `n`-element atomic array per call.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lopram_core::runtime::cancel;
use lopram_core::PalPool;

use crate::csr::CsrGraph;
use crate::fuse::{fuse, FusionNode};
use crate::partition::PartitionPlan;

/// Sequential connected components: `labels[v]` is the smallest vertex id
/// in `v`'s component — the differential twin of the parallel variants.
pub fn components_seq(graph: &CsrGraph) -> Vec<usize> {
    let n = graph.vertices();
    let mut labels = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if labels[root] != usize::MAX {
            continue;
        }
        // Vertices are visited in increasing id order, so `root` is the
        // minimum of its component.
        labels[root] = root;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = root;
                    stack.push(v);
                }
            }
        }
    }
    labels
}

/// Parallel label propagation: every vertex repeatedly lowers its label to
/// the minimum over its neighbourhood (`fetch_min`) until a fixpoint.
///
/// Labels only ever decrease and every component's minimum id is a fixed
/// point, so the algorithm converges to exactly [`components_seq`]'s
/// labelling in at most *diameter* rounds, independent of the schedule.
pub fn components_label_prop(graph: &CsrGraph, pool: &PalPool) -> Vec<usize> {
    components_label_prop_rounds(graph, pool).0
}

/// [`components_label_prop`] also reporting the number of blocked rounds
/// executed, **including** the final fixpoint-confirming round that
/// observes no change (so a correct labelling at round one still costs
/// two) — the work measure `tests/uf.rs` holds against union-find's
/// constant pass count on the permuted path.
/// The count is schedule-dependent — an in-chunk ascending scan can zip
/// a label many hops within one round — but always lies in
/// `[2, diameter + 1]` on non-empty graphs: fresh in-round reads only
/// accelerate the guaranteed one-hop-per-round progress.
///
/// ## Memory-ordering proof (the `Relaxed`/`AcqRel` mix is deliberate)
///
/// The neighbour loads below are `Relaxed` on purpose; convergence does
/// not depend on them being acquire loads:
///
/// * **Stale reads are harmless for safety.** Labels only ever decrease
///   (`fetch_min`), so the worst a stale `Relaxed` load can do is return
///   a *larger* historical value, which makes this round's `best` less
///   tight — never wrong, since every value ever stored is some vertex id
///   of the component.
/// * **Stale reads are harmless for termination.** Each round ends at the
///   `for_each_index` scope barrier: the runtime joins every pal-thread
///   before the round returns, and that join synchronises-with the next
///   round's spawns.  Everything round *t* stored — labels **and** the
///   `changed` flag — therefore *happens-before* every load of round
///   `t + 1`; within one round a vertex's own `fetch_min(AcqRel)` reads
///   the latest value of its own cell.  So in the round after the last
///   decrease, every `Relaxed` load observes final values, `best` equals
///   the stored label everywhere, no `fetch_min` decreases anything, and
///   the loop exits.
/// * **`changed` cannot be missed.** The flag is set by the same
///   pal-thread that performed the decrease, before that pal-thread
///   finishes, and read only after the scope barrier — the barrier's
///   happens-before edge makes the `Release`/`Acquire` pair on `changed`
///   sufficient (even `Relaxed` would be ordered by the join; the
///   stronger orderings document intent).
/// * **Exit implies fixpoint.** The loop exits only after a full round
///   in which no `fetch_min` decreased any cell *and* — by the barrier
///   argument — every load in that round saw the latest values.  A
///   no-decrease round over fresh values is precisely the fixpoint
///   `labels[u] == min(labels[u], min over neighbours)`, i.e. constant
///   labels per component; since labels start as vertex ids and only
///   travel along edges, that constant is the component minimum.
///
/// The `LOPRAM_TEST_REPEAT`-scaled stress suite in
/// `tests/cc_stress.rs` hammers exactly this argument: long-path
/// convergence at `p = 4`, where a missed decrease or a premature exit
/// would leave a label above its component minimum.
pub fn components_label_prop_rounds(graph: &CsrGraph, pool: &PalPool) -> (Vec<usize>, usize) {
    let n = graph.vertices();
    let mut labels = pool.workspace().checkout::<AtomicUsize>();
    labels.extend((0..n).map(AtomicUsize::new));
    let labels: &[AtomicUsize] = &labels;
    let mut rounds = 0;
    loop {
        // Round boundary: under `run_cancellable` a fired token stops the
        // propagation here at the latest.
        cancel::checkpoint();
        rounds += 1;
        let changed = AtomicBool::new(false);
        pool.for_each_index(0..n, |u| {
            let mut best = labels[u].load(Ordering::Relaxed);
            for &v in graph.neighbors(u) {
                best = best.min(labels[v].load(Ordering::Relaxed));
            }
            if labels[u].fetch_min(best, Ordering::AcqRel) > best {
                changed.store(true, Ordering::Release);
            }
        });
        if !changed.load(Ordering::Acquire) {
            break;
        }
    }
    (
        labels.iter().map(|l| l.load(Ordering::Relaxed)).collect(),
        rounds,
    )
}

/// Follow `parent` pointers from `v` to the current root (the fixed point
/// `parent[r] == r`).  Terminates because parents strictly decrease along
/// the chain.
fn chase(parent: &[AtomicUsize], mut v: usize) -> usize {
    loop {
        let p = parent[v].load(Ordering::Acquire);
        if p == v {
            return v;
        }
        v = p;
    }
}

/// Parallel tree hooking (Shiloach–Vishkin style): components are merged
/// by hooking the larger root under the smaller (`fetch_min` on the parent
/// array — parents only decrease, so no cycles can form), then flattened
/// by pointer jumping, until no edge crosses two trees.
///
/// Converges to the same minimum-id labelling as [`components_seq`]: the
/// only root left per component is its minimum vertex id.
pub fn components_hook(graph: &CsrGraph, pool: &PalPool) -> Vec<usize> {
    components_hook_rounds(graph, pool).0
}

/// [`components_hook`] also reporting the number of hook rounds executed
/// (each hook round may run several pointer-jump subrounds, which are not
/// counted separately), **including** the final round that observes no
/// cross-tree edge.
///
/// ## Memory-ordering note
///
/// Same structure as the [`components_label_prop_rounds`] proof: parents
/// only ever decrease (`fetch_min(AcqRel)` hooks and jumps), each round
/// ends at the `for_each_index` scope barrier whose join gives
/// round-to-round happens-before, the `hooked`/`jumped` flags are set by
/// the decreasing pal-thread itself before the barrier, and the chases
/// use `Acquire` loads so a freshly-hooked parent's cell is fully
/// visible before it is dereferenced as an index into the next chain
/// link.  A stale read can only overstate a root (values decrease), so
/// at worst a round performs a redundant `fetch_min` — never a wrong or
/// lost hook — and the exit round's fresh values certify the fixpoint.
pub fn components_hook_rounds(graph: &CsrGraph, pool: &PalPool) -> (Vec<usize>, usize) {
    let n = graph.vertices();
    let mut parent = pool.workspace().checkout::<AtomicUsize>();
    parent.extend((0..n).map(AtomicUsize::new));
    let parent: &[AtomicUsize] = &parent;
    let mut rounds = 0;
    loop {
        // Round boundary: under `run_cancellable` a fired token stops the
        // hooking here at the latest.
        cancel::checkpoint();
        rounds += 1;
        // Hook: merge the two trees of every cross-tree edge, smaller root
        // winning.
        let hooked = AtomicBool::new(false);
        pool.for_each_index(0..n, |u| {
            // Parents only decrease, so u's previously-found root stays on
            // u's chain: re-chase from it instead of from u every edge —
            // high-degree hubs would otherwise re-walk the whole chain
            // once per neighbour.
            let mut ru = u;
            for &v in graph.neighbors(u) {
                ru = chase(parent, ru);
                let rv = chase(parent, v);
                if ru != rv {
                    let (lo, hi) = (ru.min(rv), ru.max(rv));
                    parent[hi].fetch_min(lo, Ordering::AcqRel);
                    hooked.store(true, Ordering::Release);
                }
            }
        });

        // Compress: pointer-jump every vertex to its grandparent until the
        // forest is a set of stars.
        loop {
            let jumped = AtomicBool::new(false);
            pool.for_each_index(0..n, |v| {
                let p = parent[v].load(Ordering::Acquire);
                let gp = parent[p].load(Ordering::Acquire);
                if gp < p && parent[v].fetch_min(gp, Ordering::AcqRel) > gp {
                    jumped.store(true, Ordering::Release);
                }
            });
            if !jumped.load(Ordering::Acquire) {
                break;
            }
        }

        if !hooked.load(Ordering::Acquire) {
            return (
                parent.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
                rounds,
            );
        }
    }
}

/// Find the root of `v` in a plain union-find forest over the exclusive
/// slice `parent` (base-shifted by `base`), with full path compression.
/// Plain stores suffice: the fusion tree hands each caller exclusive
/// ownership of the slice it touches.
fn find(parent: &mut [usize], base: usize, v: usize) -> usize {
    let mut root = v;
    while parent[root - base] != root {
        root = parent[root - base];
    }
    let mut cur = v;
    while cur != root {
        cur = std::mem::replace(&mut parent[cur - base], root);
    }
    root
}

/// Union the components of `v` and `u`, hooking the larger root under
/// the smaller — the min-id root of a merged set always survives, which
/// is what makes the final labelling deterministic.
fn unite(parent: &mut [usize], base: usize, v: usize, u: usize) {
    let rv = find(parent, base, v);
    let ru = find(parent, base, u);
    if rv != ru {
        let (lo, hi) = (rv.min(ru), rv.max(ru));
        parent[hi - base] = lo;
    }
}

/// Partitioned connected components: plans a `parts`-way
/// [`PartitionPlan`] and runs [`components_partitioned_with`] on it.
/// Identical min-id labelling to [`components_seq`] for every processor
/// and partition count.
///
/// Exact fork cost, schedule-independent:
/// [`plan_forks`](crate::partition::plan_forks) for the plan plus
/// `(parts − 1) + (chunk_count(n) − 1)` for the solve — one
/// [`fuse`] tree and one final blocked flatten pass.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn components_partitioned(graph: &CsrGraph, pool: &PalPool, parts: usize) -> Vec<usize> {
    let plan = PartitionPlan::new(graph, pool, parts);
    components_partitioned_with(graph, pool, &plan)
}

/// [`components_partitioned`] on a pre-built plan.
///
/// One fusion tree over an arena-backed union-find parent array:
///
/// * **leaf** — partition `k` unions its *internal* edges (both
///   endpoints local — cut arcs are skipped, zero cross-partition
///   traffic) with plain min-hooking on its exclusive parent slice,
///   then fully flattens its range to local stars.
/// * **merge** — replays exactly the cut arcs whose endpoints meet for
///   the first time at this node (left-half sources with right-half
///   targets; the symmetric orientation is skipped), hooking across the
///   reunified subtree slice, then path-compacts the processed boundary
///   endpoints so ancestor merges see near-flat chains — the Afforest
///   progression: local linking first, boundary resolution after.
///
/// The fusion tree's exclusive slices replace the flat kernel's
/// compare-and-swap hooks ([`components_hook`]) with plain stores; the
/// hook direction (min id wins) makes the result deterministic.  A final
/// read-only [`map_collect`](PalPool::map_collect) chase flattens every
/// vertex to its component's minimum id.
pub fn components_partitioned_with(
    graph: &CsrGraph,
    pool: &PalPool,
    plan: &PartitionPlan<'_>,
) -> Vec<usize> {
    let n = graph.vertices();
    assert_eq!(plan.vertices(), n, "plan was built for a different graph");
    if n == 0 {
        return Vec::new();
    }
    let cuts = plan.cuts();
    let mut parent = pool.workspace().checkout::<usize>();
    parent.extend(0..n);
    let mut state = vec![(); plan.parts()];

    fuse(
        pool,
        cuts,
        &mut parent,
        &mut state,
        &|node: FusionNode<'_, usize, ()>| {
            let FusionNode { vertices, data, .. } = node;
            let base = vertices.start;
            for v in vertices.clone() {
                // Sorted adjacency: the in-range, smaller-id neighbours
                // form one contiguous run — each internal edge once.
                for &u in graph.neighbors(v) {
                    if u >= v {
                        break;
                    }
                    if u >= base {
                        unite(data, base, v, u);
                    }
                }
            }
            for v in vertices.clone() {
                find(data, base, v);
            }
        },
        &|node, (), ()| {
            let FusionNode {
                parts,
                vertices,
                data,
                ..
            } = node;
            let base = vertices.start;
            let mid = parts.start + parts.len() / 2;
            let vsplit = cuts[mid];
            for k in parts.start..mid {
                for &(v, u) in plan.cut_arcs(k) {
                    if u >= vsplit && u < vertices.end {
                        unite(data, base, v, u);
                    }
                }
            }
            // Path compaction over the boundary labels just hooked, so
            // ancestor merges chase O(1) chains from these endpoints.
            for k in parts.start..mid {
                for &(v, u) in plan.cut_arcs(k) {
                    if u >= vsplit && u < vertices.end {
                        find(data, base, v);
                        find(data, base, u);
                    }
                }
            }
        },
    );

    let parent: &[usize] = &parent;
    pool.map_collect(0..n, |v| {
        let mut root = v;
        while parent[root] != root {
            root = parent[root];
        }
        root
    })
}

/// Number of distinct components in a labelling (counts distinct label
/// values, so it works for any labelling — not just the min-id one the
/// algorithms in this module produce).
pub fn component_count(labels: &[usize]) -> usize {
    let mut seen = std::collections::HashSet::with_capacity(labels.len());
    labels.iter().filter(|&&l| seen.insert(l)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn seq_labels_are_component_minima() {
        // Two components: {0, 1, 2} and {3, 4}.
        let g = CsrGraph::from_undirected_edges(5, &[(1, 2), (0, 2), (4, 3)]);
        assert_eq!(components_seq(&g), vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&components_seq(&g)), 2);
    }

    #[test]
    fn parallel_variants_match_sequential() {
        let shapes = [
            gen::gnm(200, 220, 5), // sparse: many components
            gen::gnm(200, 800, 6), // dense: usually one giant component
            gen::grid(9, 13),
            gen::star(100),
            gen::path(173),
            gen::binary_tree(255),
            CsrGraph::from_undirected_edges(64, &[]), // 64 singletons
        ];
        for p in [1, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            for (k, g) in shapes.iter().enumerate() {
                let expected = components_seq(g);
                assert_eq!(
                    components_label_prop(g, &pool),
                    expected,
                    "label propagation diverged on shape {k} at p = {p}"
                );
                assert_eq!(
                    components_hook(g, &pool),
                    expected,
                    "tree hooking diverged on shape {k} at p = {p}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        let pool = PalPool::new(2).unwrap();
        assert!(components_seq(&g).is_empty());
        assert!(components_label_prop(&g, &pool).is_empty());
        assert!(components_hook(&g, &pool).is_empty());
    }
}
