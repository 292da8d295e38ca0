//! Deterministic replay of captured [`DagTrace`]s.
//!
//! `lopram-core`'s tracer (see `lopram_core::runtime::trace`) records the
//! *structure* of a real pal-thread execution — every fork call site with
//! its recursion depth, plus one `Pass` event per blocked data-parallel
//! pass with the element count it covered.  That structure is
//! schedule-independent: which call sites execute is a property of the
//! program and its input, not of how the OS interleaved the workers.  This
//! module closes the loop between the real pool and the simulator by
//! replaying such a capture under an **arbitrary** configuration
//! `(p, α, grain)`:
//!
//! * **fork counts** are recounted *exactly*: non-pass creation points are
//!   invariant, and each recorded pass contributes `chunks(len, p′, grain′)
//!   − 1` forks under the new configuration, calling the very functions the
//!   pool itself calls ([`pass_chunks`] for a default pool, [`grain_size`]
//!   for a pinned one);
//! * the **elided/scheduled split** is recomputed from the recorded call-site
//!   depths against the new cutoff
//!   [`cutoff_levels(α′, p′)`](lopram_core::policy::cutoff_levels);
//! * **steal counts** and **makespan/speedup** come from materialising the
//!   capture as [`TaskTree`]s (one per barrier-separated phase, elided
//!   subtrees collapsed into their parent's sequential cost) and running the
//!   step-accurate §3.1 scheduler of [`schedule`](crate::schedule); the
//!   simulator's [`migrations`](crate::schedule::SimResult::migrations)
//!   counter is the deterministic analogue of the pool's racy steal counter.
//!
//! At the *capture* configuration the trace itself is the schedule, so
//! [`TraceReplay::predict`] returns the recorded steal total — the best
//! predictor of an observation is the observation — and the recounted fork
//! total collapses to the recorded one.  At `p′ = 1` the cutoff is 0, every
//! creation point is elided, and the prediction is structurally steal-free.

use std::collections::BTreeMap;

use lopram_core::policy::{cutoff_levels, grain_size, pass_chunks};
use lopram_core::runtime::trace::ROOT_NODE;
use lopram_core::{DagTrace, TraceEvent, TraceSummary};

use crate::schedule::TreeSimulator;
use crate::tree::{TaskTree, TreeNode};

/// Grain policy to replay under — mirrors the two configurations a
/// [`PalPoolBuilder`](lopram_core::PalPoolBuilder) can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayGrain {
    /// The pool's default policy, [`pass_chunks`]`(len, p)`.
    Adaptive,
    /// The `PalPoolBuilder::grain(min)` policy: at least `min` elements per
    /// block, steal-informed oversubscription disabled —
    /// `grain_size(len, p, min, 0)`.
    Fixed(usize),
}

impl ReplayGrain {
    /// Number of blocks a blocked pass over `len` elements is split into on
    /// `p` processors under this policy — what the pool's `chunk_count`
    /// returns, from the same `lopram_core::policy` functions.
    pub fn chunks(self, len: usize, p: usize) -> usize {
        if len == 0 {
            return 1;
        }
        match self {
            ReplayGrain::Adaptive => pass_chunks(len, p),
            ReplayGrain::Fixed(min) => grain_size(len, p, min.max(1), 0),
        }
    }
}

/// What [`TraceReplay::predict`] says a capture would do under a
/// configuration `(p, α, grain)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayPrediction {
    /// Processor count the prediction is for.
    pub processors: usize,
    /// Elision cutoff `⌈α·log₂ p⌉` at this configuration.
    pub cutoff: usize,
    /// Exact fork count: recorded non-pass creation points plus the
    /// recounted per-pass `chunks − 1`.
    pub forks: u64,
    /// Creation points the throttle would elide (recorded call-site depth
    /// `≥ cutoff`).  The grain-induced fork delta is attributed to the
    /// scheduled side when the cutoff is positive (pass call sites sit
    /// above the cutoff in every capture the pool produces) and to the
    /// elided side at `cutoff = 0`.
    pub elided: u64,
    /// Creation points that would reach the scheduler (`forks − elided`).
    pub scheduled: u64,
    /// Predicted steal count.  At the capture configuration this is the
    /// *recorded* steal total (the trace is the schedule); at any other
    /// configuration it is the step-accurate simulator's deterministic
    /// [`migrations`](crate::schedule::SimResult::migrations) count.
    /// Structurally 0 at `p = 1` either way.
    pub steals: u64,
    /// Simulated wall-clock steps across all phases (unit-cost model,
    /// elided subtrees collapsed into sequential cost).
    pub makespan: u64,
    /// Total unit-cost work across all phases (`T₁` of the model).
    pub total_work: u64,
    /// `true` when `(p, cutoff, grain)` is indistinguishable from the
    /// capture configuration: same `p`, same cutoff, and the grain policy
    /// reproduces every recorded pass's chunk count.
    pub at_capture_config: bool,
}

impl ReplayPrediction {
    /// Model speedup `T₁ / T_p` (1.0 for an empty capture).
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.total_work as f64 / self.makespan as f64
        }
    }
}

/// One creation edge recovered from the event stream.
#[derive(Debug, Clone, Copy)]
struct Creation {
    depth: u32,
}

/// A replayable view over a captured [`DagTrace`].
///
/// ```
/// use lopram_core::{PalPool, TraceConfig};
/// use lopram_sim::replay::{ReplayGrain, TraceReplay};
///
/// let pool = PalPool::builder()
///     .processors(2)
///     .trace(TraceConfig::default())
///     .build()
///     .unwrap();
/// pool.join(|| (), || ());
/// let trace = pool.take_trace().unwrap();
///
/// let replay = TraceReplay::from_trace(trace);
/// assert_eq!(replay.recorded().forks, 1);
/// let p1 = replay.predict(1, 2.0, ReplayGrain::Adaptive);
/// assert_eq!(p1.steals, 0, "one processor cannot steal");
/// ```
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: DagTrace,
    summary: TraceSummary,
}

impl TraceReplay {
    /// Wrap a captured trace for replay.  The trace should be *complete*
    /// ([`DagTrace::is_complete`]); on a lossy capture every prediction is
    /// still well defined but undercounts, exactly as
    /// [`DagTrace::summary`] does.
    pub fn from_trace(trace: DagTrace) -> Self {
        let summary = trace.summary();
        TraceReplay { trace, summary }
    }

    /// The underlying capture.
    pub fn trace(&self) -> &DagTrace {
        &self.trace
    }

    /// The capture's own accounting ([`DagTrace::summary`]): on a complete
    /// trace of a quiesced pool this equals the pool's `RunMetrics` deltas
    /// for the capture window.
    pub fn recorded(&self) -> TraceSummary {
        self.summary
    }

    /// Predict what this capture would do on `p` processors with throttle
    /// parameter `alpha` and the given grain policy.  See the module docs
    /// for which quantities are exact and which are modelled.
    ///
    /// # Panics
    ///
    /// Panics when `p == 0`.
    pub fn predict(&self, p: usize, alpha: f64, grain: ReplayGrain) -> ReplayPrediction {
        assert!(p >= 1, "at least one processor is required");
        let cutoff = cutoff_levels(alpha, p);
        let s = &self.summary;

        // Exact fork recount: only the blocked-pass share varies with
        // (p, grain); everything else is schedule- and config-independent.
        let mut new_pass_forks = 0u64;
        let mut pass_chunks_match = true;
        for ev in &self.trace.events {
            if let TraceEvent::Pass { len, chunks, .. } = *ev {
                let c = grain.chunks(len as usize, p) as u64;
                new_pass_forks += c - 1;
                if c != chunks as u64 {
                    pass_chunks_match = false;
                }
            }
        }
        // On a real capture `forks ≥ pass_forks` (every pass fork is also a
        // recorded creation event); saturate so hand-built traces that only
        // carry `Pass` markers stay well defined.
        let forks = s.forks.saturating_sub(s.pass_forks) + new_pass_forks;

        // Elided/scheduled split from recorded call-site depths.
        let (elided, scheduled) = if cutoff == 0 {
            (forks, 0)
        } else {
            let recorded_elided = self
                .trace
                .events
                .iter()
                .filter(
                    |ev| matches!(**ev, TraceEvent::Fork { depth, .. } if depth as usize >= cutoff),
                )
                .count() as u64;
            // A pathological capture (passes issued below the cutoff) can
            // recount `forks` below the recorded elided total; keep the
            // identity `forks = elided + scheduled` by saturating.
            let scheduled = forks.saturating_sub(recorded_elided);
            (forks - scheduled, scheduled)
        };

        let (makespan, total_work, migrations) = self.simulate(p, cutoff);

        let at_capture_config =
            p == self.trace.processors && self.trace.cutoff == Some(cutoff) && pass_chunks_match;
        let steals = if p == 1 {
            0
        } else if at_capture_config {
            s.steals
        } else {
            migrations
        };

        ReplayPrediction {
            processors: p,
            cutoff,
            forks,
            elided,
            scheduled,
            steals,
            makespan,
            total_work,
            at_capture_config,
        }
    }

    /// Materialise the capture as unit-cost [`TaskTree`] phases and run the
    /// §3.1 scheduler on each; phases execute back to back (every blocked
    /// pass and every top-level `join` is a barrier in the real pool), so
    /// makespans, work and migrations add up.
    fn simulate(&self, p: usize, cutoff: usize) -> (u64, u64, u64) {
        // Child lists per recorded node, in timestamp order (events are
        // sorted by ts), plus each child's creating-event depth.
        let mut children: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut created: BTreeMap<u32, Creation> = BTreeMap::new();
        // Top-level phases: every root-level Fork is its own barrier phase.
        let mut phases: Vec<Vec<u32>> = Vec::new();
        for ev in &self.trace.events {
            if let TraceEvent::Fork {
                parent,
                left,
                right,
                depth,
                ..
            } = *ev
            {
                created.insert(left, Creation { depth });
                created.insert(right, Creation { depth });
                if parent == ROOT_NODE {
                    phases.push(vec![left, right]);
                } else {
                    let kids = children.entry(parent).or_default();
                    kids.push(left);
                    kids.push(right);
                }
            }
        }

        let mut makespan = 0u64;
        let mut total_work = 0u64;
        let mut migrations = 0u64;
        for phase in &phases {
            let tree = build_phase_tree(phase, &children, &created, cutoff);
            let result = TreeSimulator::new(&tree).run(p);
            makespan += result.makespan;
            total_work += result.total_work;
            migrations += result.migrations;
        }
        (makespan, total_work, migrations)
    }
}

/// Total creation count of a recorded subtree (the node itself plus every
/// descendant) — the sequential cost an elided subtree collapses into.
fn subtree_work(node: u32, children: &BTreeMap<u32, Vec<u32>>) -> u64 {
    let mut work = 1u64;
    if let Some(kids) = children.get(&node) {
        for &c in kids {
            work += subtree_work(c, children);
        }
    }
    work
}

/// Materialise one phase as a unit-cost [`TaskTree`]: a synthetic root
/// (the issuing thread) over the phase's top-level pal-threads, recursing
/// into children whose creating call site sits above the cutoff and
/// collapsing deeper (elided) subtrees into their parent's divide cost.
fn build_phase_tree(
    top: &[u32],
    children: &BTreeMap<u32, Vec<u32>>,
    created: &BTreeMap<u32, Creation>,
    cutoff: usize,
) -> TaskTree {
    let mut nodes: Vec<TreeNode> = vec![TreeNode {
        size: 0,
        divide_cost: 1,
        merge_cost: 0,
        children: Vec::new(),
        parent: None,
        depth: 0,
    }];
    for &t in top {
        materialize(&mut nodes, 0, t, children, created, cutoff);
    }
    if !nodes[0].children.is_empty() {
        nodes[0].merge_cost = 1;
    }
    TaskTree::from_nodes(nodes, 0)
}

/// Add recorded node `node` under tree index `parent_idx`, or collapse it
/// into the parent's divide cost when its creating call site is at or below
/// the cutoff.
fn materialize(
    nodes: &mut Vec<TreeNode>,
    parent_idx: usize,
    node: u32,
    children: &BTreeMap<u32, Vec<u32>>,
    created: &BTreeMap<u32, Creation>,
    cutoff: usize,
) {
    let depth = created.get(&node).map_or(0, |c| c.depth);
    if depth as usize >= cutoff {
        nodes[parent_idx].divide_cost += subtree_work(node, children);
        return;
    }
    let idx = nodes.len();
    let tree_depth = nodes[parent_idx].depth + 1;
    nodes.push(TreeNode {
        size: 0,
        divide_cost: 1,
        merge_cost: 0,
        children: Vec::new(),
        parent: Some(parent_idx),
        depth: tree_depth,
    });
    nodes[parent_idx].children.push(idx);
    if let Some(kids) = children.get(&node) {
        for &c in kids {
            materialize(nodes, idx, c, children, created, cutoff);
        }
    }
    if !nodes[idx].children.is_empty() {
        nodes[idx].merge_cost = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::runtime::trace::EXTERNAL_WORKER;

    /// A hand-written capture: one top-level fork (depth 0, scheduled) whose
    /// right child was stolen, with one elided fork (depth 2) under the left
    /// child, captured at p = 2 (cutoff 2).
    fn sample_trace() -> DagTrace {
        DagTrace {
            processors: 2,
            cutoff: Some(2),
            capacity_per_worker: 1 << 16,
            events: vec![
                TraceEvent::Fork {
                    ts: 1,
                    worker: EXTERNAL_WORKER,
                    parent: ROOT_NODE,
                    left: 1,
                    right: 2,
                    depth: 0,
                    elided: false,
                },
                TraceEvent::Enter {
                    ts: 2,
                    worker: 0,
                    node: 1,
                },
                TraceEvent::Enter {
                    ts: 2,
                    worker: 1,
                    node: 2,
                },
                TraceEvent::Fork {
                    ts: 3,
                    worker: 0,
                    parent: 1,
                    left: 3,
                    right: 4,
                    depth: 2,
                    elided: true,
                },
                TraceEvent::Exit {
                    ts: 4,
                    worker: 0,
                    node: 1,
                },
                TraceEvent::Exit {
                    ts: 4,
                    worker: 1,
                    node: 2,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn recorded_matches_summary() {
        let replay = TraceReplay::from_trace(sample_trace());
        let s = replay.recorded();
        assert_eq!(s.forks, 2);
        assert_eq!(s.elided, 1);
        assert_eq!(s.steals, 1);
    }

    #[test]
    fn predict_at_capture_config_reproduces_recorded_totals() {
        let replay = TraceReplay::from_trace(sample_trace());
        let p = replay.predict(2, 2.0, ReplayGrain::Adaptive);
        assert!(p.at_capture_config);
        assert_eq!(p.cutoff, 2);
        assert_eq!(p.forks, replay.recorded().forks);
        assert_eq!(p.elided, replay.recorded().elided);
        assert_eq!(p.scheduled, replay.recorded().scheduled);
        assert_eq!(p.steals, replay.recorded().steals);
    }

    #[test]
    fn predict_single_processor_is_steal_free_and_fully_elided() {
        let replay = TraceReplay::from_trace(sample_trace());
        let p = replay.predict(1, 2.0, ReplayGrain::Adaptive);
        assert_eq!(p.cutoff, 0);
        assert_eq!(p.steals, 0);
        assert_eq!(p.elided, p.forks);
        assert_eq!(p.scheduled, 0);
        assert_eq!(p.forks, replay.recorded().forks, "no passes to recount");
        assert!(!p.at_capture_config);
        assert!((p.speedup() - 1.0).abs() < 1e-12, "p = 1 runs sequentially");
    }

    #[test]
    fn pass_forks_are_recounted_under_a_new_grain() {
        // Above the default policy's wake floor, so the adaptive capture
        // really forks and a coarser grain is a different configuration.
        const LEN: usize = 1 << 16;
        let trace = DagTrace {
            processors: 2,
            cutoff: Some(2),
            capacity_per_worker: 1 << 16,
            events: vec![TraceEvent::Pass {
                ts: 1,
                worker: EXTERNAL_WORKER,
                len: LEN as u64,
                chunks: ReplayGrain::Adaptive.chunks(LEN, 2) as u32,
            }],
            dropped: 0,
        };
        let replay = TraceReplay::from_trace(trace);
        let rec = replay.recorded();
        assert_eq!(rec.passes, 1);
        assert!(rec.pass_forks > 0);
        let same = replay.predict(2, 2.0, ReplayGrain::Adaptive);
        assert!(same.at_capture_config);
        assert_eq!(same.forks, rec.pass_forks);
        let coarse = replay.predict(2, 2.0, ReplayGrain::Fixed(LEN));
        assert_eq!(coarse.forks, 0, "one LEN-element block forks nothing");
        assert!(!coarse.at_capture_config);
        let four = replay.predict(4, 2.0, ReplayGrain::Fixed(1));
        assert_eq!(four.forks, ReplayGrain::Fixed(1).chunks(LEN, 4) as u64 - 1);
    }

    #[test]
    fn simulated_makespan_improves_with_processors() {
        // A deep top-level fork tree: replaying at higher p must not be
        // slower, and the model speedup stays within [1, p].
        let mut events = Vec::new();
        let mut next = 1u32;
        let mut frontier = vec![(ROOT_NODE, 0u32)];
        let mut ts = 0u64;
        for _ in 0..5 {
            let mut new_frontier = Vec::new();
            for (node, depth) in frontier {
                ts += 1;
                let (l, r) = (next, next + 1);
                next += 2;
                events.push(TraceEvent::Fork {
                    ts,
                    worker: 0,
                    parent: node,
                    left: l,
                    right: r,
                    depth,
                    elided: false,
                });
                new_frontier.push((l, depth + 1));
                new_frontier.push((r, depth + 1));
            }
            frontier = new_frontier;
        }
        let trace = DagTrace {
            processors: 4,
            cutoff: None,
            capacity_per_worker: 1 << 16,
            events,
            dropped: 0,
        };
        let replay = TraceReplay::from_trace(trace);
        let p1 = replay.predict(1, 2.0, ReplayGrain::Adaptive);
        let p4 = replay.predict(4, 2.0, ReplayGrain::Adaptive);
        assert!(p4.makespan <= p1.makespan);
        assert!(p4.speedup() >= 1.0);
        assert!(p4.speedup() <= 4.0 + 1e-12);
        assert_eq!(p1.steals, 0);
        assert!(p4.steals > 0, "a wide tree at p = 4 must migrate work");
    }
}
