//! The pal-thread scheduler of §3.1, simulated step-accurately.
//!
//! Semantics implemented here (and recorded per node so Figure 1 can be
//! regenerated):
//!
//! 1. A call is **pal-requested** when its parent finishes the work that
//!    precedes its `palthreads { … }` block; all children of the block are
//!    requested together, in creation order.
//! 2. After issuing its children the parent enters a wait state and its
//!    processor is handed to its first pending child ("the processor is
//!    assigned sequentially to the children, in order of creation").
//! 3. A processor freed by a completing call is first offered to the next
//!    pending sibling of that call (same rule as above); when the completing
//!    call was the last child, "control is returned to the parent thread"
//!    and the parent resumes its merge phase on that processor.
//! 4. Any processor that is still idle after those rules picks up pending
//!    pal-threads in pre-order (creation-order) of the tree — the paper's
//!    default activation order.
//! 5. Once activated a pal-thread is never suspended.  Execution concludes
//!    when the root completes.
//!
//! With unit divide/leaf costs and free merges this reproduces the
//! activation times `1 / 2 2 / 3 3 3 3 / 4 7 … / 5 6 8 9 …` of Figure 1.

use std::collections::BTreeSet;

use crate::tree::TaskTree;

/// Per-node timing record produced by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeRecord {
    /// Time step at which the call was pal-requested.
    pub requested_at: u64,
    /// Time step at which the call was activated (granted a processor).
    pub activated_at: u64,
    /// Time step at which the divide phase finished (children issued).
    pub divide_done_at: u64,
    /// Time step at which the merge phase started (equals `divide_done_at`
    /// for leaves).
    pub merge_started_at: u64,
    /// Time step at which the call completed.
    pub completed_at: u64,
    /// Processor (0-based) the call was activated on.  The divide phase
    /// runs here; the merge phase may run on a different processor (rule 3:
    /// control returns to the parent on the last-finishing child's
    /// processor).
    pub processor: usize,
}

/// Result of simulating a [`TaskTree`] on `p` processors.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Number of processors simulated.
    pub processors: usize,
    /// Wall-clock steps until the root completed (`T_p`).
    pub makespan: u64,
    /// Total work of the tree (`T_1`).
    pub total_work: u64,
    /// Critical path of the tree (`T_∞`).
    pub critical_path: u64,
    /// Per-node timing records, indexed by node id.
    pub records: Vec<NodeRecord>,
    /// Number of activations on a processor other than the one the node's
    /// parent was activated on — the simulator's analogue of the real
    /// pool's *steals*: a pending pal-thread picked up by a processor that
    /// did not create it.  Handoffs along rules 2–3 (parent → first child,
    /// completing child → next sibling on the *same* processor) are not
    /// migrations; `p = 1` therefore always yields 0.
    pub migrations: u64,
}

impl SimResult {
    /// Observed speedup `T_1 / T_p`.
    pub fn speedup(&self) -> f64 {
        self.total_work as f64 / self.makespan as f64
    }

    /// Parallel efficiency `speedup / p`.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.processors as f64
    }

    /// Processor utilisation `T_1 / (p · T_p)` (identical to efficiency for
    /// unit-cost work).
    pub fn utilization(&self) -> f64 {
        self.efficiency()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotRequested,
    Pending,
    Divide,
    Waiting,
    Merge,
    Done,
}

/// Mutable state of one simulation run, threaded through the event loop.
#[derive(Debug)]
struct RunState {
    /// Idle processor ids, lowest first.
    free: BTreeSet<usize>,
    /// Pending pal-threads, ordered by creation (pre-order) rank.
    pending: BTreeSet<usize>,
    /// Future phase-completion events: (time, preorder rank of node).
    events: BTreeSet<(u64, usize)>,
    phase: Vec<Phase>,
    records: Vec<NodeRecord>,
    children_remaining: Vec<usize>,
    /// Processor each node is *currently* running on (activation processor
    /// during the divide phase, possibly a child's processor once the merge
    /// phase starts).
    proc_now: Vec<usize>,
    migrations: u64,
}

/// Step-accurate simulator of the pal-thread scheduler.
#[derive(Debug)]
pub struct TreeSimulator<'t> {
    tree: &'t TaskTree,
    preorder_rank: Vec<usize>,
    rank_to_node: Vec<usize>,
}

impl<'t> TreeSimulator<'t> {
    /// Create a simulator for `tree`.
    pub fn new(tree: &'t TaskTree) -> Self {
        let order = tree.preorder();
        let mut preorder_rank = vec![0usize; tree.len()];
        let mut rank_to_node = vec![0usize; tree.len()];
        for (rank, &id) in order.iter().enumerate() {
            preorder_rank[id] = rank;
            rank_to_node[rank] = id;
        }
        TreeSimulator {
            tree,
            preorder_rank,
            rank_to_node,
        }
    }

    /// Simulate the execution on `p ≥ 1` processors, starting the clock at
    /// time step 1 (as in Figure 1).
    pub fn run(&self, p: usize) -> SimResult {
        assert!(p >= 1, "at least one processor is required");
        let n = self.tree.len();
        let mut st = RunState {
            free: (0..p).collect(),
            pending: BTreeSet::new(),
            events: BTreeSet::new(),
            phase: vec![Phase::NotRequested; n],
            records: vec![NodeRecord::default(); n],
            children_remaining: vec![0usize; n],
            proc_now: vec![0usize; n],
            migrations: 0,
        };

        let root = self.tree.root();
        st.records[root].requested_at = 1;
        st.phase[root] = Phase::Pending;
        st.pending.insert(self.preorder_rank[root]);
        self.dispatch(1, &mut st);

        while let Some(&(time, rank)) = st.events.iter().next() {
            st.events.remove(&(time, rank));
            let id = self.rank_to_node[rank];
            match st.phase[id] {
                Phase::Divide => self.on_divide_done(id, time, &mut st),
                Phase::Merge => self.on_complete(id, time, &mut st),
                other => unreachable!("event for node in phase {other:?}"),
            }
        }

        // The clock starts at step 1 (as in Figure 1), so the number of
        // elapsed wall-clock steps is the root's completion time minus one.
        let makespan = st.records[root].completed_at.saturating_sub(1);
        SimResult {
            processors: p,
            makespan,
            total_work: self.tree.total_work(),
            critical_path: self.tree.critical_path(),
            records: st.records,
            migrations: st.migrations,
        }
    }

    /// Hand every idle processor (lowest id first) a pending pal-thread,
    /// in creation order — the paper's default activation rule.
    fn dispatch(&self, time: u64, st: &mut RunState) {
        while let (Some(&proc), Some(&rank)) = (st.free.iter().next(), st.pending.iter().next()) {
            st.free.remove(&proc);
            st.pending.remove(&rank);
            self.activate(self.rank_to_node[rank], time, proc, st);
        }
    }

    /// Grant `proc` to node `id` and start its divide phase.  An activation
    /// on a processor other than the parent's is counted as a migration.
    fn activate(&self, id: usize, time: u64, proc: usize, st: &mut RunState) {
        st.records[id].activated_at = time;
        st.records[id].processor = proc;
        st.proc_now[id] = proc;
        if let Some(parent) = self.tree.node(id).parent {
            if proc != st.records[parent].processor {
                st.migrations += 1;
            }
        }
        st.phase[id] = Phase::Divide;
        let cost = self.tree.node(id).divide_cost;
        if cost == 0 {
            self.on_divide_done(id, time, st);
        } else {
            st.events.insert((time + cost, self.preorder_rank[id]));
        }
    }

    fn on_divide_done(&self, id: usize, time: u64, st: &mut RunState) {
        st.records[id].divide_done_at = time;
        let node = self.tree.node(id);
        if node.is_leaf() {
            let proc = st.proc_now[id];
            self.start_merge(id, time, proc, st);
            return;
        }
        // Issue all children of the palthreads block, in creation order.
        st.phase[id] = Phase::Waiting;
        st.children_remaining[id] = node.children.len();
        for &c in &node.children {
            st.records[c].requested_at = time;
            st.phase[c] = Phase::Pending;
            st.pending.insert(self.preorder_rank[c]);
        }
        // The parent's processor is assigned to its first pending child; any
        // other idle processors pick up the remaining children (and other
        // pending pal-threads) in creation order.
        let proc = st.proc_now[id];
        if let Some(first) = self.earliest_pending_child(id, st) {
            st.pending.remove(&self.preorder_rank[first]);
            self.activate(first, time, proc, st);
        } else {
            st.free.insert(proc);
        }
        self.dispatch(time, st);
    }

    fn earliest_pending_child(&self, id: usize, st: &RunState) -> Option<usize> {
        self.tree
            .node(id)
            .children
            .iter()
            .copied()
            .find(|&c| st.phase[c] == Phase::Pending && st.pending.contains(&self.preorder_rank[c]))
    }

    /// Start the merge phase of `id` on processor `proc` (rule 3: control
    /// returns to the parent on the last-finishing child's processor).
    fn start_merge(&self, id: usize, time: u64, proc: usize, st: &mut RunState) {
        st.phase[id] = Phase::Merge;
        st.records[id].merge_started_at = time;
        st.proc_now[id] = proc;
        let cost = self.tree.node(id).merge_cost;
        if cost == 0 {
            self.on_complete(id, time, st);
        } else {
            st.events.insert((time + cost, self.preorder_rank[id]));
        }
    }

    fn on_complete(&self, id: usize, time: u64, st: &mut RunState) {
        st.phase[id] = Phase::Done;
        st.records[id].completed_at = time;
        let proc = st.proc_now[id];
        if let Some(parent) = self.tree.node(id).parent {
            st.children_remaining[parent] -= 1;
            if st.children_remaining[parent] == 0 {
                // Control returns to the parent on this processor.
                self.start_merge(parent, time, proc, st);
                return;
            }
            // Otherwise the processor serves the next pending sibling, in
            // creation order.
            if let Some(sibling) = self.earliest_pending_child(parent, st) {
                st.pending.remove(&self.preorder_rank[sibling]);
                self.activate(sibling, time, proc, st);
                return;
            }
        }
        // Processor becomes free and is offered to pending pal-threads.
        st.free.insert(proc);
        self.dispatch(time, st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{CostSpec, TaskTree};

    fn activation_times_by_level(tree: &TaskTree, result: &SimResult) -> Vec<Vec<u64>> {
        tree.levels()
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|&id| result.records[id].activated_at)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn figure1_activation_times_match_the_paper() {
        let tree = TaskTree::mergesort_figure1(16);
        let result = TreeSimulator::new(&tree).run(4);
        let levels = activation_times_by_level(&tree, &result);
        assert_eq!(levels[0], vec![1]);
        assert_eq!(levels[1], vec![2, 2]);
        assert_eq!(levels[2], vec![3, 3, 3, 3]);
        assert_eq!(levels[3], vec![4, 7, 4, 7, 4, 7, 4, 7]);
        assert_eq!(
            levels[4],
            vec![5, 6, 8, 9, 5, 6, 8, 9, 5, 6, 8, 9, 5, 6, 8, 9]
        );
    }

    #[test]
    fn one_processor_gives_sequential_makespan() {
        let tree = TaskTree::mergesort_figure1(64);
        let result = TreeSimulator::new(&tree).run(1);
        assert_eq!(result.makespan, result.total_work);
        assert!((result.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_processor_never_migrates() {
        // With a single processor every pal-thread runs where its parent
        // ran — structurally zero migrations, like a p = 1 PalPool.
        let tree = TaskTree::mergesort_figure1(64);
        let result = TreeSimulator::new(&tree).run(1);
        assert_eq!(result.migrations, 0);
        assert!(result.records.iter().all(|r| r.processor == 0));
    }

    #[test]
    fn migrations_count_cross_processor_activations() {
        let tree = TaskTree::mergesort_figure1(16);
        let result = TreeSimulator::new(&tree).run(4);
        // Figure 1: at step 2 the root's two children are activated, one on
        // the root's processor (handoff) and one on an idle processor (a
        // migration) — so migrations are nonzero at p = 4 ...
        assert!(result.migrations > 0);
        // ... bounded by the number of non-root nodes, and recomputable
        // from the per-node processor records.
        let recount: u64 = tree
            .nodes()
            .iter()
            .enumerate()
            .filter(|(id, node)| {
                node.parent
                    .is_some_and(|p| result.records[*id].processor != result.records[p].processor)
            })
            .count() as u64;
        assert_eq!(result.migrations, recount);
        assert!(result.migrations < tree.len() as u64);
        assert!(result.records.iter().all(|r| r.processor < 4));
    }

    #[test]
    fn makespan_never_below_critical_path_or_work_over_p() {
        for n in [16usize, 64, 256] {
            let costs = CostSpec::merge_dominated(|s| s as u64);
            let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
            for p in [1usize, 2, 4, 8] {
                let r = TreeSimulator::new(&tree).run(p);
                assert!(r.makespan >= r.critical_path);
                assert!(r.makespan >= r.total_work.div_ceil(p as u64));
                assert!(r.makespan <= r.total_work);
            }
        }
    }

    #[test]
    fn mergesort_speedup_is_near_linear_for_small_p() {
        // Case 2 of Theorem 1: T_p = O(T/p).  At finite n the merge terms of
        // Eq. 3 cost a constant fraction, so check a moderate efficiency for
        // small p and, more importantly, that the efficiency improves as n
        // grows (the asymptotic work-optimality claim).
        let costs = CostSpec::merge_dominated(|s| s as u64);
        let tree = TaskTree::divide_and_conquer(1 << 13, 2, 2, 1, &costs);
        for p in [2usize, 4] {
            let r = TreeSimulator::new(&tree).run(p);
            assert!(
                r.efficiency() > 0.7,
                "efficiency {} too low for p = {p}",
                r.efficiency()
            );
        }
        let costs_small = CostSpec::merge_dominated(|s| s as u64);
        let small = TaskTree::divide_and_conquer(1 << 9, 2, 2, 1, &costs_small);
        let eff_small = TreeSimulator::new(&small).run(8).efficiency();
        let eff_large = TreeSimulator::new(&tree).run(8).efficiency();
        assert!(
            eff_large > eff_small,
            "efficiency must improve with n ({eff_small} -> {eff_large})"
        );
    }

    #[test]
    fn case3_tree_has_constant_speedup_with_sequential_merge() {
        // T(n) = 2T(n/2) + n²: the root merge dominates, so extra processors
        // do not help (Theorem 1 case 3).
        let costs = CostSpec::merge_dominated(|s| (s as u64) * (s as u64));
        let tree = TaskTree::divide_and_conquer(1 << 8, 2, 2, 1, &costs);
        let r2 = TreeSimulator::new(&tree).run(2);
        let r8 = TreeSimulator::new(&tree).run(8);
        let improvement = r2.makespan as f64 / r8.makespan as f64;
        assert!(
            improvement < 1.35,
            "case 3 should not benefit from more processors (got {improvement})"
        );
        // And the makespan is dominated by f(n) = n² at the root.
        assert!(r8.makespan as f64 >= (1u64 << 16) as f64);
    }

    #[test]
    fn every_node_is_scheduled_exactly_once_and_in_order() {
        let tree = TaskTree::divide_and_conquer(64, 2, 2, 1, &CostSpec::unit());
        let result = TreeSimulator::new(&tree).run(3);
        for (id, rec) in result.records.iter().enumerate() {
            let node = tree.node(id);
            assert!(rec.requested_at >= 1, "node {id} never requested");
            assert!(rec.activated_at >= rec.requested_at);
            assert!(rec.divide_done_at >= rec.activated_at);
            assert!(rec.completed_at >= rec.divide_done_at);
            if let Some(parent) = node.parent {
                let prec = &result.records[parent];
                assert!(rec.requested_at >= prec.activated_at);
                assert!(prec.completed_at >= rec.completed_at);
            }
        }
    }

    #[test]
    fn processors_beyond_width_do_not_change_makespan() {
        let tree = TaskTree::mergesort_figure1(32);
        let r32 = TreeSimulator::new(&tree).run(32);
        let r1000 = TreeSimulator::new(&tree).run(1000);
        assert_eq!(r32.makespan, r1000.makespan);
        assert!(r1000.makespan >= tree.critical_path());
    }

    #[test]
    fn zero_cost_merges_do_not_hang() {
        let tree = TaskTree::divide_and_conquer(128, 2, 2, 1, &CostSpec::unit());
        let r = TreeSimulator::new(&tree).run(4);
        assert!(r.makespan > 0);
        assert_eq!(r.records[tree.root()].completed_at, r.makespan + 1);
    }

    #[test]
    fn single_leaf_tree() {
        let tree = TaskTree::leaf(1, 3);
        let r = TreeSimulator::new(&tree).run(4);
        assert_eq!(r.makespan, 3);
        assert_eq!(r.records[0].activated_at, 1);
        assert_eq!(r.records[0].completed_at, 4);
    }

    #[test]
    fn makespan_matches_eq3_for_power_of_a_processors() {
        // The simulated schedule and the closed-form Eq. 3 agree for
        // mergesort-like costs when p is a power of a (up to the +1 divide
        // steps the analytic recurrence does not model).
        use lopram_analysis::recurrence::catalog;
        let n = 1usize << 10;
        let costs = CostSpec {
            divide: Box::new(|_| 0),
            merge: Box::new(|s| s as u64),
            base: Box::new(|_| 1),
        };
        let tree = TaskTree::divide_and_conquer(n, 2, 2, 1, &costs);
        let rec = catalog::mergesort();
        for p in [1usize, 2, 4, 8] {
            let sim = TreeSimulator::new(&tree).run(p);
            let analytic = rec.parallel_time_eq3(n, p);
            let ratio = sim.makespan as f64 / analytic;
            assert!(
                (0.8..1.2).contains(&ratio),
                "simulated {} vs Eq.3 {} (p = {p})",
                sim.makespan,
                analytic
            );
        }
    }
}
