//! Pal-thread execution trees.
//!
//! A divide-and-conquer computation on the LoPRAM unfolds into a tree of
//! pal-threads: every node is one recursive call, its children are the calls
//! created inside its `palthreads { … }` block, the work before the block is
//! the divide cost and the work after it is the merge cost (paper §3.1,
//! Figures 1 and 2).  [`TaskTree`] is that tree with explicit integer costs,
//! built either directly or from a recurrence-shaped [`CostSpec`].

/// One pal-thread (recursive call) in the execution tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Size of the subproblem this call works on (informational).
    pub size: usize,
    /// Steps of work performed before the children are created (for a leaf
    /// this is the whole cost of the call).
    pub divide_cost: u64,
    /// Steps of work performed after all children have completed.
    pub merge_cost: u64,
    /// Children, in creation order.
    pub children: Vec<usize>,
    /// Parent node, `None` for the root.
    pub parent: Option<usize>,
    /// Recursion depth (root = 0).
    pub depth: u32,
}

impl TreeNode {
    /// `true` when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Total work of this single node (divide + merge).
    pub fn work(&self) -> u64 {
        self.divide_cost + self.merge_cost
    }
}

/// Cost specification for building a divide-and-conquer execution tree from
/// a recurrence `T(n) = a·T(n/b) + f(n)`.
pub struct CostSpec {
    /// Work performed by an internal call of size `n` before spawning its
    /// children (the "divide" share of `f(n)`).
    pub divide: Box<dyn Fn(usize) -> u64>,
    /// Work performed by an internal call of size `n` after its children
    /// complete (the "merge" share of `f(n)`).
    pub merge: Box<dyn Fn(usize) -> u64>,
    /// Work performed by a base-case call of size `n`.
    pub base: Box<dyn Fn(usize) -> u64>,
}

impl CostSpec {
    /// Unit costs: one step to divide, one step per base case, free merges.
    /// With these costs the simulator reproduces the timing of Figure 1.
    pub fn unit() -> Self {
        CostSpec {
            divide: Box::new(|_| 1),
            merge: Box::new(|_| 0),
            base: Box::new(|_| 1),
        }
    }

    /// Merge-heavy costs `f(n)` applied entirely after the children finish,
    /// with one divide step — the shape used for the Master-theorem
    /// experiments (mergesort merges `n` elements, the Case-3 workload merges
    /// `n²` units, …).
    pub fn merge_dominated(f: impl Fn(usize) -> u64 + 'static) -> Self {
        CostSpec {
            divide: Box::new(|_| 1),
            merge: Box::new(f),
            base: Box::new(|_| 1),
        }
    }
}

impl std::fmt::Debug for CostSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostSpec").finish_non_exhaustive()
    }
}

/// A pal-thread execution tree.
#[derive(Debug, Clone, Default)]
pub struct TaskTree {
    nodes: Vec<TreeNode>,
    root: usize,
}

impl TaskTree {
    /// Build a tree with a single node.
    pub fn leaf(size: usize, cost: u64) -> Self {
        TaskTree {
            nodes: vec![TreeNode {
                size,
                divide_cost: cost,
                merge_cost: 0,
                children: Vec::new(),
                parent: None,
                depth: 0,
            }],
            root: 0,
        }
    }

    /// Build the execution tree of a divide-and-conquer recurrence with `a`
    /// children per call, division factor `b`, base-case threshold
    /// `base_size` and the given [`CostSpec`].
    ///
    /// Subproblem sizes are split as evenly as possible (`n/b` rounded), so
    /// the tree is well defined for sizes that are not powers of `b`.
    pub fn divide_and_conquer(
        n: usize,
        a: u32,
        b: u32,
        base_size: usize,
        costs: &CostSpec,
    ) -> Self {
        assert!(a >= 1, "a must be at least 1");
        assert!(b >= 2, "b must be at least 2");
        assert!(base_size >= 1, "base size must be at least 1");
        let mut tree = TaskTree {
            nodes: Vec::new(),
            root: 0,
        };
        tree.build_dnc(n, a, b, base_size, costs, None, 0);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn build_dnc(
        &mut self,
        n: usize,
        a: u32,
        b: u32,
        base_size: usize,
        costs: &CostSpec,
        parent: Option<usize>,
        depth: u32,
    ) -> usize {
        let id = self.nodes.len();
        if n <= base_size {
            self.nodes.push(TreeNode {
                size: n,
                divide_cost: (costs.base)(n),
                merge_cost: 0,
                children: Vec::new(),
                parent,
                depth,
            });
            return id;
        }
        self.nodes.push(TreeNode {
            size: n,
            divide_cost: (costs.divide)(n),
            merge_cost: (costs.merge)(n),
            children: Vec::new(),
            parent,
            depth,
        });
        // Split n into a parts of size ~n/b each (for a = b this is an even
        // split; for a ≠ b it follows the recurrence's subproblem size).
        let child_size = (n as f64 / b as f64).ceil().max(1.0) as usize;
        let mut children = Vec::with_capacity(a as usize);
        for _ in 0..a {
            let c = self.build_dnc(child_size, a, b, base_size, costs, Some(id), depth + 1);
            children.push(c);
        }
        self.nodes[id].children = children;
        id
    }

    /// The mergesort execution tree of Figure 1: `n` keys, binary splits,
    /// unit divide and base costs, free merges.
    pub fn mergesort_figure1(n: usize) -> Self {
        TaskTree::divide_and_conquer(n, 2, 2, 1, &CostSpec::unit())
    }

    /// Root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: usize) -> &TreeNode {
        &self.nodes[id]
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Total work of the tree (sum of all node costs): the sequential time
    /// `T_1` of the computation.
    pub fn total_work(&self) -> u64 {
        self.nodes.iter().map(|n| n.work()).sum()
    }

    /// Length of the critical path (divide costs down one root-to-leaf path
    /// plus merge costs back up), i.e. the time with unbounded processors.
    pub fn critical_path(&self) -> u64 {
        self.critical_path_of(self.root)
    }

    fn critical_path_of(&self, id: usize) -> u64 {
        let node = &self.nodes[id];
        let child_max = node
            .children
            .iter()
            .map(|&c| self.critical_path_of(c))
            .max()
            .unwrap_or(0);
        node.divide_cost + child_max + node.merge_cost
    }

    /// Maximum depth of the tree (root = 0).
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Pre-order traversal of node ids (the paper's default activation
    /// order for pending pal-threads).
    pub fn preorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children in reverse so they pop in creation order.
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes grouped by depth, each level in left-to-right order.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let height = self.height() as usize;
        let mut levels = vec![Vec::new(); height + 1];
        for id in self.preorder() {
            levels[self.nodes[id].depth as usize].push(id);
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_tree_shape() {
        let tree = TaskTree::mergesort_figure1(16);
        assert_eq!(tree.len(), 31);
        assert_eq!(tree.height(), 4);
        let levels = tree.levels();
        assert_eq!(
            levels.iter().map(|l| l.len()).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16]
        );
        assert!(tree.node(tree.root()).parent.is_none());
    }

    #[test]
    fn leaf_tree() {
        let tree = TaskTree::leaf(5, 7);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.total_work(), 7);
        assert_eq!(tree.critical_path(), 7);
        assert!(tree.node(0).is_leaf());
    }

    #[test]
    fn total_work_of_unit_mergesort_tree() {
        // 15 internal nodes at cost 1 + 16 leaves at cost 1 = 31.
        let tree = TaskTree::mergesort_figure1(16);
        assert_eq!(tree.total_work(), 31);
    }

    #[test]
    fn merge_dominated_costs() {
        let costs = CostSpec::merge_dominated(|n| (n * n) as u64);
        let tree = TaskTree::divide_and_conquer(8, 2, 2, 1, &costs);
        let root = tree.node(tree.root());
        assert_eq!(root.merge_cost, 64);
        assert_eq!(root.divide_cost, 1);
        let leaf = tree
            .nodes()
            .iter()
            .find(|n| n.is_leaf())
            .expect("tree has leaves");
        assert_eq!(leaf.divide_cost, 1);
    }

    #[test]
    fn ternary_tree_has_a_children_per_internal_node() {
        let tree = TaskTree::divide_and_conquer(27, 3, 3, 1, &CostSpec::unit());
        for node in tree.nodes() {
            assert!(node.children.len() == 3 || node.children.is_empty());
        }
        // 27 leaves, 13 internal (1 + 3 + 9).
        assert_eq!(tree.len(), 40);
    }

    #[test]
    fn karatsuba_shape_three_children_halving() {
        let tree = TaskTree::divide_and_conquer(16, 3, 2, 1, &CostSpec::unit());
        let root = tree.node(tree.root());
        assert_eq!(root.children.len(), 3);
        for &c in &root.children {
            assert_eq!(tree.node(c).size, 8);
        }
    }

    #[test]
    fn preorder_visits_every_node_once_parent_first() {
        let tree = TaskTree::mergesort_figure1(16);
        let order = tree.preorder();
        assert_eq!(order.len(), tree.len());
        let mut pos = vec![usize::MAX; tree.len()];
        for (i, &id) in order.iter().enumerate() {
            pos[id] = i;
        }
        for (id, node) in tree.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(pos[p] < pos[id], "parent must precede child in preorder");
            }
        }
    }

    #[test]
    fn critical_path_of_unit_binary_tree_is_depth_plus_one() {
        let tree = TaskTree::mergesort_figure1(16);
        // divide(1) at each of 4 internal levels + leaf(1) = 5 steps.
        assert_eq!(tree.critical_path(), 5);
    }

    #[test]
    fn non_power_of_two_sizes_are_handled() {
        let tree = TaskTree::divide_and_conquer(10, 2, 2, 1, &CostSpec::unit());
        assert!(tree.len() > 1);
        assert!(tree.nodes().iter().all(|n| n.size >= 1));
        assert!(tree.height() >= 3);
    }

    #[test]
    #[should_panic(expected = "b must be at least 2")]
    fn rejects_invalid_b() {
        let _ = TaskTree::divide_and_conquer(8, 2, 1, 1, &CostSpec::unit());
    }
}
