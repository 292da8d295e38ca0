//! All-pairs shortest paths (Floyd–Warshall) as a three-dimensional DP.
//!
//! Cell `(k, i, j)` is the shortest `i → j` distance using only intermediate
//! vertices `< k`.  Each `k`-slab depends only on slab `k−1`, so the
//! antichains are the `n²`-cell slabs — a deep DAG (`n+1` levels) whose
//! levels are individually very wide.

use crate::spec::DpProblem;

/// Large-but-safe "infinity" for missing edges.
pub const INF: u64 = u64::MAX / 4;

/// Floyd–Warshall as a dynamic program over `(k, i, j)` cells.
#[derive(Debug, Clone)]
pub struct FloydWarshall {
    n: usize,
    /// Adjacency matrix with `INF` for missing edges, 0 on the diagonal.
    adj: Vec<u64>,
}

impl FloydWarshall {
    /// Create the problem from an adjacency matrix given in row-major order
    /// (`INF` for missing edges).
    pub fn new(n: usize, adj: Vec<u64>) -> Self {
        assert!(n > 0, "need at least one vertex");
        assert_eq!(adj.len(), n * n, "adjacency matrix must be n×n");
        FloydWarshall { n, adj }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut adj = vec![INF; n * n];
        for i in 0..n {
            adj[i * n + i] = 0;
        }
        for &(u, v, w) in edges {
            let slot = &mut adj[u * n + v];
            *slot = (*slot).min(w);
        }
        FloydWarshall::new(n, adj)
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.n
    }

    fn cell(&self, k: usize, i: usize, j: usize) -> usize {
        (k * self.n + i) * self.n + j
    }

    fn coords(&self, cell: usize) -> (usize, usize, usize) {
        let j = cell % self.n;
        let rest = cell / self.n;
        (rest / self.n, rest % self.n, j)
    }

    /// Plain sequential reference implementation (in-place relaxation).
    pub fn reference(&self) -> Vec<u64> {
        let n = self.n;
        let mut d = self.adj.clone();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i * n + k].saturating_add(d[k * n + j]);
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        d
    }

    /// Extract the final distance matrix from a full DP solution.
    pub fn distances(&self, values: &[u64]) -> Vec<u64> {
        let base = self.n * self.n * self.n;
        values[base..base + self.n * self.n].to_vec()
    }
}

impl DpProblem for FloydWarshall {
    type Value = u64;

    fn num_cells(&self) -> usize {
        (self.n + 1) * self.n * self.n
    }

    fn dependencies(&self, cell: usize, out: &mut Vec<usize>) {
        let (k, i, j) = self.coords(cell);
        if k == 0 {
            return;
        }
        let start = out.len();
        out.extend([
            self.cell(k - 1, i, j),
            self.cell(k - 1, i, k - 1),
            self.cell(k - 1, k - 1, j),
        ]);
        super::sort_dedup_from(out, start);
    }

    fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
        let (k, i, j) = self.coords(cell);
        if k == 0 {
            return self.adj[i * self.n + j];
        }
        let direct = get(self.cell(k - 1, i, j));
        let via = get(self.cell(k - 1, i, k - 1)).saturating_add(get(self.cell(k - 1, k - 1, j)));
        direct.min(via)
    }

    fn goal_cell(&self) -> usize {
        self.cell(self.n, self.n - 1, self.n - 1)
    }

    fn name(&self) -> &'static str {
        "floyd-warshall"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{dependency_dag, solve_counter, solve_sequential, solve_wavefront};
    use lopram_core::PalPool;
    use proptest::prelude::*;

    fn sample_graph() -> FloydWarshall {
        FloydWarshall::from_edges(
            5,
            &[
                (0, 1, 3),
                (0, 3, 7),
                (1, 2, 1),
                (2, 3, 2),
                (3, 4, 1),
                (4, 0, 8),
                (1, 4, 9),
            ],
        )
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // row-major `row * n + col` indexing
    fn reference_shortest_paths() {
        let g = sample_graph();
        let d = g.reference();
        let n = g.vertices();
        assert_eq!(d[0 * n + 2], 4); // 0→1→2
        assert_eq!(d[0 * n + 3], 6); // 0→1→2→3
        assert_eq!(d[0 * n + 4], 7); // 0→1→2→3→4
        assert_eq!(d[4 * n + 2], 12); // 4→0→1→2
        assert_eq!(d[1 * n + 1], 0);
    }

    #[test]
    fn dp_formulation_matches_reference() {
        let g = sample_graph();
        let sol = solve_sequential(&g);
        assert_eq!(g.distances(&sol.values), g.reference());
    }

    #[test]
    fn all_schedulers_match_reference() {
        let g = sample_graph();
        let expected = g.reference();
        let pool = PalPool::new(4).unwrap();
        assert_eq!(g.distances(&solve_wavefront(&g, &pool).values), expected);
        assert_eq!(g.distances(&solve_counter(&g, &pool).values), expected);
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // row-major `row * n + col` indexing
    fn disconnected_vertices_stay_at_infinity() {
        let g = FloydWarshall::from_edges(3, &[(0, 1, 5)]);
        let d = g.reference();
        assert_eq!(d[0 * 3 + 2], INF);
        assert_eq!(d[2 * 3 + 0], INF);
        let sol = solve_sequential(&g);
        assert_eq!(g.distances(&sol.values), d);
    }

    #[test]
    fn dag_has_one_level_per_k_slab() {
        let g = FloydWarshall::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let dag = dependency_dag(&g);
        assert_eq!(dag.longest_chain(), 5); // k = 0..=4
        assert_eq!(dag.max_width(), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_parallel_matches_reference(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 1u64..20), 0..20)
        ) {
            let g = FloydWarshall::from_edges(6, &edges);
            let expected = g.reference();
            let pool = PalPool::new(3).unwrap();
            prop_assert_eq!(g.distances(&solve_counter(&g, &pool).values), expected.clone());
            prop_assert_eq!(g.distances(&solve_wavefront(&g, &pool).values), expected);
        }

        #[test]
        fn prop_triangle_inequality_holds(
            edges in proptest::collection::vec((0usize..5, 0usize..5, 1u64..20), 0..15)
        ) {
            let g = FloydWarshall::from_edges(5, &edges);
            let d = g.reference();
            let n = 5;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        prop_assert!(d[i * n + j] <= d[i * n + k].saturating_add(d[k * n + j]));
                    }
                }
            }
        }
    }
}
