//! Deterministic graph generators.
//!
//! Every generator is seeded (or shape-determined) and produces the same
//! [`CsrGraph`] on every run, so the differential suite and the benchmark
//! can compare parallel and sequential kernels on identical inputs across
//! processor counts.
//!
//! ## The `G(n, m)` contract
//!
//! [`gnm`] / [`gnm_streamed`] produce **exactly `min(m, n·(n−1)/2)`
//! distinct, loop-free undirected edges** — the requested count is
//! clamped to the simple graph's capacity, never silently undershot.
//! (The pre-clamp behaviour sampled `m` pairs *with* replacement,
//! including self-loops, so the realised edge count was both random-ish
//! and unbounded-request-unsafe: `gnm(1, 10, 3)` quietly yielded zero
//! arcs and a dense request could spin a rejection loop.)  Sampling is a
//! seeded [Feistel permutation](https://en.wikipedia.org/wiki/Format-preserving_encryption)
//! over the edge-index space `[0, n·(n−1)/2)` with cycle walking: every
//! index maps to a distinct pair, `O(1)` memory per edge, guaranteed
//! termination for any `(n, m)` — dense requests (`m ≥ n·(n−1)/2`)
//! return the complete graph.  The streamed variant regenerates the
//! identical stream per pass, so `gnm_streamed(n, m, s) ≡ gnm(n, m, s)`
//! on the clamped values.

use crate::csr::CsrGraph;

/// The splitmix64 finalizer: a cheap, well-mixed `u64 → u64` bijection
/// used to derive round keys and as the Feistel round function.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded pseudorandom permutation of `[0, domain)`: a four-round
/// balanced Feistel network over the smallest even-bit-width power of
/// two ≥ `domain`, shrunk to the domain by cycle walking (re-applying
/// the network while the value lands outside).  Walking terminates
/// because the network permutes the power-of-two space — the orbit of an
/// in-domain value must revisit the domain — and the expected walk is
/// under four steps (the cover is at most 4× the domain).
#[derive(Debug, Clone, Copy)]
struct FeistelPerm {
    domain: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl FeistelPerm {
    fn new(domain: u64, seed: u64) -> Self {
        debug_assert!(domain >= 1);
        // Bits needed to cover domain − 1, rounded up to an even split.
        let needed = (64 - (domain - 1).leading_zeros()).max(2);
        let half_bits = needed.div_ceil(2);
        let keys = std::array::from_fn(|i| mix64(seed ^ mix64(i as u64 + 1)));
        FeistelPerm {
            domain,
            half_bits,
            keys,
        }
    }

    /// One pass of the network over the `2 · half_bits`-wide space.
    fn round_trip(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut l = x >> self.half_bits;
        let mut r = x & mask;
        for &k in &self.keys {
            (l, r) = (r, l ^ (mix64(r ^ k) & mask));
        }
        (l << self.half_bits) | r
    }

    /// The permutation image of `x ∈ [0, domain)`.
    fn permute(&self, x: u64) -> u64 {
        debug_assert!(x < self.domain);
        let mut y = self.round_trip(x);
        while y >= self.domain {
            y = self.round_trip(y);
        }
        y
    }
}

/// Number of vertex pairs `{u, v}`, `u < v`, of a simple graph on `n`
/// vertices: the `G(n, m)` edge-index space.
fn pair_count(n: usize) -> u64 {
    let c = (n as u128) * (n as u128 - 1) / 2;
    debug_assert!(c <= u64::MAX as u128, "edge-index space exceeds u64");
    c as u64
}

/// Decode edge index `e` into the pair `(u, v)`, `u < v`: index blocks
/// are grouped by the larger endpoint, `v` owning `[v(v−1)/2, v(v+1)/2)`.
fn tri_decode(e: u64) -> (u64, u64) {
    let s = (8 * e as u128 + 1).isqrt() as u64;
    let mut v = s.div_ceil(2);
    // Integer-sqrt slop: nudge v onto the unique block containing e.
    while v * (v - 1) / 2 > e {
        v -= 1;
    }
    while v * (v + 1) / 2 <= e {
        v += 1;
    }
    (e - v * (v - 1) / 2, v)
}

/// The seeded `G(n, m)` edge stream: exactly `min(m, n·(n−1)/2)`
/// distinct loop-free pairs, `O(1)` memory per edge (see the
/// [module docs](self) for the clamping contract).
fn gnm_edges(n: usize, m: usize, seed: u64) -> impl Iterator<Item = (usize, usize)> {
    let count = if n < 2 { 0 } else { pair_count(n) };
    let target = (m as u64).min(count);
    let perm = FeistelPerm::new(count.max(1), seed);
    (0..target).map(move |i| {
        let (u, v) = tri_decode(perm.permute(i));
        (u as usize, v as usize)
    })
}

/// Erdős–Rényi-style `G(n, m)`: exactly `min(m, n·(n−1)/2)` distinct
/// undirected edges (no self-loops, no duplicates) drawn as a seeded
/// pseudorandom subset of the pair space — dense requests clamp to the
/// complete graph instead of spinning or undershooting.
///
/// Returns the edgeless graph on `n` vertices when `n < 2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    let edges: Vec<(usize, usize)> = gnm_edges(n, m, seed).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// [`gnm`] without the materialized edge list: the same seeded edge
/// stream is regenerated for each counting-sort pass of
/// [`CsrGraph::from_undirected_edges_streamed`], so peak extra memory is
/// `O(n)` instead of the `O(m)` edge vector plus `O(2m)` sort buffer —
/// the Feistel edge sampler is `O(1)` state, which is what keeps the
/// whole build `O(n)` at 10⁶–10⁷ edges.  Produces a graph *identical*
/// to `gnm(n, m, seed)` (same clamping contract) — the benchmark's
/// `batch-large` graph and the million-edge CC tests are built this way.
pub fn gnm_streamed(n: usize, m: usize, seed: u64) -> CsrGraph {
    CsrGraph::from_undirected_edges_streamed(n, move || gnm_edges(n, m, seed))
}

/// A `rows × cols` 4-neighbour lattice — the diameter-heavy regular shape
/// (BFS runs `rows + cols − 2` levels, so the frontier loop dominates).
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let at = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    CsrGraph::from_undirected_edges(rows * cols, &edges)
}

/// A star: vertex 0 joined to every other vertex — maximal degree skew
/// (one frontier of size `n − 1`), the worst case for block balance.
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// A path `0 − 1 − ⋯ − (n − 1)` — the no-parallelism extreme: every BFS
/// frontier has exactly one vertex, the graph analogue of the paper's
/// one-dimensional chain DP.
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// A path whose vertex ids are a seeded permutation of the positions:
/// isomorphic to [`path`], but consecutive path neighbours land at
/// unrelated ids.  This is the adversarial shape for round-synchronous
/// label propagation — on [`path`] an ascending in-chunk scan zips the
/// minimum down the whole chain in one round, whereas here propagation
/// really pays about one hop per round, exposing the O(diameter) round
/// bound the union-find kernel ([`crate::uf`]) exists to beat.
pub fn path_permuted(n: usize, seed: u64) -> CsrGraph {
    if n < 2 {
        return CsrGraph::from_undirected_edges(n, &[]);
    }
    let perm = FeistelPerm::new(n as u64, seed);
    let id = |i: usize| perm.permute(i as u64) as usize;
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (id(i - 1), id(i))).collect();
    CsrGraph::from_undirected_edges(n, &edges)
}

/// A complete binary tree on `n` vertices (vertex `v`'s children are
/// `2v + 1` and `2v + 2`) — the shape of the paper's own Figure 1/2
/// recursion trees, with frontiers doubling per level.
pub fn binary_tree(n: usize) -> CsrGraph {
    let mut edges = Vec::new();
    for v in 0..n {
        for child in [2 * v + 1, 2 * v + 2] {
            if child < n {
                edges.push((v, child));
            }
        }
    }
    CsrGraph::from_undirected_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_is_deterministic_per_seed() {
        assert_eq!(gnm(64, 256, 7), gnm(64, 256, 7));
        assert_ne!(gnm(64, 256, 7), gnm(64, 256, 8));
        assert_eq!(gnm(1, 10, 3).arcs(), 0);
    }

    #[test]
    fn gnm_realises_exactly_the_clamped_edge_count() {
        // Regression for the silent undershoot: the old sampler drew
        // pairs with replacement (self-loops included), so the realised
        // count was below m even on easy requests.
        for &(n, m) in &[(2, 1), (64, 256), (100, 1000), (1000, 1), (513, 4096)] {
            let cap = n * (n - 1) / 2;
            assert_eq!(
                gnm(n, m, 42).edges(),
                m.min(cap),
                "G({n}, {m}) must realise min(m, {cap}) edges"
            );
        }
    }

    #[test]
    fn gnm_dense_requests_terminate_and_clamp_to_the_complete_graph() {
        // Regression: a request beyond the simple graph's capacity must
        // terminate (no rejection spinning) and produce the complete
        // graph — and further oversampling must not change the result.
        let complete = gnm(4, 100, 9);
        assert_eq!(complete.edges(), 6);
        for v in 0..4 {
            assert_eq!(complete.degree(v), 3, "K4 vertex {v}");
        }
        assert_eq!(
            complete,
            gnm(4, 6, 9),
            "clamped request equals exact request"
        );
        assert_eq!(gnm(5, usize::MAX, 3).edges(), 10);
    }

    #[test]
    fn gnm_streamed_equals_gnm() {
        for &(n, m, seed) in &[
            (2, 1, 0),
            (64, 256, 7),
            (100, 1000, 42),
            (1, 10, 3),
            (4, 100, 9), // dense: the clamp must agree across both builds
        ] {
            assert_eq!(
                gnm_streamed(n, m, seed),
                gnm(n, m, seed),
                "G({n}, {m}) seed {seed}"
            );
        }
    }

    #[test]
    fn feistel_is_a_permutation() {
        for &(domain, seed) in &[(1u64, 0u64), (2, 1), (37, 7), (256, 9), (1000, 3)] {
            let perm = FeistelPerm::new(domain, seed);
            let mut seen = vec![false; domain as usize];
            for x in 0..domain {
                let y = perm.permute(x);
                assert!(y < domain, "image out of domain");
                assert!(!seen[y as usize], "collision at {x} -> {y}");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn tri_decode_enumerates_all_pairs() {
        let n = 23u64;
        let mut seen = std::collections::HashSet::new();
        for e in 0..n * (n - 1) / 2 {
            let (u, v) = tri_decode(e);
            assert!(u < v && v < n, "decoded ({u}, {v}) out of range at {e}");
            assert!(seen.insert((u, v)), "pair ({u}, {v}) decoded twice");
        }
    }

    #[test]
    fn grid_has_lattice_structure() {
        let g = grid(3, 4);
        assert_eq!(g.vertices(), 12);
        // 3·(4−1) horizontal + (3−1)·4 vertical edges.
        assert_eq!(g.edges(), 9 + 8);
        // A corner has degree 2, an interior vertex degree 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4);
    }

    #[test]
    fn star_path_tree_shapes() {
        let s = star(10);
        assert_eq!(s.degree(0), 9);
        assert!((1..10).all(|v| s.degree(v) == 1));

        let p = path(5);
        assert_eq!(p.edges(), 4);
        assert_eq!(p.neighbors(2), &[1, 3]);

        let t = binary_tree(7);
        assert_eq!(t.edges(), 6);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0, 3, 4]);
    }

    #[test]
    fn permuted_path_is_a_path() {
        let n = 97;
        let g = path_permuted(n, 0xBEEF);
        assert_eq!(g.edges(), n - 1);
        let endpoints = (0..n).filter(|&v| g.degree(v) == 1).count();
        assert_eq!(endpoints, 2, "a path has exactly two endpoints");
        assert!((0..n).all(|v| g.degree(v) <= 2));
        // Connected: one component (degree profile + edge count already
        // force it, but check directly against the CC twin).
        assert_eq!(
            crate::cc::component_count(&crate::cc::components_seq(&g)),
            1
        );
        assert_eq!(path_permuted(1, 5).vertices(), 1);
    }
}
