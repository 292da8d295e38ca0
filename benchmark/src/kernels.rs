//! The kernel calls every workload is made of: one public function of a
//! kernel layer on a generated input, the sequential twin it must match,
//! and a digest of the output.  Batch rounds and served job bodies share
//! this code, so "the same kernel used the other way round" is literal.

use std::sync::Arc;

use lopram_core::PalPool;
use lopram_dnc::karatsuba::{karatsuba_mul, karatsuba_mul_seq};
use lopram_dnc::mergesort::{merge_sort, merge_sort_seq};
use lopram_dp::problems::edit_distance::EditDistance;
use lopram_graph::CsrGraph;

/// splitmix64: the benchmark's only randomness, a pure function of the seed.
#[derive(Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..bound` (bias below 2⁻³² for the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn words(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0x9e37_79b9_7f4a_7c15, mix)
}

/// Buffers a kernel call works in, reused across calls so the timed part
/// allocates only what the program itself allocates.
#[derive(Default)]
pub struct Scratch {
    words: Vec<u64>,
    out: Vec<u64>,
    usizes: Vec<usize>,
    signed: Vec<i64>,
    cells: Vec<u32>,
    total: u64,
}

/// One call into a kernel layer, with its input.
#[derive(Clone)]
pub enum Kernel {
    Bfs {
        graph: Arc<CsrGraph>,
        src: usize,
    },
    Components {
        graph: Arc<CsrGraph>,
    },
    MergeSort {
        input: Arc<Vec<u64>>,
    },
    Karatsuba {
        a: Arc<Vec<i64>>,
        b: Arc<Vec<i64>>,
    },
    Scan {
        input: Arc<Vec<u64>>,
        start: usize,
        len: usize,
    },
    Pack {
        input: Arc<Vec<u64>>,
    },
    Wavefront {
        problem: Arc<EditDistance>,
        cells: usize,
    },
}

/// Names a kernel's spans carry: the layer and function called on the pool
/// side, and the twin timed against it.
pub struct Names {
    pub layer: &'static str,
    pub pool: &'static str,
    pub twin: &'static str,
}

impl Kernel {
    pub fn names(&self) -> Names {
        let (layer, pool, twin) = match self {
            Kernel::Bfs { .. } => ("graph", "graph.bfs_par", "twin.bfs_seq"),
            Kernel::Components { .. } => (
                "graph",
                "graph.components_union_find",
                "twin.components_seq",
            ),
            Kernel::MergeSort { .. } => ("dnc", "dnc.merge_sort", "twin.merge_sort_seq"),
            Kernel::Karatsuba { .. } => ("dnc", "dnc.karatsuba_mul", "twin.karatsuba_mul_seq"),
            Kernel::Scan { .. } => ("core", "core.scan_copy_in", "twin.scan_loop"),
            Kernel::Pack { .. } => ("core", "core.pack_in", "twin.pack_loop"),
            Kernel::Wavefront { .. } => ("dp", "dp.solve_wavefront", "twin.solve_sequential"),
        };
        Names { layer, pool, twin }
    }

    /// Work per call in the kernel's own unit: arcs (BFS), edges
    /// (components), cells (wavefront), elements otherwise.
    pub fn units(&self) -> u64 {
        (match self {
            Kernel::Bfs { graph, .. } => graph.arcs(),
            Kernel::Components { graph } => graph.edges(),
            Kernel::MergeSort { input } | Kernel::Pack { input } => input.len(),
            Kernel::Karatsuba { a, .. } => a.len(),
            Kernel::Scan { len, .. } => *len,
            Kernel::Wavefront { cells, .. } => *cells,
        }) as u64
    }

    /// Untimed preparation: mergesort sorts in place, so it needs a fresh
    /// copy each call; kernels that return a vector get the previous one
    /// dropped here, so that freeing it is not timed as part of the call.
    pub fn prepare(&self, s: &mut Scratch) {
        match self {
            Kernel::MergeSort { input } => {
                s.words.clear();
                s.words.extend_from_slice(input);
            }
            Kernel::Bfs { .. } | Kernel::Components { .. } => s.usizes = Vec::new(),
            Kernel::Karatsuba { .. } => s.signed = Vec::new(),
            Kernel::Wavefront { .. } => s.cells = Vec::new(),
            Kernel::Scan { .. } | Kernel::Pack { .. } => {}
        }
    }

    /// The call under test, through `pool`.  The result stays in `s`.
    pub fn run_pool(&self, pool: &PalPool, s: &mut Scratch) {
        match self {
            Kernel::Bfs { graph, src } => s.usizes = lopram_graph::bfs::bfs_par(graph, pool, *src),
            Kernel::Components { graph } => {
                s.usizes = lopram_graph::uf::components_union_find(graph, pool)
            }
            Kernel::MergeSort { .. } => merge_sort(pool, &mut s.words),
            Kernel::Karatsuba { a, b } => s.signed = karatsuba_mul(pool, a, b),
            Kernel::Scan { input, start, len } => {
                s.total = pool.scan_copy_in(
                    &input[*start..start + len],
                    0,
                    u64::wrapping_add,
                    &mut s.out,
                );
            }
            Kernel::Pack { input } => pool.pack_in(input, |_, x| x & 1 == 0, &mut s.out),
            Kernel::Wavefront { problem, .. } => {
                let solution = lopram_dp::solve_wavefront(&**problem, pool);
                s.total = u64::from(solution.goal);
                s.cells = solution.values;
            }
        }
    }

    /// The sequential twin of [`run_pool`](Self::run_pool): the kernel
    /// crate's own `_seq` function, or for the two primitives a plain
    /// indexed loop (the code a user would write without the library).
    #[allow(clippy::needless_range_loop)] // the primitives' twin is an indexed loop on purpose
    pub fn run_twin(&self, s: &mut Scratch) {
        match self {
            Kernel::Bfs { graph, src } => s.usizes = lopram_graph::bfs::bfs_seq(graph, *src),
            Kernel::Components { graph } => s.usizes = lopram_graph::cc::components_seq(graph),
            Kernel::MergeSort { .. } => merge_sort_seq(&mut s.words),
            Kernel::Karatsuba { a, b } => s.signed = karatsuba_mul_seq(a, b),
            Kernel::Scan { input, start, len } => {
                let input = &input[*start..start + len];
                s.out.resize(input.len(), 0);
                let mut acc = 0u64;
                for i in 0..input.len() {
                    s.out[i] = acc;
                    acc = acc.wrapping_add(input[i]);
                }
                s.total = acc;
            }
            Kernel::Pack { input } => {
                s.out.clear();
                for i in 0..input.len() {
                    if input[i] & 1 == 0 {
                        s.out.push(input[i]);
                    }
                }
            }
            Kernel::Wavefront { problem, .. } => {
                let solution = lopram_dp::solve_sequential(&**problem);
                s.total = u64::from(solution.goal);
                s.cells = solution.values;
            }
        }
    }

    /// Digest of the result the last run left in `s` (untimed).
    pub fn digest(&self, s: &Scratch) -> u64 {
        match self {
            Kernel::Bfs { .. } | Kernel::Components { .. } => {
                digest(s.usizes.iter().map(|&x| x as u64))
            }
            Kernel::MergeSort { .. } => digest(s.words.iter().copied()),
            Kernel::Karatsuba { .. } => digest(s.signed.iter().map(|&x| x as u64)),
            Kernel::Scan { .. } => mix(digest(s.out.iter().copied()), s.total),
            Kernel::Pack { .. } => digest(s.out.iter().copied()),
            Kernel::Wavefront { .. } => mix(digest(s.cells.iter().map(|&x| u64::from(x))), s.total),
        }
    }

    /// BFS levels of the result in `s` (for µs per level); 0 for other kernels.
    pub fn levels(&self, s: &Scratch) -> u64 {
        match self {
            Kernel::Bfs { .. } => lopram_graph::bfs::levels(&s.usizes) as u64,
            _ => 0,
        }
    }
}

/// Two random byte strings over a four-letter alphabet, as an edit-distance
/// problem with `(side + 1)²` cells.
pub fn edit_distance(rng: &mut Rng, side: usize) -> Kernel {
    let mut text =
        |n: usize| -> Vec<u8> { (0..n).map(|_| b"acgt"[rng.below(4) as usize]).collect() };
    let (a, b) = (text(side), text(side));
    Kernel::Wavefront {
        problem: Arc::new(EditDistance::new(a, b)),
        cells: (side + 1) * (side + 1),
    }
}

/// Two random polynomials of `n` small coefficients (products stay far
/// inside `i64`).
pub fn karatsuba(rng: &mut Rng, n: usize) -> Kernel {
    let mut poly =
        |n: usize| -> Vec<i64> { (0..n).map(|_| rng.below(2001) as i64 - 1000).collect() };
    Kernel::Karatsuba {
        a: Arc::new(poly(n)),
        b: Arc::new(poly(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kernels(rng: &mut Rng) -> Vec<Kernel> {
        let graph = Arc::new(lopram_graph::gen::gnm(300, 900, rng.next_u64()));
        let input = Arc::new(rng.words(3000));
        vec![
            Kernel::Bfs {
                graph: Arc::clone(&graph),
                src: 7,
            },
            Kernel::Components { graph },
            Kernel::MergeSort {
                input: Arc::clone(&input),
            },
            karatsuba(rng, 100),
            Kernel::Scan {
                input: Arc::clone(&input),
                start: 11,
                len: 2500,
            },
            Kernel::Pack { input },
            edit_distance(rng, 24),
        ]
    }

    #[test]
    fn pool_and_twin_digests_agree_at_p1_and_p2() {
        for p in [1, 2] {
            let pool = PalPool::new(p).unwrap();
            let mut s = Scratch::default();
            for k in all_kernels(&mut Rng(42)) {
                k.prepare(&mut s);
                k.run_pool(&pool, &mut s);
                let got = k.digest(&s);
                k.prepare(&mut s);
                k.run_twin(&mut s);
                assert_eq!(got, k.digest(&s), "{} at p={p}", k.names().pool);
                assert!(k.units() > 0);
            }
        }
    }

    #[test]
    fn digest_sees_a_single_changed_element() {
        let k = Kernel::MergeSort {
            input: Arc::new(Rng(1).words(64)),
        };
        let mut s = Scratch::default();
        k.prepare(&mut s);
        k.run_twin(&mut s);
        let before = k.digest(&s);
        s.words[63] ^= 1;
        assert_ne!(before, k.digest(&s));
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        assert_eq!(Rng(9).words(8), Rng(9).words(8));
        assert_ne!(Rng(9).words(8), Rng(10).words(8));
        let mut r = Rng(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
