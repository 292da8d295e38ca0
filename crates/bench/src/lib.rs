//! # lopram-bench
//!
//! Experiment harness for the LoPRAM reproduction: every figure and
//! analytical claim of the paper has a binary in `src/bin/` that
//! regenerates it.  Timing the stack against its sequential twins is not
//! this crate's job — that is the standalone `benchmark/` workspace
//! (`BENCHMARK.json`) — and every exactness property is a `cargo test`.
//!
//! | binary | experiment |
//! |--------|------------|
//! | `fig1_mergesort_tree`  | Figure 1: mergesort pal-thread activation tree |
//! | `fig2_cutoff_depth`    | Figure 2: parallel cutoff depth `log_a p` |
//! | `table_master_case1`   | Theorem 1 case 1 (Karatsuba, Strassen, 4-way polymul) |
//! | `table_master_case2`   | Theorem 1 case 2 (mergesort, max subarray, closest pair) |
//! | `table_master_case3`   | Theorem 1 case 3 + Eq. 5 (dominant merge, seq vs parallel) |
//! | `table_eq3_validation` | Eq. 3 vs the step-accurate simulator (`--smoke`: tiny grid) |
//! | `table_dp_speedup`     | §4.4 Algorithm 1 / wavefront speedups on classic DPs |
//! | `table_dag_width`      | §4.3/§4.6 antichain widths and speedup bounds |
//! | `table_memoization`    | §4.5 parallel memoization vs bottom-up |
//! | `table_varying_p`      | §3.2 correctness and time as a function of p |
//! | `table_scheduler_ablation` | E12: work-stealing `PalPool` (cutoff on/off) vs eager `ThrottledPool` (steal/spawn/inline/elided counters, `--smoke` asserts divergence) |
//! | `table_sim_speedup`    | simulator speedup sweep |
//! | `table_graph_speedup`  | E14: irregular graph kernels (scan/pack BFS, connected components, histogram, triangles) × shapes × p ∈ {1, 2, 4}; `--smoke` asserts parallel ≡ sequential, nonzero steals at p ≥ 2, exact fork accounting |
//!
//! This crate is an internal tool (`publish = false`); its library half holds
//! the shared measurement and pretty-printing helpers.

use std::time::{Duration, Instant};

use lopram_core::{PalPool, ProcessorPolicy};
use rand::prelude::*;

/// Default processor counts swept by the experiment binaries.
pub const PROCESSOR_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The one flag the smoke-capable binaries take: `true` for `--smoke`,
/// `false` for no argument at all.  Anything else is a mistake (a typo'd
/// flag must not silently run the full grid): it is named on stderr and
/// the process exits with status 2.
pub fn smoke_flag() -> bool {
    match parse_smoke(std::env::args().skip(1)) {
        Ok(smoke) => smoke,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

fn parse_smoke(args: impl Iterator<Item = String>) -> Result<bool, String> {
    let mut smoke = false;
    for arg in args {
        if arg != "--smoke" {
            return Err(format!(
                "unrecognised argument `{arg}` (the only flag is --smoke)"
            ));
        }
        smoke = true;
    }
    Ok(smoke)
}

/// Measure the median wall-clock time of `f` over `runs` executions
/// (after one warm-up run).
pub fn measure<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    assert!(runs >= 1);
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A measured speedup row: one workload at one processor count.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload label.
    pub label: String,
    /// Input size.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Sequential wall-clock time.
    pub sequential: Duration,
    /// Parallel wall-clock time.
    pub parallel: Duration,
    /// Speedup predicted by the analysis (Eq. 3 / Eq. 5), if applicable.
    pub predicted: Option<f64>,
}

impl SpeedupRow {
    /// Observed speedup `T_1 / T_p`.
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.parallel.as_secs_f64().max(1e-12)
    }

    /// Observed efficiency `speedup / p`.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.p as f64
    }
}

/// Print a table of speedup rows with a title.
pub fn print_speedup_table(title: &str, rows: &[SpeedupRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<22} {:>10} {:>4} {:>12} {:>12} {:>9} {:>9} {:>10}",
        "workload", "n", "p", "T_1", "T_p", "speedup", "eff", "predicted"
    );
    for row in rows {
        println!(
            "{:<22} {:>10} {:>4} {:>12.3?} {:>12.3?} {:>9.2} {:>9.2} {:>10}",
            row.label,
            row.n,
            row.p,
            row.sequential,
            row.parallel,
            row.speedup(),
            row.efficiency(),
            row.predicted
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".to_string()),
        );
    }
}

/// Build a [`PalPool`] with exactly `p` processors.
pub fn pool_with(p: usize) -> PalPool {
    PalPool::new(p).expect("p >= 1")
}

/// The paper's default processor count for an input of size `n`.
pub fn logn_processors(n: usize) -> usize {
    ProcessorPolicy::LogN.processors(n)
}

/// Deterministic random vector of `i64`.
pub fn random_vec(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-1_000_000..1_000_000))
        .collect()
}

/// Deterministic random byte string drawn from a small alphabet.
pub fn random_string(n: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..alphabet)).collect()
}

/// Deterministic random square matrix.
pub fn random_matrix(n: usize, seed: u64) -> lopram_dnc::Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    lopram_dnc::Matrix::from_fn(n, |_, _| rng.gen_range(-1.0..1.0))
}

/// Deterministic random weighted edge list on `n` vertices.
pub fn random_edges(n: usize, edges: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..100),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_flag_rejects_everything_but_smoke() {
        let parse = |args: &[&str]| parse_smoke(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(false));
        assert_eq!(parse(&["--smoke"]), Ok(true));
        for typo in ["--smok", "smoke", "--smoke=1", "-s"] {
            let message = parse(&[typo]).unwrap_err();
            assert!(message.contains(typo), "{message}");
        }
        assert!(parse(&["--smoke", "--full"]).is_err());
    }

    #[test]
    fn measure_returns_positive_duration() {
        let d = measure(3, || {
            let v: u64 = (0..10_000u64).sum();
            std::hint::black_box(v);
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn speedup_row_arithmetic() {
        let row = SpeedupRow {
            label: "x".into(),
            n: 100,
            p: 4,
            sequential: Duration::from_millis(100),
            parallel: Duration::from_millis(25),
            predicted: Some(4.0),
        };
        assert!((row.speedup() - 4.0).abs() < 1e-9);
        assert!((row.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn workload_generators_are_deterministic() {
        assert_eq!(random_vec(100, 7), random_vec(100, 7));
        assert_eq!(random_string(50, 4, 1), random_string(50, 4, 1));
        assert_eq!(random_edges(10, 20, 3), random_edges(10, 20, 3));
        assert_eq!(random_matrix(8, 5).data(), random_matrix(8, 5).data());
    }

    #[test]
    fn logn_processors_is_positive_and_logarithmic() {
        assert!(logn_processors(2) >= 1);
        assert!(logn_processors(1 << 20) <= 20);
    }
}
