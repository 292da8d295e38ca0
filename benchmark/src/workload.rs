//! What the five workloads have in common: their names, their input sizes,
//! and the record one measured pass produces.

use lopram_core::MetricsSnapshot;

use crate::batch::Batch;
use crate::served::Served;
use crate::stats::Histogram;
use crate::trace::Tracer;

/// The workloads, in the order the suite runs them (fixed, so that two sets
/// of runs put every workload in the same place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    BatchLargeP1,
    BatchLargePN,
    BatchFinePN,
    ServeTinyClosed,
    ServeMixedOpen,
}

impl Id {
    pub const ALL: [Id; 5] = [
        Id::BatchLargeP1,
        Id::BatchLargePN,
        Id::BatchFinePN,
        Id::ServeTinyClosed,
        Id::ServeMixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Id::BatchLargeP1 => "batch-large-p1",
            Id::BatchLargePN => "batch-large-pN",
            Id::BatchFinePN => "batch-fine-pN",
            Id::ServeTinyClosed => "serve-tiny-closed",
            Id::ServeMixedOpen => "serve-mixed-open",
        }
    }

    pub fn parse(name: &str) -> Option<Id> {
        Id::ALL.into_iter().find(|id| id.name() == name)
    }
}

/// Input sizes.  [`Sizes::FULL`] is the benchmark; [`Sizes::SMOKE`] runs the
/// same code with every check on in well under a second per workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `batch-large-*`: G(n, m), mergesort, Karatsuba, scan/pack, edit distance.
    pub large_vertices: usize,
    pub large_edges: usize,
    pub large_sort: usize,
    pub large_karatsuba: usize,
    pub large_scan: usize,
    pub large_dp_side: usize,
    /// `batch-fine-pN`: grid side, permuted path, small scans and sorts.
    pub fine_grid_side: usize,
    pub fine_path: usize,
    pub fine_scans: usize,
    pub fine_sorts: usize,
    pub fine_sort_len: usize,
    /// `serve-tiny-closed`: distinct pre-generated jobs.
    pub tiny_templates: usize,
    /// `serve-mixed-open`: shared graph, per-class input sizes and counts.
    pub mixed_vertices: usize,
    pub mixed_edges: usize,
    pub mixed_scan: usize,
    pub mixed_sort: usize,
    pub mixed_templates: usize,
    /// Kernel probes for layers a workload does not call (traced pass only).
    pub probe_vertices: usize,
    pub probe_edges: usize,
    pub probe_sort: usize,
    pub probe_karatsuba: usize,
    pub probe_dp_side: usize,
    /// Blocked-primitive probes (`core.*_ns_per_elem`).
    pub probe_primitive: usize,
    /// Untimed rounds before the first timed one (to arena fixpoint).
    pub warmup_rounds: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        large_vertices: 1 << 17,
        large_edges: 1 << 20,
        large_sort: 1 << 19,
        large_karatsuba: 4096,
        large_scan: 1 << 21,
        large_dp_side: 384,
        fine_grid_side: 384,
        fine_path: 1 << 15,
        fine_scans: 512,
        fine_sorts: 32,
        fine_sort_len: 2048,
        tiny_templates: 4096,
        mixed_vertices: 1 << 14,
        mixed_edges: 1 << 16,
        mixed_scan: 4096,
        mixed_sort: 16384,
        mixed_templates: 64,
        probe_vertices: 1 << 14,
        probe_edges: 1 << 16,
        probe_sort: 1 << 16,
        probe_karatsuba: 1024,
        probe_dp_side: 128,
        probe_primitive: 1 << 21,
        warmup_rounds: 2,
    };

    pub const SMOKE: Sizes = Sizes {
        large_vertices: 1 << 11,
        large_edges: 1 << 14,
        large_sort: 1 << 13,
        large_karatsuba: 256,
        large_scan: 1 << 15,
        large_dp_side: 48,
        fine_grid_side: 32,
        fine_path: 1 << 10,
        fine_scans: 32,
        fine_sorts: 4,
        fine_sort_len: 512,
        tiny_templates: 256,
        mixed_vertices: 1 << 10,
        mixed_edges: 1 << 12,
        mixed_scan: 1024,
        mixed_sort: 2048,
        mixed_templates: 8,
        probe_vertices: 1 << 9,
        probe_edges: 1 << 11,
        probe_sort: 1 << 11,
        probe_karatsuba: 128,
        probe_dp_side: 24,
        probe_primitive: 1 << 14,
        warmup_rounds: 1,
    };
}

/// Distributions and counters only a served workload has.
#[derive(Default)]
pub struct ServeDetail {
    /// `submit()` call → return.
    pub submit: Histogram,
    /// `submit()` return → body's first statement.
    pub queue: Histogram,
    /// Body's first → last statement.
    pub body: Histogram,
    /// Body's last statement → the generator holds the report.
    pub report: Histogram,
    /// Latency minus body.
    pub overhead: Histogram,
    /// How late the open-loop generator sent, against the schedule.
    pub late: Histogram,
    pub rejected: u64,
    pub retries: u64,
    pub queue_peak: u64,
    pub fairness_ratio: f64,
}

/// One measured pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Jobs attempted: batch rounds, or served jobs sent.
    pub attempted: u64,
    /// Jobs that did not complete with their twin's digest.
    pub failed: u64,
    /// The run itself cannot be trusted: the open-loop generator was starved.
    /// The process then exits non-zero.
    pub starved: bool,
    /// Digest-correct jobs per second: batch, of pool-side time; served, in
    /// the median one-second window.
    pub jobs_per_s: f64,
    pub time_vs_seq: f64,
    /// Median and 90th percentile (capped at ten samples beyond) of the
    /// latency: over the rounds of a batch pass; of a served pass's median
    /// one-second window.
    pub latency_p50_ns: f64,
    pub latency_p90_ns: f64,
    /// Nanoseconds, every job of the pass: pool-side time of a round, or due
    /// time → body end.
    pub latency: Histogram,
    /// Pool counters over the pass (schedule-independent: forks, elided).
    pub pool: MetricsSnapshot,
    /// The fields below are filled by a traced pass only.
    pub allocations: u64,
    /// CPU and wall time of the part the pool side is busy in (batch: the
    /// pool-side calls; served: the whole pass), and the twin's CPU time for
    /// the same jobs.
    pub busy_cpu_ns: u64,
    pub busy_wall_ns: u64,
    pub twin_cpu_ns: u64,
    pub voluntary_switches: u64,
    pub serve: Option<ServeDetail>,
}

#[allow(clippy::large_enum_variant)] // one value per process
pub enum Workload {
    Batch(Batch),
    Served(Served),
}

impl Workload {
    /// Everything before the first timed job: generate inputs from `seed`,
    /// start the pool or service, pin threads, warm up, run every twin once.
    pub fn setup(id: Id, seed: u64, sizes: &Sizes) -> Workload {
        match id {
            Id::BatchLargeP1 | Id::BatchLargePN | Id::BatchFinePN => {
                Workload::Batch(Batch::setup(id, seed, sizes))
            }
            Id::ServeTinyClosed | Id::ServeMixedOpen => {
                Workload::Served(Served::setup(id, seed, sizes))
            }
        }
    }

    /// Measure for `seconds`; with a tracer, record spans and the
    /// traced-only fields of [`Pass`].
    pub fn run(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Pass {
        match self {
            Workload::Batch(b) => b.run(seconds, tracer),
            Workload::Served(s) => s.run(seconds, tracer),
        }
    }

    /// Processors of the pool the workload runs on (what probes match).
    pub fn processors(&self) -> usize {
        match self {
            Workload::Batch(b) => b.processors(),
            Workload::Served(s) => s.processors(),
        }
    }
}
