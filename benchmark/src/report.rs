//! Metric names, units, directions and bounds (the tables `BENCHMARK.json`
//! repeats, held to them by a test), how each value is derived from a pass,
//! the result line, and the `compare` report.

use crate::json::Json;
use crate::probes;
use crate::stats::{median, quartile_spread};
use crate::trace::Tracer;
use crate::workload::{Id, Pass};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction, and the share of the parent's
/// median by which a change may worsen the metric before it is a regression.
/// One bound per metric covers all five workloads, so each is set by the
/// noisiest workload (README, "Bounds").
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("time_vs_seq", "ratio", Lower, 0.15),
    ("latency_p50_ms", "ms", Lower, 0.25),
    ("latency_p90_ms", "ms", Lower, 0.25),
    ("jobs_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, outermost layer last.  No bounds: they explain an
/// end-to-end movement, they do not gate.
pub const PER_LAYER: [(&str, &str, Better); 47] = [
    ("runtime.deque_push_pop_ns", "ns", Lower),
    ("runtime.deque_steal_ns", "ns", Lower),
    ("runtime.join_ns_per_fork", "ns", Lower),
    ("runtime.install_roundtrip_us", "us", Lower),
    ("runtime.spurious_wakeups", "count", Lower),
    ("runtime.vol_ctx_switches_per_job", "count", Lower),
    ("runtime.cpu_per_wall", "ratio", Higher),
    ("core.join_ns_per_fork", "ns", Lower),
    ("core.scan_ns_per_elem", "ns", Lower),
    ("core.pack_ns_per_elem", "ns", Lower),
    ("core.expand_ns_per_elem", "ns", Lower),
    ("core.scan_small_us_per_call", "us", Lower),
    ("core.forks_per_job", "count", Lower),
    ("core.elided_per_job", "count", Higher),
    ("core.spawned_per_job", "count", Lower),
    ("core.inlined_per_job", "count", Lower),
    ("core.steals_per_job", "count", Lower),
    ("core.arena_bytes_warm", "bytes", Lower),
    ("core.allocs_per_job", "count", Lower),
    ("core.cpu_vs_seq", "ratio", Lower),
    ("graph.bfs_ns_per_arc", "ns", Lower),
    ("graph.bfs_seq_ns_per_arc", "ns", Lower),
    ("graph.bfs_vs_seq", "ratio", Lower),
    ("graph.bfs_us_per_level", "us", Lower),
    ("graph.cc_ns_per_edge", "ns", Lower),
    ("graph.cc_seq_ns_per_edge", "ns", Lower),
    ("graph.cc_vs_seq", "ratio", Lower),
    ("dnc.mergesort_ns_per_elem", "ns", Lower),
    ("dnc.mergesort_vs_seq", "ratio", Lower),
    ("dnc.karatsuba_ms", "ms", Lower),
    ("dnc.karatsuba_vs_seq", "ratio", Lower),
    ("dp.wavefront_ns_per_cell", "ns", Lower),
    ("dp.wavefront_vs_seq", "ratio", Lower),
    ("serve.submit_us_p50", "us", Lower),
    ("serve.queue_us_p50", "us", Lower),
    ("serve.queue_us_p90", "us", Lower),
    ("serve.body_us_p50", "us", Lower),
    ("serve.report_us_p50", "us", Lower),
    ("serve.overhead_us_p50", "us", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.retries", "count", Lower),
    ("serve.queue_peak", "count", Lower),
    ("serve.fairness_ratio", "ratio", Lower),
    ("serve.latency_p99_ms", "ms", Lower),
    ("serve.latency_p999_ms", "ms", Lower),
    ("gen.late_us_p99", "us", Lower),
    ("trace.overhead_share", "share", Lower),
];

pub type Metrics = Vec<(&'static str, f64)>;

/// The end-to-end metrics of an untraced pass, in [`END_TO_END`] order.
///
/// `latency_p90_ms` is the 90th percentile, or the highest percentile with
/// ten samples beyond it when a batch run has fewer than a hundred rounds.
pub fn end_to_end(pass: &Pass, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    vec![
        ("setup_s", setup_s),
        ("time_vs_seq", pass.time_vs_seq),
        ("latency_p50_ms", pass.latency_p50_ns / 1e6),
        ("latency_p90_ms", pass.latency_p90_ns / 1e6),
        ("jobs_per_s", pass.jobs_per_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Median over the spans called `name` of nanoseconds per unit; 0 without spans.
fn ns_per_unit(tracer: &Tracer, name: &str) -> f64 {
    let samples: Vec<f64> = tracer
        .named(name)
        .filter(|s| s.units > 0)
        .map(|s| s.ns() as f64 / s.units as f64)
        .collect();
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything a traced run measured, from which the per-layer metrics derive.
pub struct Traced<'a> {
    /// The untraced pass of the same length, run first in the same process.
    pub reference: &'a Pass,
    pub traced: &'a Pass,
    pub tracer: &'a Tracer,
    pub runtime: &'a probes::Runtime,
    pub core: &'a probes::Core,
    /// The pass the `serve.*` rows read: the traced pass itself on a served
    /// workload, a short traced `serve-tiny-closed` pass on a batch workload.
    pub served: &'a Pass,
}

/// Schedule-independent counts per job; they must repeat bit for bit.
pub fn exact_counts(pass: &Pass) -> (f64, f64) {
    let jobs = pass.attempted.max(1) as f64;
    (
        pass.pool.forks() as f64 / jobs,
        pass.pool.elided as f64 / jobs,
    )
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(t: &Traced) -> Metrics {
    let pass = t.traced;
    let serve = t
        .served
        .serve
        .as_ref()
        .expect("a served pass carries its detail");
    let jobs = pass.attempted.max(1) as f64;
    let (forks_per_job, elided_per_job) = exact_counts(pass);
    let spans = |name| ns_per_unit(t.tracer, name);
    let (bfs_ns, bfs_levels) = t
        .tracer
        .named("graph.bfs_par")
        .fold((0, 0), |(ns, levels), s| (ns + s.ns(), levels + s.aux));
    let karatsuba_ns: Vec<f64> = t
        .tracer
        .named("dnc.karatsuba_mul")
        .map(|s| s.ns() as f64)
        .collect();
    vec![
        ("runtime.deque_push_pop_ns", t.runtime.deque_push_pop_ns),
        ("runtime.deque_steal_ns", t.runtime.deque_steal_ns),
        ("runtime.join_ns_per_fork", t.runtime.join_ns_per_fork),
        (
            "runtime.install_roundtrip_us",
            t.runtime.install_roundtrip_us,
        ),
        ("runtime.spurious_wakeups", t.runtime.spurious_wakeups),
        (
            "runtime.vol_ctx_switches_per_job",
            pass.voluntary_switches as f64 / jobs,
        ),
        (
            "runtime.cpu_per_wall",
            ratio(pass.busy_cpu_ns as f64, pass.busy_wall_ns as f64),
        ),
        ("core.join_ns_per_fork", t.core.join_ns_per_fork),
        ("core.scan_ns_per_elem", t.core.scan_ns_per_elem),
        ("core.pack_ns_per_elem", t.core.pack_ns_per_elem),
        ("core.expand_ns_per_elem", t.core.expand_ns_per_elem),
        ("core.scan_small_us_per_call", t.core.scan_small_us_per_call),
        ("core.forks_per_job", forks_per_job),
        ("core.elided_per_job", elided_per_job),
        ("core.spawned_per_job", pass.pool.spawned as f64 / jobs),
        ("core.inlined_per_job", pass.pool.inlined as f64 / jobs),
        ("core.steals_per_job", pass.pool.steals as f64 / jobs),
        // Signed net growth of the arena over the (warmed-up) traced pass.
        ("core.arena_bytes_warm", pass.pool.arena_bytes as i64 as f64),
        ("core.allocs_per_job", pass.allocations as f64 / jobs),
        (
            "core.cpu_vs_seq",
            ratio(pass.busy_cpu_ns as f64, pass.twin_cpu_ns as f64),
        ),
        ("graph.bfs_ns_per_arc", spans("graph.bfs_par")),
        ("graph.bfs_seq_ns_per_arc", spans("twin.bfs_seq")),
        (
            "graph.bfs_vs_seq",
            ratio(spans("graph.bfs_par"), spans("twin.bfs_seq")),
        ),
        (
            "graph.bfs_us_per_level",
            ratio(bfs_ns as f64 / 1e3, bfs_levels as f64),
        ),
        ("graph.cc_ns_per_edge", spans("graph.components_union_find")),
        ("graph.cc_seq_ns_per_edge", spans("twin.components_seq")),
        (
            "graph.cc_vs_seq",
            ratio(
                spans("graph.components_union_find"),
                spans("twin.components_seq"),
            ),
        ),
        ("dnc.mergesort_ns_per_elem", spans("dnc.merge_sort")),
        (
            "dnc.mergesort_vs_seq",
            ratio(spans("dnc.merge_sort"), spans("twin.merge_sort_seq")),
        ),
        (
            "dnc.karatsuba_ms",
            if karatsuba_ns.is_empty() {
                0.0
            } else {
                median(&karatsuba_ns) / 1e6
            },
        ),
        (
            "dnc.karatsuba_vs_seq",
            ratio(spans("dnc.karatsuba_mul"), spans("twin.karatsuba_mul_seq")),
        ),
        ("dp.wavefront_ns_per_cell", spans("dp.solve_wavefront")),
        (
            "dp.wavefront_vs_seq",
            ratio(spans("dp.solve_wavefront"), spans("twin.solve_sequential")),
        ),
        ("serve.submit_us_p50", serve.submit.quantile_us(0.5)),
        ("serve.queue_us_p50", serve.queue.quantile_us(0.5)),
        ("serve.queue_us_p90", serve.queue.quantile_us(0.9)),
        ("serve.body_us_p50", serve.body.quantile_us(0.5)),
        ("serve.report_us_p50", serve.report.quantile_us(0.5)),
        ("serve.overhead_us_p50", serve.overhead.quantile_us(0.5)),
        ("serve.rejected", serve.rejected as f64),
        ("serve.retries", serve.retries as f64),
        ("serve.queue_peak", serve.queue_peak as f64),
        ("serve.fairness_ratio", serve.fairness_ratio),
        // Informational: capped at the highest percentile with ten samples
        // beyond it, and unresolved on this container (README).
        ("serve.latency_p99_ms", t.served.latency.quantile_ms(0.99)),
        ("serve.latency_p999_ms", t.served.latency.quantile_ms(0.999)),
        ("gen.late_us_p99", serve.late.quantile_us(0.99)),
        (
            "trace.overhead_share",
            ratio(
                pass.latency.quantile(0.5),
                t.reference.latency.quantile(0.5),
            ) - 1.0,
        ),
    ]
}

/// The one line a run prints last: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every metric with its unit from the tables above.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .map(|&(n, u, ..)| (n, u))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .find(|&(n, _)| n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is in no table"))
    };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value)| {
                let fields = [
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit(name).into())),
                ];
                (name, Json::obj(fields))
            })),
        ),
    ])
}

/// Values of `metric` on `workload` over the untraced runs of a result file.
fn cell(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Per end-to-end metric × workload: both medians, how much worse `b` is
/// than `a` as a share of `a`, the bound, and each side's quartile spread
/// where it has four runs or more.  A cell is flagged `WORSE` when `b` is
/// worse by more than the bound, and `unresolved` when either side's spread
/// exceeds the bound.  Returns the table and the number of `WORSE` cells.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut out = format!(
        "{:<18} {:<15} {:>12} {:>12} {:>8} {:>7} {:>9} {:>9}\n",
        "workload", "metric", "a", "b", "worse%", "bound%", "spread_a%", "spread_b%"
    );
    let mut worse_cells = 0;
    for id in Id::ALL {
        for (metric, _, better, bound) in END_TO_END {
            let (va, vb) = (cell(a, id.name(), metric), cell(b, id.name(), metric));
            if va.is_empty() || vb.is_empty() {
                out += &format!("{:<18} {:<15} (missing on one side)\n", id.name(), metric);
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = match better {
                Lower => (mb - ma) / ma,
                Higher => (ma - mb) / ma,
            };
            let spread = |v: &[f64]| (v.len() >= 4).then(|| quartile_spread(v));
            let (sa, sb) = (spread(&va), spread(&vb));
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", s * 100.0));
            let flag = if worse > bound {
                worse_cells += 1;
                "  WORSE"
            } else if [sa, sb].into_iter().flatten().any(|s| s > bound) {
                "  unresolved"
            } else {
                ""
            };
            out += &format!(
                "{:<18} {:<15} {:>12.5} {:>12.5} {:>8.2} {:>7.1} {:>9} {:>9}{}\n",
                id.name(),
                metric,
                ma,
                mb,
                worse * 100.0,
                bound * 100.0,
                show(sa),
                show(sb),
                flag
            );
        }
    }
    (out, worse_cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: f64, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("trace", Json::Num(trace)),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|&(n, v)| (n, Json::obj([("value", Json::Num(v))]))),
                ),
            ),
        ])
    }

    fn results(runs: Vec<Json>) -> Json {
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_flags_only_cells_beyond_their_bound() {
        let a = results(vec![
            run(
                "batch-large-p1",
                0.0,
                &[("time_vs_seq", 0.80), ("jobs_per_s", 10.0)],
            ),
            run("batch-large-p1", 1.0, &[("time_vs_seq", 9.0)]),
        ]);
        let b = results(vec![run(
            "batch-large-p1",
            0.0,
            &[("time_vs_seq", 0.95), ("jobs_per_s", 9.5)],
        )]);
        let (table, worse) = compare(&a, &b);
        // 0.80 → 0.95 is 18.75% worse (bound 15%); 10 → 9.5 jobs/s is 5% worse.
        assert_eq!(worse, 1, "{table}");
        let flagged: Vec<&str> = table.lines().filter(|l| l.contains("WORSE")).collect();
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].contains("time_vs_seq") && flagged[0].contains("18.75"));
        // The traced run's value (9.0) took no part.
        assert_eq!(cell(&a, "batch-large-p1", "time_vs_seq"), vec![0.80]);
        // An improvement is never flagged.
        assert_eq!(compare(&b, &a).1, 0);
    }

    #[test]
    fn compare_marks_wide_spreads_unresolved() {
        let noisy = [1.0, 1.5, 2.0, 2.5, 3.0]
            .map(|v| run("serve-mixed-open", 0.0, &[("latency_p50_ms", v)]));
        let a = results(noisy.to_vec());
        let (table, worse) = compare(&a, &a);
        assert_eq!(worse, 0);
        assert!(table
            .lines()
            .any(|l| l.contains("latency_p50_ms") && l.contains("unresolved")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            7,
            0,
            &vec![("setup_s", 0.5), ("core.forks_per_job", 12.0)],
        );
        let Json::Obj(fields) = &line else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(Json::parse(&line.encode()).unwrap(), line);
    }

    /// `BENCHMARK.json` repeats the tables of this file; the driver reads
    /// the file, `compare` reads the tables, so they must not drift.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| spec.get(key).unwrap().as_arr().unwrap().to_vec();
        let text = |v: &Json, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();
        let better = |b: Better| if b == Lower { "lower" } else { "higher" }.to_string();

        assert_eq!(
            spec.get("run_seconds").unwrap().as_f64(),
            Some(f64::from(crate::DEFAULT_SECONDS))
        );
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Id::ALL.map(|id| id.name().to_string()));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), better(b), bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), better(b)))
            .collect();
        assert_eq!(per_layer, expected);
    }
}
