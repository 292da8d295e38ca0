//! Experiment E16 — trace capture and deterministic replay, closing the
//! loop between the real `PalPool` and the `crates/sim` scheduler model.
//!
//! The pool's tracer (`PalPoolBuilder::trace`) records every fork/spawn
//! call site, every scheduled child's Enter/Exit worker and one `Pass`
//! marker per blocked data-parallel pass.  That structure is
//! schedule-independent for the level-synchronous BFS of `lopram-graph`
//! (the E14 shape): frontier sets, candidate-buffer lengths and therefore
//! every pass's chunk count are pure functions of `(graph, src, p, grain)`.
//! So a trace captured at one configuration must *predict the fork count of
//! any other configuration exactly* — `lopram_sim::TraceReplay` recounts
//! each recorded pass under the new `(p, grain)` with the same
//! `policy::pass_chunks` / `policy::grain_size` the pool itself calls.  Steal and speedup
//! predictions come from replaying the capture through the step-accurate
//! §3.1 simulator (`migrations` is the model's steal counter); at `p = 1`
//! the prediction is structurally steal-free.
//!
//! The sweep: capture BFS on a seeded `G(n, m)` at `p ∈ {1, 2, 4}`
//! (adaptive grain), then predict every `(p′, grain′)` in
//! `{1, 2, 4} × {adaptive, fixed-64}` from every capture and run a fresh,
//! *measured* pool at the predicted configuration next to it.  Everything
//! lands in `BENCH_trace_replay.json`, the committed cross-PR baseline the
//! `bench-baseline` CI job gates on.
//!
//! `--smoke` (and the full run — the checks are cheap) asserts:
//! * every capture is complete (`dropped == 0`) and its
//!   [`DagTrace::summary`] reproduces the pool's `RunMetrics` exactly
//!   (forks / elided / spawned / inlined / steals);
//! * the text serialization round-trips losslessly;
//! * replay at the capture configuration returns the recorded fork and
//!   steal totals; replay at `p = 1` predicts zero steals;
//! * replay-predicted fork counts equal the measured fork counts of a
//!   fresh pool for **every** capture × prediction cell.
//!
//! [`DagTrace::summary`]: lopram_core::DagTrace::summary

use lopram_core::{DagTrace, PalPool, TraceConfig};
use lopram_graph::prelude::*;
use lopram_sim::replay::{ReplayGrain, TraceReplay};

/// One cross-validation cell: a capture replayed at a configuration next
/// to a fresh pool measured at that configuration.
struct Row {
    capture_p: usize,
    predict_p: usize,
    grain: &'static str,
    predicted_forks: u64,
    measured_forks: u64,
    predicted_steals: u64,
    measured_steals: u64,
    predicted_speedup: f64,
    at_capture_config: bool,
}

/// The two grain policies the sweep predicts under, with their pool-side
/// builders kept in lockstep with the replay-side [`ReplayGrain`].
const GRAINS: [(&str, ReplayGrain); 2] = [
    ("adaptive", ReplayGrain::Adaptive),
    ("fixed64", ReplayGrain::Fixed(64)),
];

fn pool_for(p: usize, grain: ReplayGrain, trace: bool) -> PalPool {
    let mut builder = PalPool::builder().processors(p);
    if let ReplayGrain::Fixed(min) = grain {
        builder = builder.grain(min);
    }
    if trace {
        builder = builder.trace(TraceConfig::default());
    }
    builder.build().expect("p >= 1")
}

/// Capture one traced BFS run; returns the verified trace.
fn capture(graph: &CsrGraph, p: usize, expected: &[usize]) -> DagTrace {
    let pool = pool_for(p, ReplayGrain::Adaptive, true);
    let dist = bfs_par(graph, &pool, 0);
    assert_eq!(dist, expected, "traced BFS diverged at p = {p}");
    let m = pool.metrics().snapshot();
    let trace = pool.take_trace().expect("pool was built with tracing on");
    assert!(
        trace.is_complete(),
        "capture at p = {p} dropped {} events — raise TraceConfig capacity",
        trace.dropped
    );
    let s = trace.summary();
    assert_eq!(s.forks, m.forks(), "p = {p}: trace forks vs RunMetrics");
    assert_eq!(s.elided, m.elided, "p = {p}: trace elided vs RunMetrics");
    assert_eq!(s.spawned, m.spawned, "p = {p}: trace spawned vs RunMetrics");
    assert_eq!(s.inlined, m.inlined, "p = {p}: trace inlined vs RunMetrics");
    assert_eq!(s.steals, m.steals, "p = {p}: trace steals vs RunMetrics");
    assert_eq!(
        s.unclassified, 0,
        "p = {p}: a quiesced capture classifies all"
    );
    // The serialized format is the stability contract: round-trip every
    // capture through it before replaying.
    let roundtrip = DagTrace::from_text(&trace.to_text()).expect("self-produced text parses");
    assert_eq!(
        roundtrip, trace,
        "p = {p}: text round-trip must be lossless"
    );
    trace
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Both sizes have BFS levels on either side of the default policy's
    // wake floor, so adaptive captures hold forking and one-block passes.
    let (n, m) = if smoke {
        (1 << 13, 1 << 16)
    } else {
        (1 << 14, 1 << 16)
    };
    let graph = gnm(n, m, 42);
    let expected = bfs_seq(&graph, 0);
    let depth = levels(&expected);
    println!(
        "Trace replay — BFS on G({n}, {m}), {depth} levels; capture p in {{1, 2, 4}}, \
         predict (p, grain) in {{1, 2, 4}} x {{adaptive, fixed64}}\n"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut total_events = 0usize;
    for &capture_p in &[1usize, 2, 4] {
        let trace = capture(&graph, capture_p, &expected);
        total_events += trace.events.len();
        let replay = TraceReplay::from_trace(trace);
        let recorded = replay.recorded();

        // Replaying at the capture configuration is the identity.
        let same = replay.predict(capture_p, 2.0, ReplayGrain::Adaptive);
        assert!(
            same.at_capture_config,
            "capture p = {capture_p}: (p, cutoff, grain) must be recognised as the capture config"
        );
        assert_eq!(same.forks, recorded.forks, "identity replay: forks");
        assert_eq!(same.steals, recorded.steals, "identity replay: steals");

        for &(grain_name, grain) in &GRAINS {
            for &predict_p in &[1usize, 2, 4] {
                let prediction = replay.predict(predict_p, 2.0, grain);
                if predict_p == 1 {
                    assert_eq!(
                        prediction.steals, 0,
                        "one processor cannot steal, measured or replayed"
                    );
                    assert!(
                        (prediction.speedup() - 1.0).abs() < 1e-12,
                        "p = 1 replays sequentially"
                    );
                }
                // The measured twin: a fresh untraced pool at exactly the
                // predicted configuration.
                let pool = pool_for(predict_p, grain, false);
                let dist = bfs_par(&graph, &pool, 0);
                assert_eq!(dist, expected, "measured BFS diverged at p = {predict_p}");
                let measured = pool.metrics().snapshot();
                assert_eq!(
                    prediction.forks,
                    measured.forks(),
                    "capture p = {capture_p} -> predict (p = {predict_p}, {grain_name}): \
                     replay-predicted forks must match the schedule-independent accounting"
                );
                rows.push(Row {
                    capture_p,
                    predict_p,
                    grain: grain_name,
                    predicted_forks: prediction.forks,
                    measured_forks: measured.forks(),
                    predicted_steals: prediction.steals,
                    measured_steals: measured.steals,
                    predicted_speedup: prediction.speedup(),
                    at_capture_config: prediction.at_capture_config,
                });
            }
        }
    }

    println!(
        "{:<10} {:<10} {:<9} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "capture_p",
        "predict_p",
        "grain",
        "pred_fork",
        "meas_fork",
        "pred_stl",
        "meas_stl",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:<10} {:<9} {:>10} {:>10} {:>9} {:>9} {:>8.2}",
            r.capture_p,
            r.predict_p,
            r.grain,
            r.predicted_forks,
            r.measured_forks,
            r.predicted_steals,
            r.measured_steals,
            r.predicted_speedup,
        );
    }
    println!("\nReading: pred_fork == meas_fork on every row because BFS pass lengths are pure");
    println!("functions of the input and every BFS fork is a blocked-pass fork the replayer");
    println!("recounts under the target (p, grain); steal columns agree only in expectation —");
    println!("the measured one is racy, the predicted one is the simulator's deterministic");
    println!("migration count (and the recorded total at the capture configuration).");

    // -- JSON baseline -----------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"trace_replay\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"workload\": {{\"kernel\": \"bfs\", \"graph\": \"gnm\", \"n\": {n}, \"m\": {m}, \"levels\": {depth}}},\n"
    ));
    json.push_str(&format!("  \"trace_events_total\": {total_events},\n"));
    json.push_str("  \"dropped\": 0,\n");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"capture_p\": {}, \"predict_p\": {}, \"grain\": \"{}\", \
             \"predicted_forks\": {}, \"measured_forks\": {}, \"predicted_steals\": {}, \
             \"measured_steals\": {}, \"predicted_speedup\": {:.4}, \"at_capture_config\": {}}}{comma}\n",
            r.capture_p,
            r.predict_p,
            r.grain,
            r.predicted_forks,
            r.measured_forks,
            r.predicted_steals,
            r.measured_steals,
            r.predicted_speedup,
            r.at_capture_config,
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    // Smoke runs write to their own (gitignored) file: the committed
    // BENCH_trace_replay.json is the full-size baseline.
    let default_out = if smoke {
        "BENCH_trace_replay.smoke.json"
    } else {
        "BENCH_trace_replay.json"
    };
    let out = std::env::var("LOPRAM_BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    std::fs::write(&out, &json).expect("write benchmark baseline");
    println!("\nwrote {out}");

    if smoke {
        println!(
            "smoke: OK ({} rows, {} trace events, fork prediction exact on every cell)",
            rows.len(),
            total_events
        );
    }
}
