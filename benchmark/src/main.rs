//! The LoPRAM benchmark: one command that builds the program from source,
//! runs one workload for a fixed time, checks every job against its
//! sequential twin and prints every metric by name.  See README.md.
//!
//! ```text
//! lopram-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! lopram-benchmark suite [--seed <u64>] [--seconds <n>] [--repeat <k>] [--smoke] [--out <file>]
//! lopram-benchmark compare <a.json> <b.json>
//! lopram-benchmark trace <trace.jsonl>
//! ```

mod batch;
mod json;
mod kernels;
mod probes;
mod report;
mod served;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use report::Metrics;
use trace::Tracer;
use workload::{Id, Pass, Sizes, Workload};

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 15;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of the smoke pass and of the kernel and serve probes of a traced run.
const SHORT_S: f64 = 0.25;

const USAGE: &str = "usage:
  lopram-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
  lopram-benchmark suite [--seed <u64>] [--seconds <n>] [--repeat <k>] [--smoke] [--out <file>]
  lopram-benchmark compare <a.json> <b.json>
  lopram-benchmark trace <trace.jsonl>
workloads: batch-large-p1 batch-large-pN batch-fine-pN serve-tiny-closed serve-mixed-open";

/// Where traces and suite results go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a run reports besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Every job matched its twin, the run was valid, exact counts repeated.
    correct: bool,
    metrics: Metrics,
}

/// One untraced run: set up [`SETUPS`] times, measure for `seconds`, report
/// the end-to-end metrics.
fn run_untraced(id: Id, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // One at a time: two live copies would double the peak RSS.
        drop(workload.take());
        let start = sys::now_ns();
        workload = Some(Workload::setup(id, seed, sizes));
        setups.push((sys::now_ns() - start) as f64 / 1e9);
    }
    let pass = workload.expect("SETUPS > 0").run(seconds, None);
    Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        correct: pass.failed == 0 && !pass.starved,
        metrics: report::end_to_end(&pass, stats::median(&setups), sys::peak_rss_mib()),
    }
}

/// One traced run: an untraced reference pass and a traced pass of
/// `seconds / 2` each on one set-up, then the probes at the workload's
/// processor count.  Writes `trace-<workload>.jsonl` into `out`.
fn run_traced(id: Id, seed: u64, seconds: f64, sizes: &Sizes, out: &Path) -> Outcome {
    let mut tracer = Tracer::default();
    let mut workload = Workload::setup(id, seed, sizes);
    let reference = workload.run(seconds / 2.0, None);
    let traced = workload.run(seconds / 2.0, Some(&mut tracer));
    let p = workload.processors();
    drop(workload);

    // Kernel layers this workload never called get one probe round each.
    let items = batch::probe_items(&tracer, seed, sizes);
    if !items.is_empty() {
        batch::Batch::with_items(p, items, 1, "probe.round").run(SHORT_S, Some(&mut tracer));
    }
    let serve_probe: Option<Pass> = traced.serve.is_none().then(|| {
        Workload::setup(Id::ServeTinyClosed, seed, sizes).run(SHORT_S, Some(&mut Tracer::default()))
    });
    let runtime = probes::runtime(p);
    let core = probes::core(p, sizes.probe_primitive);

    let path = out.join(format!("trace-{}.jsonl", id.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    let counts_repeat = report::exact_counts(&reference) == report::exact_counts(&traced);
    if !counts_repeat {
        eprintln!(
            "forks/elided per job differ between passes: {:?} untraced, {:?} traced",
            report::exact_counts(&reference),
            report::exact_counts(&traced)
        );
    }
    Outcome {
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        correct: reference.failed + traced.failed == 0
            && !reference.starved
            && !traced.starved
            && counts_repeat,
        metrics: report::per_layer(&report::Traced {
            reference: &reference,
            traced: &traced,
            tracer: &tracer,
            runtime: &runtime,
            core: &core,
            served: serve_probe.as_ref().unwrap_or(&traced),
        }),
    }
}

/// Arguments as `--key value` pairs plus bare flags and positionals.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {key}: {text}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn sizes_and_seconds(args: &Args, seconds: f64) -> (Sizes, f64) {
    if args.flag("--smoke") {
        (Sizes::SMOKE, SHORT_S)
    } else {
        (Sizes::FULL, seconds)
    }
}

/// The driver's entry point: one workload, one result line, last on stdout.
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or(USAGE)?;
    let id = Id::parse(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: u32 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace: u8 = args.parsed("--trace", 0)?;
    let (sizes, seconds) = sizes_and_seconds(args, f64::from(seconds));
    let outcome = match trace {
        0 => run_untraced(id, seed, seconds, &sizes),
        1 => run_traced(id, seed, seconds, &sizes, &out_dir()),
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let width = outcome
        .metrics
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    for (name, value) in &outcome.metrics {
        eprintln!("{name:<width$}  {value}");
    }
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
        .encode()
    );
    Ok(exit_code(&outcome))
}

/// Non-zero when a job disagreed with its twin, the run was invalid, or an
/// exact count did not repeat: a wrong program must not produce a baseline.
fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All five workloads in their fixed order, each run in a fresh process:
/// the untraced run at full length, then the traced run at a quarter of it.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: u32 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let repeat: u64 = args.parsed("--repeat", 1)?;
    let out = args
        .value("--out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in seed..seed + repeat {
        for id in Id::ALL {
            for (trace, seconds) in [(0, seconds), (1, (seconds / 4).max(1))] {
                let mut command = Command::new(&exe);
                command.args(["--workload", id.name(), "--seed", &seed.to_string()]);
                command.args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ]);
                if args.flag("--smoke") {
                    command.arg("--smoke");
                }
                // `output` waits for the child, so none outlives the suite.
                let output = command
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let Ok(Json::Obj(mut fields)) = Json::parse(line) else {
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    return Err(format!(
                        "{} (trace {trace}) printed no result line",
                        id.name()
                    ));
                };
                let correct = fields
                    .iter()
                    .any(|(k, v)| k == "correct" && *v == Json::Bool(true));
                all_correct &= correct && output.status.success();
                println!(
                    "== {} seed {seed} trace {trace}: {}",
                    id.name(),
                    if correct { "correct" } else { "FAILED" }
                );
                print!("{}", String::from_utf8_lossy(&output.stderr));
                fields.splice(
                    0..0,
                    [
                        ("workload".to_string(), Json::Str(id.name().into())),
                        ("seed".to_string(), Json::Num(seed as f64)),
                        ("seconds".to_string(), Json::Num(f64::from(seconds))),
                        ("trace".to_string(), Json::Num(f64::from(trace))),
                    ],
                );
                runs.push(Json::Obj(fields));
            }
        }
    }
    let results = Json::obj([
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, results.encode() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare <a.json> <b.json>`: the A/B table; non-zero when a cell is worse
/// than its bound allows.
fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.into());
    };
    let (table, worse) = report::compare(&read_json(a)?, &read_json(b)?);
    print!("{table}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace <trace.jsonl>`: count, total and self time per layer and span name.
fn trace_summary(paths: &[String]) -> Result<ExitCode, String> {
    let [path] = paths else {
        return Err(USAGE.into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    println!(
        "{:<44} {:>8} {:>14} {:>14}",
        "layer    span", "count", "total_ms", "self_ms"
    );
    for (label, count, total, own) in trace::summarize(&text)? {
        let (total, own) = (total as f64 / 1e6, own as f64 / 1e6);
        println!("{label:<44} {count:>8} {total:>14.3} {own:>14.3}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    sys::now_ns();
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("suite") => suite(&args),
        Some("compare") => compare(&args.0[1..]),
        Some("trace") => trace_summary(&args.0[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_report_every_metric_of_their_table() {
        for id in Id::ALL {
            let untraced = run_untraced(id, 3, SHORT_S, &Sizes::SMOKE);
            // Not `correct`: next to other tests the generator may be starved.
            assert_eq!(untraced.failed, 0, "{}", id.name());
            let names: Vec<&str> = untraced.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, report::END_TO_END.map(|(n, ..)| n), "{}", id.name());
            // End-to-end metrics are never 0 (the driver divides by them).
            assert!(
                untraced
                    .metrics
                    .iter()
                    .all(|(_, v)| *v > 0.0 && v.is_finite()),
                "{:?}",
                untraced.metrics
            );
        }
    }

    #[test]
    fn smoke_traced_runs_report_every_layer() {
        let out =
            std::env::temp_dir().join(format!("lopram-benchmark-test-{}", std::process::id()));
        for id in [Id::BatchFinePN, Id::ServeMixedOpen] {
            let traced = run_traced(id, 3, 0.1, &Sizes::SMOKE, &out);
            assert_eq!(traced.failed, 0, "{}", id.name());
            let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, report::PER_LAYER.map(|(n, ..)| n), "{}", id.name());
            assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()));
            let value = |name: &str| traced.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            // Probed or called, every kernel layer has a number.
            for name in [
                "graph.bfs_vs_seq",
                "graph.cc_vs_seq",
                "dnc.mergesort_vs_seq",
                "dnc.karatsuba_ms",
                "dp.wavefront_vs_seq",
            ] {
                assert!(value(name) > 0.0, "{name} on {}", id.name());
            }
            assert!(out_dir()
                .join(format!("trace-{}.jsonl", id.name()))
                .exists());
        }
    }

    #[test]
    fn a_failed_job_makes_the_exit_code_non_zero() {
        let outcome = |failed| Outcome {
            attempted: 10,
            failed,
            correct: failed == 0,
            metrics: Vec::new(),
        };
        assert_eq!(exit_code(&outcome(0)), ExitCode::SUCCESS);
        assert_eq!(exit_code(&outcome(1)), ExitCode::FAILURE);
    }

    /// A standalone workspace does not inherit the root's `[profile.release]`;
    /// the benchmark must measure the build users get.
    #[test]
    fn release_profile_matches_root() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest).unwrap();
            let mut lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap()
                        .split_whitespace()
                        .collect::<String>()
                })
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let own = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(own, root);
    }
}
