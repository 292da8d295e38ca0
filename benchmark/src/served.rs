//! The `serve-*` workloads: the same kernel calls as job bodies of a
//! `JobService`, driven closed-loop (callers that wait for a reply) or
//! open-loop (independent users on a seeded Poisson schedule).
//!
//! One generator thread (the caller), one executor, and a pool of
//! `max(1, nproc − 1)` processors: runnable threads never exceed `nproc`,
//! so what is measured is the service, not the host's scheduler.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use lopram_graph::gen;
use lopram_serve::{JobReport, JobService, JobSpec, JobTicket, ServeConfig};

use crate::kernels::{Kernel, Rng, Scratch};
use crate::stats::{geomean, median, Histogram};
use crate::sys::{self, now_ns};
use crate::trace::{Tracer, NONE};
use crate::workload::{Id, Pass, ServeDetail, Sizes};

const TENANTS: usize = 3;
const TENANT_BUDGET: usize = 2;
/// ISSUE 11 said 96.  The open loop then fails jobs whenever the host stalls:
/// the arrivals that fell due during a stall of 150 ms are sent in one burst
/// after it, the tenant quota of a third of the capacity refuses the excess,
/// and a refused submission is a failed job (83 of 8950 in one sizing run).
/// 1024 rides out a stall of over a second; in normal operation the queue
/// never holds more than a few jobs either way.
const QUEUE_CAPACITY: usize = 1024;
/// Failed jobs a pass describes on stderr before it only counts them.
const FAILURES_SHOWN: u64 = 5;
/// Jobs the closed-loop generator keeps in flight.
const IN_FLIGHT: usize = 16;
/// Stamp slots; more than the jobs that can be outstanding at once
/// (queue capacity + the running one + those finished but not yet reaped).
const RING: usize = 2 * QUEUE_CAPACITY;

/// Offered load of `serve-mixed-open`, jobs per second.  Calibrated once, on
/// the commit that introduced the benchmark, to put the executor at 0.40–0.50
/// utilisation (see README, "Calibration"), and frozen: it is an absolute
/// rate, so both sides of an A/B serve the identical schedule.
pub const OPEN_LOOP_JOBS_PER_S: f64 = 600.0;
/// `serve-mixed-open` class shares in percent: scan, mergesort, BFS,
/// components.  Chosen so neither p50 nor p90 sits on a class boundary.
const MIXED_SHARES: [u64; 4] = [30, 40, 18, 12];

/// A served pass is cut into windows of this length (by due time).  Latency
/// percentiles and throughput are taken per window and the pass reports the
/// median window: something else using a CPU for a second or two (two runs in
/// ten on this container) then costs one or two windows, not the run's p90.
const WINDOW_NS: u64 = 1_000_000_000;

/// A send this late counts against its window's validity …
const LATE_NS: u64 = 1_000_000;
/// … a window is invalid when more than this share of its sends were …
const LATE_SHARE: f64 = 0.01;
/// … and the run when more than half of its windows are: a starved generator
/// is late all the time, a host stall only in the windows it hits.
fn too_many_late(windows: &[Window]) -> bool {
    let late = windows
        .iter()
        .filter(|w| w.late as f64 > LATE_SHARE * w.sent as f64)
        .count();
    2 * late > windows.len()
}

/// One job in this many runs the sequential twin in its body instead of the
/// pool call: the reference `time_vs_seq` divides by, measured on the
/// executor's CPU, in the same seconds and cache state as the bodies it is
/// compared with.  (Timed apart — at set-up, on the generator's CPU — the
/// twin read ±15% between identical runs while the bodies held ±3%.)
const TWIN_EVERY: u64 = 8;

/// Every `n`-th job of a traced pass gets its spans recorded; all jobs feed
/// the histograms.  Keeps a trace of millions of tiny jobs a few MB.  Prime,
/// so the sample takes pool and twin jobs in their true proportion.
const TINY_SPAN_STRIDE: u64 = 251;

/// Stamps a job body leaves for the generator.  `Relaxed` suffices: the
/// generator reads them only after taking the job's report, which the
/// service publishes under the ticket's mutex after the body returned.
#[derive(Default)]
struct Slot {
    body_start: AtomicU64,
    kernel_start: AtomicU64,
    kernel_end: AtomicU64,
    body_end: AtomicU64,
    levels: AtomicU64,
}

struct Template {
    kernel: Kernel,
    class: usize,
    /// The twin's digest of this input, from set-up.
    expected: u64,
}

/// What job bodies share with the generator.
struct Shared {
    templates: Vec<Template>,
    /// First template of each class, and one past the last class.
    class_start: Vec<usize>,
    ring: Vec<Slot>,
    /// One executor, so never contended; a mutex only because the body must be `Send`.
    scratch: Mutex<Scratch>,
}

/// One scheduled arrival of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub template: usize,
    /// The job runs the sequential twin instead of the pool call.
    pub twin: bool,
}

/// What the generator knows about a job it has sent.
#[derive(Clone, Copy)]
struct Sent {
    /// 1-based, in send order.
    job: u64,
    template: usize,
    twin: bool,
    due_ns: u64,
    submit_ns: u64,
    submitted_ns: u64,
}

/// What the jobs due within one [`WINDOW_NS`] of a pass did.
#[derive(Default)]
struct Window {
    latency: Histogram,
    sent: u64,
    late: u64,
    correct: u64,
}

impl Recorder<'_> {
    fn window(&mut self, due_ns: u64) -> &mut Window {
        let index = ((due_ns - self.start_ns) / WINDOW_NS) as usize;
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, Window::default);
        }
        &mut self.windows[index]
    }
}

/// What one pass accumulates.
struct Recorder<'a> {
    pass: Pass,
    detail: ServeDetail,
    tracer: Option<&'a mut Tracer>,
    /// When the pass started; windows count from here.
    start_ns: u64,
    windows: Vec<Window>,
    /// Body times per class, of pool jobs (`[0]`) and of twin jobs (`[1]`).
    class_body: Vec<[Histogram; 2]>,
}

pub struct Served {
    service: JobService,
    shared: Arc<Shared>,
    open_loop: bool,
    seed: u64,
    span_stride: u64,
    /// XORed into every expected (twin) digest.  Always 0, except in the
    /// test that shows the correctness gate failing a wrong result.
    pub(crate) twin_salt: u64,
}

fn tiny_templates(rng: &mut Rng, z: &Sizes) -> Vec<Kernel> {
    let words = Arc::new(rng.words(4096));
    (0..z.tiny_templates)
        .map(|_| {
            let len = 8 + rng.below(24) as usize;
            Kernel::Scan {
                input: Arc::clone(&words),
                start: rng.below((words.len() - len) as u64 + 1) as usize,
                len,
            }
        })
        .collect()
}

/// Per class, its templates: scan, mergesort, BFS and components on one
/// shared graph (components has no per-job input, so one template).
fn mixed_templates(rng: &mut Rng, z: &Sizes) -> Vec<Vec<Kernel>> {
    let graph = Arc::new(gen::gnm(z.mixed_vertices, z.mixed_edges, rng.next_u64()));
    let n = z.mixed_templates;
    vec![
        (0..n)
            .map(|_| Kernel::Scan {
                input: Arc::new(rng.words(z.mixed_scan)),
                start: 0,
                len: z.mixed_scan,
            })
            .collect(),
        (0..n)
            .map(|_| Kernel::MergeSort {
                input: Arc::new(rng.words(z.mixed_sort)),
            })
            .collect(),
        (0..n)
            .map(|_| Kernel::Bfs {
                graph: Arc::clone(&graph),
                src: rng.below(z.mixed_vertices as u64) as usize,
            })
            .collect(),
        vec![Kernel::Components { graph }],
    ]
}

/// Seeded Poisson arrivals at `rate` per second over `seconds`; `pick`
/// draws each arrival's template from the same stream.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Arrival> {
    let mut rng = Rng(seed ^ 0x6f70_656e);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return schedule;
        }
        schedule.push(Arrival {
            due_ns: (t * 1e9) as u64,
            template: pick(&mut rng),
            twin: rng.below(TWIN_EVERY) == 0,
        });
    }
}

impl Served {
    pub fn setup(id: Id, seed: u64, z: &Sizes) -> Served {
        let mut rng = Rng(seed);
        let open_loop = id == Id::ServeMixedOpen;
        let classes = if open_loop {
            mixed_templates(&mut rng, z)
        } else {
            vec![tiny_templates(&mut rng, z)]
        };

        // Every template's twin once, for the digest its jobs must return.
        let mut scratch = Scratch::default();
        let mut templates = Vec::new();
        let mut class_start = vec![0];
        for (class, kernels) in classes.into_iter().enumerate() {
            for kernel in kernels {
                kernel.prepare(&mut scratch);
                kernel.run_twin(&mut scratch);
                templates.push(Template {
                    expected: kernel.digest(&scratch),
                    kernel,
                    class,
                });
            }
            class_start.push(templates.len());
        }

        let served = Served {
            service: JobService::start(ServeConfig {
                tenants: TENANTS,
                tenant_budget: TENANT_BUDGET,
                queue_capacity: QUEUE_CAPACITY,
                executors: 1,
                processors: sys::nproc().saturating_sub(1).max(1),
                ..ServeConfig::default()
            }),
            shared: Arc::new(Shared {
                templates,
                class_start,
                ring: (0..RING).map(|_| Slot::default()).collect(),
                scratch: Mutex::new(scratch),
            }),
            open_loop,
            seed,
            span_stride: if open_loop { 1 } else { TINY_SPAN_STRIDE },
            twin_salt: 0,
        };
        // The generator on the first CPU, executor and pool from the second.
        sys::pin_threads(served.service.processors());
        // Warm-up: every template once through the service, one at a time
        // (so the service's lifetime queue peak stays at 1).
        let mut order = 0..served.shared.templates.len();
        served.closed_loop(1, &mut order, &mut served.recorder(None));
        served
    }

    pub fn processors(&self) -> usize {
        self.service.processors()
    }

    fn recorder<'a>(&self, tracer: Option<&'a mut Tracer>) -> Recorder<'a> {
        let classes = self.shared.class_start.len() - 1;
        Recorder {
            pass: Pass::default(),
            detail: ServeDetail::default(),
            tracer,
            start_ns: now_ns(),
            windows: Vec::new(),
            class_body: (0..classes).map(|_| Default::default()).collect(),
        }
    }

    /// The job body: benchmark code around one kernel call on the shared
    /// pool (or, for a twin job, around the sequential twin).  Its first and
    /// last statements stamp the clock, so latency and queueing are measured
    /// where they happen, not where the generator polls.
    fn spec(&self, job: u64, template: usize, twin: bool, traced: bool) -> JobSpec {
        let shared = Arc::clone(&self.shared);
        JobSpec::new((job % TENANTS as u64) as usize, move |cx| {
            let slot = &shared.ring[job as usize % RING];
            slot.body_start.store(now_ns(), Relaxed);
            let kernel = &shared.templates[template].kernel;
            let mut scratch = shared
                .scratch
                .lock()
                .expect("no job body panics while holding the scratch");
            kernel.prepare(&mut scratch);
            if traced {
                slot.kernel_start.store(now_ns(), Relaxed);
            }
            if twin {
                kernel.run_twin(&mut scratch);
            } else {
                kernel.run_pool(cx.pool(), &mut scratch);
            }
            if traced {
                slot.kernel_end.store(now_ns(), Relaxed);
                slot.levels.store(kernel.levels(&scratch), Relaxed);
            }
            let digest = kernel.digest(&scratch);
            drop(scratch);
            slot.body_end.store(now_ns(), Relaxed);
            digest
        })
    }

    /// Send job `job`, due at `due_ns`, now.  A refused submission is a failed job.
    fn send(
        &self,
        job: u64,
        template: usize,
        twin: bool,
        due_ns: u64,
        rec: &mut Recorder,
    ) -> Option<(JobTicket, Sent)> {
        rec.pass.attempted += 1;
        let spec = self.spec(job, template, twin, rec.tracer.is_some());
        let submit_ns = now_ns();
        let window = rec.window(due_ns);
        window.sent += 1;
        window.late += u64::from(submit_ns - due_ns > LATE_NS);
        match self.service.submit(spec) {
            Ok(ticket) => Some((
                ticket,
                Sent {
                    job,
                    template,
                    twin,
                    due_ns,
                    submit_ns,
                    submitted_ns: now_ns(),
                },
            )),
            Err(refusal) => {
                if rec.pass.failed < FAILURES_SHOWN {
                    eprintln!("job {job} refused: {refusal}");
                }
                rec.pass.failed += 1;
                None
            }
        }
    }

    /// Account for a finished job whose report the generator got at `reaped_ns`.
    fn reap(&self, sent: Sent, report: &JobReport, reaped_ns: u64, rec: &mut Recorder) {
        let template = &self.shared.templates[sent.template];
        let correct = report.outcome == Ok(template.expected ^ self.twin_salt);
        if !correct && rec.pass.failed < FAILURES_SHOWN {
            eprintln!(
                "job {} returned {:?}, its twin {}",
                sent.job, report.outcome, template.expected
            );
        }
        rec.pass.failed += u64::from(!correct);
        let slot = &self.shared.ring[sent.job as usize % RING];
        let (body_start, body_end) = (slot.body_start.load(Relaxed), slot.body_end.load(Relaxed));
        let latency = body_end.saturating_sub(sent.due_ns);
        let body = body_end.saturating_sub(body_start);
        let window = rec.window(sent.due_ns);
        window.latency.record(latency);
        window.correct += u64::from(correct);
        rec.pass.latency.record(latency);
        rec.detail.submit.record(sent.submitted_ns - sent.submit_ns);
        // The executor may start the body before `submit` has returned.
        rec.detail
            .queue
            .record(body_start.saturating_sub(sent.submitted_ns));
        rec.detail.body.record(body);
        rec.detail.report.record(reaped_ns.saturating_sub(body_end));
        rec.detail.overhead.record(latency.saturating_sub(body));
        rec.detail.late.record(sent.submit_ns - sent.due_ns);
        rec.class_body[template.class][usize::from(sent.twin)].record(body);
        if let Some(t) = rec
            .tracer
            .as_deref_mut()
            .filter(|_| sent.job.is_multiple_of(self.span_stride))
        {
            let job = t.open(NONE, sent.job, "harness", "job", sent.due_ns);
            let mut span = |parent, layer, name, start_ns, end_ns, units, aux| {
                t.record(parent, sent.job, layer, name, start_ns, end_ns, units, aux)
            };
            span(
                job,
                "harness",
                "gen.send_lag",
                sent.due_ns,
                sent.submit_ns,
                0,
                0,
            );
            span(
                job,
                "serve",
                "serve.submit",
                sent.submit_ns,
                sent.submitted_ns,
                0,
                0,
            );
            span(
                job,
                "serve",
                "serve.queue",
                sent.submitted_ns,
                body_start,
                0,
                0,
            );
            let body = span(job, "harness", "job.body", body_start, body_end, 0, 0);
            let names = template.kernel.names();
            let (layer, name) = match sent.twin {
                true => ("twin", names.twin),
                false => (names.layer, names.pool),
            };
            let (start, end) = (
                slot.kernel_start.load(Relaxed),
                slot.kernel_end.load(Relaxed),
            );
            let (units, levels) = (template.kernel.units(), slot.levels.load(Relaxed));
            span(body, layer, name, start, end, units, levels);
            span(job, "serve", "serve.report", body_end, reaped_ns, 0, 0);
            t.close(job, reaped_ns.max(body_end));
        }
    }

    /// Callers that wait for a reply: keep `in_flight` jobs outstanding,
    /// drawing templates from `templates` until it ends, then drain.
    fn closed_loop(
        &self,
        in_flight: usize,
        templates: &mut dyn Iterator<Item = usize>,
        rec: &mut Recorder,
    ) {
        let mut outstanding = VecDeque::with_capacity(in_flight);
        let mut job = 0;
        loop {
            while outstanding.len() < in_flight {
                let Some(template) = templates.next() else {
                    break;
                };
                job += 1;
                outstanding.extend(self.send(
                    job,
                    template,
                    job.is_multiple_of(TWIN_EVERY),
                    now_ns(),
                    rec,
                ));
            }
            let Some((ticket, sent)) = outstanding.pop_front() else {
                return;
            };
            let report = ticket.wait();
            self.reap(sent, &report, now_ns(), rec);
        }
    }

    /// Independent users: send each arrival at its due time whatever the
    /// service is doing, and time it from that due time.  The generator
    /// spins between sends, taking reports as they appear.  (It does not
    /// sleep: the host wakes a halted vCPU late — with a sleep to 200 µs
    /// before each due time, 1–3% of sends were over 1 ms late, p99 6–15 ms.)
    fn open_loop(&self, schedule: &[Arrival], start_ns: u64, rec: &mut Recorder) {
        let mut outstanding: Vec<(JobTicket, Sent)> = Vec::new();
        let poll = |outstanding: &mut Vec<(JobTicket, Sent)>, rec: &mut Recorder| {
            let mut i = 0;
            while i < outstanding.len() {
                match outstanding[i].0.try_report() {
                    Some(report) => {
                        let (_, sent) = outstanding.swap_remove(i);
                        self.reap(sent, &report, now_ns(), rec);
                    }
                    None => i += 1,
                }
            }
        };
        for (i, arrival) in schedule.iter().enumerate() {
            let due_ns = start_ns + arrival.due_ns;
            while now_ns() < due_ns {
                poll(&mut outstanding, rec);
                std::hint::spin_loop();
            }
            outstanding.extend(self.send(
                i as u64 + 1,
                arrival.template,
                arrival.twin,
                due_ns,
                rec,
            ));
        }
        for (ticket, sent) in outstanding {
            let report = ticket.wait();
            self.reap(sent, &report, now_ns(), rec);
        }
    }

    /// The open loop's arrivals over `seconds`: class by [`MIXED_SHARES`],
    /// then a template of that class, all from the workload's seed.
    fn schedule(&self, seconds: f64) -> Vec<Arrival> {
        let class_start = &self.shared.class_start;
        poisson_schedule(self.seed, OPEN_LOOP_JOBS_PER_S, seconds, |rng| {
            let ticket = rng.below(100);
            let class = (0..MIXED_SHARES.len())
                .find(|&c| ticket < MIXED_SHARES[..=c].iter().sum())
                .expect("shares sum to 100");
            let (lo, hi) = (class_start[class], class_start[class + 1]);
            lo + rng.below((hi - lo) as u64) as usize
        })
    }

    /// Serve for `seconds`: the closed loop sends until then and drains; the
    /// open loop serves the seeded schedule of that length, so two passes of
    /// equal length do exactly the same jobs.
    pub fn run(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Pass {
        let traced = tracer.is_some();
        let mut rec = self.recorder(tracer);
        let templates = self.shared.templates.len() as u64;
        let schedule = if self.open_loop {
            self.schedule(seconds)
        } else {
            Vec::new()
        };
        let stats = self.service.stats();
        let pool = self.service.pool().metrics().snapshot();
        let tasks = traced.then(|| {
            sys::set_counting(true);
            (sys::task_totals(), sys::allocations())
        });

        let start_ns = now_ns();
        rec.start_ns = start_ns;
        if self.open_loop {
            self.open_loop(&schedule, start_ns, &mut rec);
        } else {
            let deadline = start_ns + (seconds * 1e9) as u64;
            let mut rng = Rng(self.seed ^ 0x636c_6f73_6564);
            let mut draw =
                std::iter::from_fn(|| (now_ns() < deadline).then(|| rng.below(templates) as usize));
            self.closed_loop(IN_FLIGHT, &mut draw, &mut rec);
        }
        let wall_ns = now_ns() - start_ns;
        let measured = tasks.map(|(before, allocations)| {
            sys::set_counting(false);
            (before, sys::task_totals(), sys::allocations() - allocations)
        });

        let Recorder {
            mut pass,
            mut detail,
            class_body,
            windows,
            ..
        } = rec;
        let over_windows = |metric: &dyn Fn(usize, &Window) -> f64| {
            let per_window: Vec<f64> = windows
                .iter()
                .enumerate()
                .map(|(i, w)| metric(i, w))
                .collect();
            median(&per_window)
        };
        pass.latency_p50_ns = over_windows(&|_, w| w.latency.quantile(0.5));
        pass.latency_p90_ns = over_windows(&|_, w| w.latency.quantile(0.9));
        // The last window is shorter when `seconds` is not a whole number of them.
        let window_s = WINDOW_NS as f64 / 1e9;
        pass.jobs_per_s =
            over_windows(&|i, w| w.correct as f64 / (seconds - i as f64 * window_s).min(window_s));
        // What a body takes with the pool call in it against the same body
        // with the twin in it; the cost of serving itself (queue, dispatch,
        // report) is in the latencies.  (A pass of a few dozen jobs may have
        // no class with both kinds; a run of a second always has.)
        let ratios: Vec<f64> = class_body
            .iter()
            .filter(|[on_pool, twin]| on_pool.count() > 0 && twin.count() > 0)
            .map(|[on_pool, twin]| on_pool.quantile(0.25) / twin.quantile(0.25))
            .collect();
        pass.time_vs_seq = if ratios.is_empty() {
            0.0
        } else {
            geomean(&ratios)
        };
        if let Some((before, after, allocations)) = measured {
            pass.allocations = allocations;
            pass.busy_cpu_ns = after.cpu_ns.saturating_sub(before.cpu_ns);
            pass.voluntary_switches = after
                .voluntary_switches
                .saturating_sub(before.voluntary_switches);
            pass.busy_wall_ns = wall_ns;
            // What the twin would have spent on every job of the pass.
            pass.twin_cpu_ns = class_body
                .iter()
                .map(|[on_pool, twin]| {
                    (on_pool.count() + twin.count()) as f64 * twin.quantile(0.25)
                })
                .sum::<f64>() as u64;
        }
        pass.pool = self.service.pool().metrics().snapshot().delta_since(&pool);

        let after = self.service.stats();
        detail.rejected = after.rejected - stats.rejected;
        detail.retries = after.retries - stats.retries;
        detail.queue_peak = after.queue_peak as u64;
        let per_tenant: Vec<u64> = after
            .per_tenant_completed
            .iter()
            .zip(&stats.per_tenant_completed)
            .map(|(a, b)| a - b)
            .collect();
        let (most, least) = (
            per_tenant.iter().max().copied().unwrap_or(0),
            per_tenant.iter().min().copied().unwrap_or(0),
        );
        detail.fairness_ratio = most as f64 / least.max(1) as f64;
        if self.open_loop && too_many_late(&windows) {
            // A starved generator must not be read as a slow service.
            pass.starved = true;
            eprintln!(
                "invalid run: in most of its {} windows over {}% of the sends were over 1 ms late (lateness p50 {:.0} us, p99 {:.0} us): the generator was starved",
                windows.len(),
                LATE_SHARE * 100.0,
                detail.late.quantile_us(0.5),
                detail.late.quantile_us(0.99),
            );
        }
        pass.serve = Some(detail);
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let pick = |rng: &mut Rng| rng.below(10) as usize;
        let a = poisson_schedule(7, 500.0, 4.0, pick);
        let twins = a.iter().filter(|arrival| arrival.twin).count() as f64;
        assert!(
            (twins / a.len() as f64 - 1.0 / TWIN_EVERY as f64).abs() < 0.03,
            "{twins} twin jobs"
        );
        assert_eq!(a, poisson_schedule(7, 500.0, 4.0, pick));
        assert_ne!(a, poisson_schedule(8, 500.0, 4.0, pick));
        // A shorter run serves a prefix of the longer run's schedule.
        let short = poisson_schedule(7, 500.0, 1.0, pick);
        assert_eq!(short[..], a[..short.len()]);
        // 2000 arrivals expected; Poisson, so within four standard deviations.
        assert!(
            (a.len() as f64 - 2000.0).abs() < 4.0 * 2000f64.sqrt(),
            "{} arrivals",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 4_000_000_000);
    }

    #[test]
    fn job_mix_is_seeded_and_follows_the_class_shares() {
        let served = Served::setup(Id::ServeMixedOpen, 3, &Sizes::SMOKE);
        let schedule = served.schedule(20.0);
        assert_eq!(schedule, served.schedule(20.0));
        assert_ne!(
            schedule,
            Served::setup(Id::ServeMixedOpen, 4, &Sizes::SMOKE).schedule(20.0)
        );
        let mut jobs = [0.0; 4];
        for arrival in &schedule {
            jobs[served.shared.templates[arrival.template].class] += 1.0;
        }
        for (class, share) in MIXED_SHARES.iter().enumerate() {
            let got = jobs[class] / schedule.len() as f64 * 100.0;
            assert!(
                (got - *share as f64).abs() < 2.0,
                "class {class}: {got}% of {}",
                schedule.len()
            );
        }
    }

    #[test]
    fn a_run_is_invalid_when_most_windows_sent_late() {
        let window = |sent, late| Window {
            sent,
            late,
            ..Window::default()
        };
        // One stalled window in four is the host's fault; three are the generator's.
        assert!(!too_many_late(&[
            window(600, 1),
            window(600, 300),
            window(600, 0),
            window(600, 6)
        ]));
        assert!(too_many_late(&[
            window(600, 7),
            window(600, 300),
            window(600, 0),
            window(600, 9)
        ]));
        assert!(!too_many_late(&[]));
    }

    #[test]
    fn smoke_serving_matches_the_twins() {
        for id in [Id::ServeTinyClosed, Id::ServeMixedOpen] {
            let mut tracer = Tracer::default();
            let mut served = Served::setup(id, 9, &Sizes::SMOKE);
            let pass = served.run(0.25, Some(&mut tracer));
            assert!(pass.attempted > 0, "{}", id.name());
            assert_eq!(pass.failed, 0, "{}", id.name());
            assert_eq!(pass.latency.count(), pass.attempted);
            assert!(pass.time_vs_seq > 0.0 && pass.jobs_per_s > 0.0);
            let detail = pass.serve.as_ref().unwrap();
            assert_eq!((detail.rejected, detail.retries), (0, 0));
            // Each sampled job: the job span, five children, the kernel call,
            // which in one job of TWIN_EVERY is the twin.
            let jobs = tracer.named("job").count();
            assert!(jobs > 0 && tracer.spans.len() == 7 * jobs);
            let twins = tracer.spans.iter().filter(|s| s.layer == "twin").count();
            assert!(twins > 0 && twins < jobs / 4, "{twins} twin jobs of {jobs}");
        }
    }

    #[test]
    fn a_corrupted_twin_digest_fails_every_job() {
        for id in [Id::ServeTinyClosed, Id::ServeMixedOpen] {
            let mut served = Served::setup(id, 9, &Sizes::SMOKE);
            served.twin_salt = 1;
            let pass = served.run(0.05, None);
            assert!(pass.attempted > 0);
            assert_eq!(pass.failed, pass.attempted, "{}", id.name());
            assert_eq!(pass.jobs_per_s, 0.0);
        }
    }
}
