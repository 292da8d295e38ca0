//! Functional contract of the job service: admission control, budgets,
//! round-robin fairness, deadlines-from-submission, cancellation and
//! graceful drain, and the hand-offs that wake a parked executor or a
//! waiting client.

use std::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lopram_serve::{JobError, JobReport, JobService, JobSpec, JobTicket, ServeConfig, SubmitError};
use parking_lot::Mutex;

/// Expected exclusive-prefix-sum digest (the `total` of a 0-identity
/// add-scan) of `0..n`.
fn scan_digest(n: u64) -> u64 {
    n * (n - 1) / 2
}

fn scan_job(n: u64) -> impl FnOnce(&lopram_serve::JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let data: Vec<u64> = (0..n).collect();
        cx.pool()
            .scan_copy_in(&data, 0u64, |a, b| a + b, &mut Vec::new())
    }
}

/// A job that parks its executor until `release` flips — the "plug"
/// every queue-saturation test uses to make dispatch deterministic.
fn plug_job(release: Arc<AtomicBool>) -> JobSpec {
    JobSpec::new(0, move |cx| {
        while !release.load(Ordering::SeqCst) {
            // Keep the plug cancellable so a wedged test still unwinds.
            cx.step();
            std::thread::yield_now();
        }
        0
    })
}

#[test]
fn submit_await_report_roundtrip() {
    let service = JobService::start(ServeConfig {
        processors: 2,
        ..ServeConfig::default()
    });
    let n = 50_000u64;
    let (report, delta) = service.pool().scoped_metrics(|| {
        let ticket = service.submit(JobSpec::new(0, scan_job(n))).unwrap();
        assert_eq!(ticket.id(), 0);
        ticket.wait()
    });
    assert_eq!(report.outcome, Ok(scan_digest(n)));
    assert_eq!(report.job, 0);
    assert_eq!(report.tenant, 0);
    // The only job ran between the two snapshots, so the pool's delta is
    // its fork count, exactly: an add-scan costs 2·(C − 1) forks for C
    // chunks.
    let chunks = service.pool().chunk_count(n as usize) as u64;
    assert!(chunks > 1, "the scan must fork");
    assert_eq!(delta.forks(), 2 * (chunks - 1));
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.per_tenant_completed, vec![1]);
    assert_eq!(stats.fairness_ratio(), 1.0);
}

#[test]
fn admission_control_rejects_bad_submissions() {
    let service = JobService::start(ServeConfig {
        tenants: 2,
        tenant_budget: 3,
        ..ServeConfig::default()
    });
    assert_eq!(
        service.submit(JobSpec::new(7, |_| 0)).unwrap_err(),
        SubmitError::UnknownTenant { tenant: 7 }
    );
    assert_eq!(
        service.submit(JobSpec::new(1, |_| 0).cost(4)).unwrap_err(),
        SubmitError::CostExceedsBudget { cost: 4, budget: 3 }
    );
    // Cost equal to the budget is admissible.
    let ok = service.submit(JobSpec::new(1, |_| 42).cost(3)).unwrap();
    assert_eq!(ok.wait().outcome, Ok(42));
    service.shutdown();
}

#[test]
fn full_queue_rejects_with_backpressure_and_recovers() {
    let capacity = 4;
    let service = JobService::start(ServeConfig {
        queue_capacity: capacity,
        ..ServeConfig::default()
    });
    let release = Arc::new(AtomicBool::new(false));

    // Plug the single executor, then fill the queue exactly.
    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now(); // until the executor picks the plug up
    }
    let queued: Vec<_> = (0..capacity)
        .map(|i| service.submit(JobSpec::new(0, move |_| i as u64)).unwrap())
        .collect();

    // The queue is full: submissions bounce with the observed depth.
    for _ in 0..3 {
        assert_eq!(
            service.submit(JobSpec::new(0, |_| 0)).unwrap_err(),
            SubmitError::Rejected {
                queue_depth: capacity
            }
        );
    }

    // Backpressure released: everything queued still completes exactly.
    release.store(true, Ordering::SeqCst);
    assert_eq!(plug.wait().outcome, Ok(0));
    for (i, ticket) in queued.into_iter().enumerate() {
        assert_eq!(ticket.wait().outcome, Ok(i as u64));
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.completed, 1 + capacity as u64);
    assert_eq!(stats.queue_peak, capacity);
}

#[test]
fn admission_quota_keeps_a_flooder_out_of_the_others_slots() {
    // capacity 4, two tenants ⇒ quota 2 each.  Tenant 0 floods: it is
    // rejected at its quota while the global queue still has room, and
    // tenant 1 can still admit its full share afterwards.
    let service = JobService::start(ServeConfig {
        tenants: 2,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let release = Arc::new(AtomicBool::new(false));
    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let t0: Vec<_> = (0..2)
        .map(|i| service.submit(JobSpec::new(0, move |_| i)).unwrap())
        .collect();
    let rejected = service.submit(JobSpec::new(0, |_| 99)).unwrap_err();
    assert_eq!(
        rejected,
        SubmitError::Rejected { queue_depth: 2 },
        "the flooder bounces at its quota with the global depth reported"
    );
    let t1: Vec<_> = (0..2)
        .map(|i| service.submit(JobSpec::new(1, move |_| 10 + i)).unwrap())
        .collect();
    release.store(true, Ordering::SeqCst);
    plug.wait();
    for (i, ticket) in t0.into_iter().enumerate() {
        assert_eq!(ticket.wait().outcome, Ok(i as u64));
    }
    for (i, ticket) in t1.into_iter().enumerate() {
        assert_eq!(ticket.wait().outcome, Ok(10 + i as u64));
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.per_tenant_completed, vec![3, 2]); // plug was tenant 0
    service_stats_sane(&stats);
}

fn service_stats_sane(stats: &lopram_serve::ServiceStats) {
    assert_eq!(stats.finished(), stats.submitted);
}

#[test]
fn round_robin_interleaves_tenants() {
    let service = JobService::start(ServeConfig {
        tenants: 2,
        queue_capacity: 32,
        ..ServeConfig::default()
    });
    let release = Arc::new(AtomicBool::new(false));
    let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));

    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    // Tenant 0 floods first; tenant 1 trickles in afterwards.  Round-
    // robin dispatch must still alternate between them.
    let mut tickets = Vec::new();
    for tenant in [0, 0, 0, 0, 1, 1, 1, 1] {
        let order = Arc::clone(&order);
        tickets.push(
            service
                .submit(JobSpec::new(tenant, move |_| {
                    order.lock().push(tenant);
                    0
                }))
                .unwrap(),
        );
    }
    release.store(true, Ordering::SeqCst);
    plug.wait();
    for ticket in tickets {
        assert_eq!(ticket.wait().outcome, Ok(0));
    }
    let order = order.lock().clone();
    // The plug ran as tenant 0, so dispatch resumes at tenant 1 and
    // alternates strictly while both subqueues are non-empty.
    assert_eq!(order, vec![1, 0, 1, 0, 1, 0, 1, 0]);
    service.shutdown();
}

#[test]
fn budget_serializes_one_tenants_jobs_across_executors() {
    for budget in [1, 2] {
        budget_holds_across_executors(budget);
    }
}

/// Nine jobs of one tenant, costs cycling 1, 1, 2 (capped at `budget`),
/// on three executors: the jobs running at any job's start never cost
/// more than the budget together, however hungry the executors are.
fn budget_holds_across_executors(budget: usize) {
    let service = JobService::start(ServeConfig {
        tenants: 1,
        tenant_budget: budget,
        executors: 3,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    type Window = (Instant, Instant, usize);
    let windows: Arc<Mutex<Vec<Window>>> = Arc::new(Mutex::new(Vec::new()));
    let tickets: Vec<_> = (0..9)
        .map(|i| {
            let cost = [1, 1, 2][i % 3].min(budget);
            let windows = Arc::clone(&windows);
            service
                .submit(
                    JobSpec::new(0, move |_| {
                        let start = Instant::now();
                        std::thread::sleep(Duration::from_millis(5));
                        windows.lock().push((start, Instant::now(), cost));
                        0
                    })
                    .cost(cost),
                )
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().outcome, Ok(0));
    }
    let windows = windows.lock().clone();
    for &(start, _, _) in &windows {
        let running: usize = windows
            .iter()
            .filter(|&&(s, e, _)| s <= start && start < e)
            .map(|&(_, _, cost)| cost)
            .sum();
        assert!(
            running <= budget,
            "budget-{budget} tenant had jobs of cost {running} running at once"
        );
    }
    service.shutdown();
}

/// Poll `ticket` until it reports, failing after 10 s: a job whose
/// budget leaked, or whose executor slept through its wake, stays queued
/// forever, and `wait()` would hang.
fn report_within_10s(ticket: &JobTicket) -> JobReport {
    let start = Instant::now();
    loop {
        if let Some(report) = ticket.try_report() {
            return report;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "job {} did not report within 10 s: it is still queued or running",
            ticket.id()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Queue `spec` behind a running plug job, let `while_queued` act on its
/// ticket, release the plug, and return the queued job's report.
fn behind_plug(
    service: &JobService,
    spec: JobSpec,
    while_queued: impl FnOnce(&JobTicket),
) -> JobReport {
    let release = Arc::new(AtomicBool::new(false));
    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let ticket = service.submit(spec).unwrap();
    while_queued(&ticket);
    release.store(true, Ordering::SeqCst);
    assert_eq!(report_within_10s(&plug).outcome, Ok(0));
    report_within_10s(&ticket)
}

#[test]
fn every_terminal_path_gives_the_budget_back() {
    // Never dropped on failure: a leaked budget would leave a job queued
    // forever, and the drop's drain would hang instead of failing.
    let service = std::mem::ManuallyDrop::new(JobService::start(ServeConfig {
        tenant_budget: 1,
        executors: 2,
        ..ServeConfig::default()
    }));
    let next_job_runs = || {
        let ticket = service.submit(JobSpec::new(0, |_| 7)).unwrap();
        assert_eq!(report_within_10s(&ticket).outcome, Ok(7));
    };
    let panics = service.submit(JobSpec::new(0, |_| panic!("budget test")));
    assert!(matches!(
        report_within_10s(&panics.unwrap()).outcome,
        Err(JobError::Panicked(_))
    ));
    next_job_runs();
    let cancelled = behind_plug(&service, JobSpec::new(0, |_| 0), JobTicket::cancel);
    assert_eq!(cancelled.outcome, Err(JobError::Cancelled));
    next_job_runs();
    let expiring = JobSpec::new(0, |_| 0).deadline(Duration::from_millis(5));
    let expired = behind_plug(&service, expiring, |_| {
        std::thread::sleep(Duration::from_millis(30))
    });
    assert_eq!(expired.outcome, Err(JobError::DeadlineExceeded));
    next_job_runs();
    let stats = std::mem::ManuallyDrop::into_inner(service).shutdown();
    assert_eq!(stats.completed, 5);
}

#[test]
fn every_zero_limit_is_refused_at_start() {
    // `start` checks every limit before it builds the pool, so no case
    // starts a thread.
    let zero = |set: fn(&mut ServeConfig)| {
        let mut config = ServeConfig::default();
        set(&mut config);
        config
    };
    let cases = [
        (zero(|c| c.tenants = 0), "need at least one tenant"),
        (zero(|c| c.tenant_budget = 0), "need a budget of at least 1"),
        (zero(|c| c.queue_capacity = 0), "need a queue of at least 1"),
        (zero(|c| c.executors = 0), "need at least one executor"),
        (zero(|c| c.processors = 0), "need at least one processor"),
    ];
    for (config, message) in cases {
        let Err(payload) = std::panic::catch_unwind(|| JobService::start(config)) else {
            panic!("started with a zero limit: {message}");
        };
        assert_eq!(payload.downcast_ref::<&str>(), Some(&message));
    }
}

#[test]
fn ticket_cancel_stops_a_queued_job_without_running_it() {
    let service = JobService::start(ServeConfig::default());
    let ran = Arc::new(AtomicBool::new(false));
    let ran_probe = Arc::clone(&ran);
    let doomed = JobSpec::new(0, move |_| {
        ran_probe.store(true, Ordering::SeqCst);
        0
    });
    let report = behind_plug(&service, doomed, JobTicket::cancel);
    assert_eq!(report.outcome, Err(JobError::Cancelled));
    assert_eq!(report.run_time, Duration::ZERO);
    assert!(!ran.load(Ordering::SeqCst), "cancelled job must never run");
    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn ticket_cancel_unwinds_a_running_job() {
    let service = JobService::start(ServeConfig::default());
    let running = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&running);
    let victim = service
        .submit(JobSpec::new(0, move |cx| loop {
            flag.store(true, Ordering::SeqCst);
            // Unwinds with the ticket's cancel reason once it fires.
            cx.step();
            std::thread::yield_now();
        }))
        .unwrap();
    while !running.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    victim.cancel();
    let report = victim.wait();
    assert_eq!(report.outcome, Err(JobError::Cancelled));
    assert!(report.run_time > Duration::ZERO, "the body was running");
    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 0);
}

#[test]
fn queue_wait_counts_against_the_deadline() {
    let service = JobService::start(ServeConfig::default());
    let release = Arc::new(AtomicBool::new(false));
    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    // Deadline far shorter than the time the plug holds the executor.
    let doomed = service
        .submit(JobSpec::new(0, |_| 0).deadline(Duration::from_millis(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(40));
    release.store(true, Ordering::SeqCst);
    plug.wait();
    let report = doomed.wait();
    assert_eq!(report.outcome, Err(JobError::DeadlineExceeded));
    assert_eq!(report.run_time, Duration::ZERO);
    assert!(report.queue_wait >= Duration::from_millis(10));

    // A generous deadline completes normally.
    let fine = service
        .submit(JobSpec::new(0, scan_job(10_000)).deadline(Duration::from_secs(3600)))
        .unwrap();
    assert_eq!(fine.wait().outcome, Ok(scan_digest(10_000)));
    service.shutdown();
}

#[test]
fn shutdown_drains_the_queue() {
    let service = JobService::start(ServeConfig {
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = (0..32)
        .map(|i| service.submit(JobSpec::new(0, move |_| i)).unwrap())
        .collect();
    // Shut down immediately: every admitted job must still finish.
    let stats = service.shutdown();
    assert_eq!(stats.completed, 32);
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().outcome, Ok(i as u64));
    }
}

#[test]
fn try_report_is_a_non_blocking_probe() {
    let service = JobService::start(ServeConfig::default());
    let release = Arc::new(AtomicBool::new(false));
    let plug = service.submit(plug_job(Arc::clone(&release))).unwrap();
    assert!(plug.try_report().is_none(), "plug is still running");
    release.store(true, Ordering::SeqCst);
    let report = plug.wait();
    assert_eq!(report.outcome, Ok(0));
    service.shutdown();
}

#[test]
fn dispatch_deadline_verdict_derives_from_a_single_clock_read() {
    use lopram_core::{CancelReason, CancelToken};

    // Regression for the two-clock-read dispatch bug: `run_one` used to
    // read `Instant::now()` at the deadline check and again at the
    // `started` stamp.  Pin a deadline exactly between those two read
    // points: the old path's verdict ("not expired, run it") would
    // contradict its own start time (already past the deadline).
    let enqueued = Instant::now();
    let first_read = enqueued + Duration::from_millis(10);
    let deadline = enqueued + Duration::from_millis(15);
    let second_read = enqueued + Duration::from_millis(20);
    let token = CancelToken::with_deadline_at(deadline);

    // Old read point #1 (the deadline check) passes…
    assert_eq!(token.poll_at(first_read), None);
    // …while old read point #2 (the start stamp) is already expired: the
    // two reads straddling the deadline is exactly the inconsistent
    // dispatch the single-read path forbids.
    assert_eq!(
        token.poll_at(second_read),
        Some(CancelReason::DeadlineExceeded)
    );
    // The verdict latches: every later observer agrees.
    assert_eq!(token.fired(), Some(CancelReason::DeadlineExceeded));
    assert_eq!(
        token.poll_at(first_read),
        Some(CancelReason::DeadlineExceeded)
    );

    // The dispatch invariant itself: for ANY single instant, the
    // queue-wait attribution and the verdict are consistent — expired
    // iff the queue wait alone reaches the deadline budget.
    for offset_ms in [0u64, 5, 10, 14, 15, 16, 25] {
        let now = enqueued + Duration::from_millis(offset_ms);
        let token = CancelToken::with_deadline_at(deadline);
        let queue_wait = now.duration_since(enqueued);
        let verdict = token.poll_at(now);
        assert_eq!(
            verdict.is_some(),
            queue_wait >= Duration::from_millis(15),
            "verdict and queue wait must derive from the same instant \
             (offset {offset_ms} ms)"
        );
    }
}

#[test]
fn expired_while_queued_reports_without_running() {
    // Service-level face of the same contract: a job whose deadline
    // passes while it waits behind the plug is reported expired with
    // `run_time == 0` — the body never starts — and the queue wait it
    // reports covers the deadline budget it blew.
    let service = JobService::start(ServeConfig::default());
    let body_ran = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&body_ran);
    let doomed = JobSpec::new(0, move |_| {
        flag.store(true, Ordering::SeqCst);
        0
    })
    .deadline(Duration::from_millis(5));
    let report = behind_plug(&service, doomed, |_| {
        std::thread::sleep(Duration::from_millis(30))
    });
    assert_eq!(report.outcome, Err(JobError::DeadlineExceeded));
    assert_eq!(report.run_time, Duration::ZERO);
    assert!(report.queue_wait >= Duration::from_millis(5));
    assert!(
        !body_ran.load(Ordering::SeqCst),
        "an expired job's body must never start"
    );
    service.shutdown();
}

#[test]
fn fairness_ratio_edge_cases() {
    // The degenerate shapes of the fairness number.
    let stats = |per_tenant: Vec<u64>| lopram_serve::ServiceStats {
        submitted: 0,
        rejected: 0,
        completed: per_tenant.iter().sum(),
        panicked: 0,
        cancelled: 0,
        deadline_exceeded: 0,
        queue_peak: 0,
        retries: 0,
        per_tenant_completed: per_tenant,
    };
    // Nothing finished at all: perfectly fair by definition.
    let zero = stats(vec![0, 0, 0]);
    assert_eq!(zero.finished(), 0);
    assert_eq!(zero.fairness_ratio(), 1.0);
    // No tenants configured at all (empty vector).
    assert_eq!(stats(vec![]).fairness_ratio(), 1.0);
    // A single tenant can only be fair to itself.
    assert_eq!(stats(vec![5]).fairness_ratio(), 1.0);
    // A starved tenant while another completed: infinite unfairness.
    assert_eq!(stats(vec![5, 0]).fairness_ratio(), f64::INFINITY);
    // The plain ratio otherwise.
    assert_eq!(stats(vec![4, 2]).fairness_ratio(), 2.0);
}

#[test]
fn submit_and_job_errors_propagate_through_question_mark() -> Result<(), Box<dyn Error>> {
    // Both error types thread through `?` as
    // `Box<dyn Error>` — the std::error::Error impls are load-bearing.
    fn misuse(service: &JobService) -> Result<(), Box<dyn Error>> {
        service.submit(JobSpec::new(99, |_cx| 0))?;
        Ok(())
    }
    let service = JobService::start(ServeConfig::default());
    let err = misuse(&service).expect_err("tenant 99 does not exist");
    assert_eq!(err.to_string(), "unknown tenant 99");

    let report = service
        .submit(JobSpec::new(0, |_cx| panic!("kaboom")))?
        .wait();
    let job_err: Box<dyn Error> = Box::new(report.outcome.expect_err("panicked"));
    assert!(job_err.to_string().contains("kaboom"));
    service.shutdown();
    Ok(())
}

/// Repeat count for the hand-off tests: `LOPRAM_TEST_REPEAT` if set (CI
/// runs them at 200), else 1.
fn repeat() -> u64 {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Start `ticket.wait()` on a helper thread; the returned closure takes
/// its report, failing after 10 s.  Serve's waits have no timeout, so a
/// lost wake would otherwise hang the suite.  On failure the helper
/// stays parked and is left behind: the test has already failed.
fn wait_on_helper(ticket: JobTicket) -> impl FnOnce() -> JobReport {
    let id = ticket.id();
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    move || {
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("job {id}: wait() was not woken within 10 s"));
        helper.join().expect("the waiting thread panicked");
        report
    }
}

#[test]
fn hand_off_report_published_with_no_waiter() {
    // Nobody is parked when the report lands, so no one is signalled;
    // a later `wait()` must still find it.
    let service = JobService::start(ServeConfig::default());
    for i in 0..repeat() {
        let ticket = service.submit(JobSpec::new(0, move |_| i)).unwrap();
        let polled = report_within_10s(&ticket);
        assert_eq!(polled.outcome, Ok(i));
        let waited = wait_on_helper(ticket)();
        assert_eq!(waited.job, polled.job);
        assert_eq!(waited.outcome, polled.outcome);
        assert_eq!(waited.queue_wait, polled.queue_wait);
        assert_eq!(waited.run_time, polled.run_time);
    }
    service.shutdown();
}

#[test]
fn hand_off_wakes_a_client_blocked_in_wait() {
    let service = JobService::start(ServeConfig::default());
    for i in 0..repeat() {
        let (open, gate) = mpsc::channel::<()>();
        let ticket = service
            .submit(JobSpec::new(0, move |_| {
                gate.recv_timeout(Duration::from_secs(10))
                    .map_or(u64::MAX, |()| i)
            }))
            .unwrap();
        let waited = wait_on_helper(ticket);
        // Give the client time to park in `wait()` before the body may
        // finish.  The sleep only makes the parked path likely; correct
        // code passes on either path.
        std::thread::sleep(Duration::from_millis(2));
        open.send(()).unwrap();
        assert_eq!(waited().outcome, Ok(i));
    }
    service.shutdown();
}

#[test]
fn hand_off_wakes_an_executor_parked_on_an_empty_queue() {
    let service = JobService::start(ServeConfig::default());
    for i in 0..repeat() {
        // Idle long enough for the executor to park on the empty queue
        // (likely, not forced: correct code passes either way).
        std::thread::sleep(Duration::from_millis(2));
        let ticket = service.submit(JobSpec::new(0, move |_| i)).unwrap();
        assert_eq!(report_within_10s(&ticket).outcome, Ok(i));
    }
    service.shutdown();
}

#[test]
fn hand_off_budget_release_wakes_a_second_parked_executor() {
    // Budget 2: a cost-2 plug holds all of it while two cost-1 jobs
    // queue, so the second executor parks with work it may not start.
    // Once the plug's budget comes back both jobs must run at once —
    // each waits for the other's arrival — which needs the release to
    // wake the parked executor: no later submit would.
    let service = JobService::start(ServeConfig {
        executors: 2,
        tenant_budget: 2,
        ..ServeConfig::default()
    });
    for _ in 0..repeat() {
        let release = Arc::new(AtomicBool::new(false));
        let plug = service
            .submit(plug_job(Arc::clone(&release)).cost(2))
            .unwrap();
        while service.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let (a_arrived, a_seen) = mpsc::channel::<()>();
        let (b_arrived, b_seen) = mpsc::channel::<()>();
        let pair = [(a_arrived, b_seen), (b_arrived, a_seen)];
        let tickets: Vec<_> = pair
            .into_iter()
            .map(|(arrived, other)| {
                let spec = JobSpec::new(0, move |_| {
                    // The other job may have given up and gone already.
                    let _ = arrived.send(());
                    // 1 iff the other job ran alongside this one.
                    other
                        .recv_timeout(Duration::from_secs(10))
                        .map_or(0, |()| 1)
                });
                service.submit(spec).unwrap()
            })
            .collect();
        // Let the second executor see the jobs, find no budget, and park
        // (likely, not forced: correct code passes either way).
        std::thread::sleep(Duration::from_millis(2));
        release.store(true, Ordering::SeqCst);
        assert_eq!(report_within_10s(&plug).outcome, Ok(0));
        for ticket in &tickets {
            assert_eq!(
                report_within_10s(ticket).outcome,
                Ok(1),
                "job {} ran alone: the budget release left an executor asleep",
                ticket.id()
            );
        }
    }
    service.shutdown();
}
