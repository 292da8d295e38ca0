//! The fault-injection acceptance suite:
//!
//! (a) a saturated bounded queue rejects with backpressure and never
//!     grows past capacity;
//! (b) a panicking / cancelled / deadline-blown job never poisons the
//!     pool or the workspace arena and never perturbs other jobs'
//!     results — proved differentially against a fault-free run of the
//!     same seeded traffic;
//! (c) no tenant starves under a saturating mixed workload, and fork
//!     accounting stays exact for every non-faulted job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lopram_core::policy::WAKE_GRAIN;
use lopram_serve::{
    Fault, FaultPlan, JobContext, JobError, JobService, JobSpec, ServeConfig, SubmitError,
};

/// Stress multiplier: `LOPRAM_TEST_REPEAT=20` (CI serve-stress job)
/// re-runs the seeded differential check under more seeds.
fn repeat() -> u64 {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

const TENANTS: usize = 3;
const STEPS: u64 = 32; // > the max seeded at_step (16): every fault fires

/// Length of job `i`'s scan: seven sizes straddling the pool's wake floor
/// (`i % 7 < 2` stays one block on the executor thread, the rest fork).
fn scan_len(i: u64) -> u64 {
    WAKE_GRAIN as u64 - 2048 + (i % 7) * 1024
}

/// The deterministic job body for submission index `i`.  Digest depends
/// only on `i`: a fixed cooperative-stepping prologue (so injected
/// faults land at their planned step) followed by a pool scan (so the
/// jobs exercise forks and the workspace arena).
fn job_body(i: u64) -> impl FnMut(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let mut acc = i.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        for s in 0..STEPS {
            cx.step();
            acc = acc.rotate_left(7) ^ s;
        }
        let data: Vec<u64> = (0..scan_len(i)).map(|j| j.wrapping_add(i)).collect();
        acc ^ cx
            .pool()
            .scan_copy_in(&data, 0u64, u64::wrapping_add, &mut Vec::new())
    }
}

fn tenant_of(i: u64) -> usize {
    (i % TENANTS as u64) as usize
}

/// Run `count` traffic jobs through a fresh service under `plan`,
/// returning each job's outcome by submission index.
fn run_traffic(count: u64, plan: FaultPlan) -> HashMap<u64, Result<u64, JobError>> {
    let service = JobService::start(ServeConfig {
        tenants: TENANTS,
        tenant_budget: 2,
        queue_capacity: count as usize,
        executors: 2,
        processors: 2,
        fault_plan: plan.clone(),
        ..ServeConfig::default()
    });
    let mut tickets = Vec::new();
    for i in 0..count {
        let mut spec = JobSpec::new(tenant_of(i), job_body(i));
        // A deadline fault stalls until the job's deadline passes, so
        // deadline-faulted jobs need one short enough to test quickly.
        if let Some(Fault::Deadline { .. }) = plan.fault_for(i) {
            spec = spec.deadline(Duration::from_millis(100));
        }
        tickets.push(service.submit(spec).expect("capacity sized to count"));
    }
    let mut outcomes = HashMap::new();
    for ticket in tickets {
        let report = ticket.wait();
        outcomes.insert(report.job, report.outcome);
    }
    service.shutdown();
    outcomes
}

#[test]
fn faulted_jobs_fail_their_own_way_and_perturb_nothing_else() {
    let count = 48;
    for round in 0..repeat() {
        let seed = 0xFA_017 + round;
        let clean = run_traffic(count, FaultPlan::none());
        assert!(clean.values().all(|o| o.is_ok()), "fault-free run is clean");

        let plan = FaultPlan::seeded(seed, count, 0.4);
        assert!(!plan.is_empty(), "seed {seed}: plan faults some jobs");
        let faulted = run_traffic(count, plan.clone());

        for i in 0..count {
            match plan.fault_for(i) {
                // (b) differential: every non-faulted job's digest is
                // bit-identical to the fault-free run's.
                None => assert_eq!(
                    faulted[&i], clean[&i],
                    "job {i} (seed {seed}) was perturbed by its faulted neighbours"
                ),
                // Every faulted job fails with exactly its planned mode.
                Some(Fault::Panic { .. }) => assert!(
                    matches!(faulted[&i], Err(JobError::Panicked(_))),
                    "job {i} (seed {seed}): expected panic, got {:?}",
                    faulted[&i]
                ),
                Some(Fault::Cancel { .. }) => assert_eq!(
                    faulted[&i],
                    Err(JobError::Cancelled),
                    "job {i} (seed {seed})"
                ),
                Some(Fault::Deadline { .. }) => assert_eq!(
                    faulted[&i],
                    Err(JobError::DeadlineExceeded),
                    "job {i} (seed {seed})"
                ),
            }
        }
    }
}

#[test]
fn panic_inside_a_pool_operator_is_isolated_and_leaves_the_arena_warm() {
    // The panic fires *inside* the pool's fork machinery (a poisoned
    // scan operator), not at a step checkpoint — the deepest place a
    // hostile job can crash from.
    let service = JobService::start(ServeConfig {
        processors: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    // Above the pool's wake floor: the scan really forks, so the poisoned
    // operator panics on a pool worker, under a join.
    let n = WAKE_GRAIN as u64 + 7_232;
    let expected = {
        let t = service.submit(JobSpec::new(0, job_scan(n))).unwrap();
        t.wait().outcome.expect("clean scan")
    };
    // Two warm-up rounds: the arena's LIFO shelves settle buffer
    // capacities only after roles stabilise across calls.
    for _ in 0..2 {
        let t = service.submit(JobSpec::new(0, job_scan(n))).unwrap();
        assert_eq!(t.wait().outcome, Ok(expected));
    }
    let warm = service.pool().workspace().stats().grown_bytes;

    let chunks = service.pool().chunk_count(n as usize) as u64;
    assert!(chunks > 1);
    for round in 0..10u64 {
        let poison = round * 4_001 % n;
        let hostile = service
            .submit(JobSpec::new(0, move |cx| {
                let data: Vec<u64> = (0..n).collect();
                let poisoned = move |a: u64, b: u64| {
                    // `b` walks every element during the fold, so a
                    // poison < n is guaranteed to be hit.
                    if b == poison && poison > 0 {
                        panic!("poisoned operator at {poison}");
                    }
                    a + b
                };
                cx.pool()
                    .scan_copy_in(&data, 0u64, poisoned, &mut Vec::new())
            }))
            .unwrap();
        let report = hostile.wait();
        if poison > 0 {
            assert!(
                matches!(report.outcome, Err(JobError::Panicked(_))),
                "round {round}: {:?}",
                report.outcome
            );
        }
        // The next clean job answers exactly, with exact fork
        // accounting, and the arena has not grown.
        let clean = service.submit(JobSpec::new(0, job_scan(n))).unwrap();
        let report = clean.wait();
        assert_eq!(report.outcome, Ok(expected), "round {round}");
        assert!(report.metrics_exclusive);
        assert_eq!(
            report.metrics.forks(),
            2 * (chunks - 1),
            "round {round}: fork accounting must stay exact after a panic"
        );
        assert_eq!(
            service.pool().workspace().stats().grown_bytes,
            warm,
            "round {round}: a panicked job must not grow the arena"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.panicked, 9); // round 0 has poison == 0 and succeeds
}

fn job_scan(n: u64) -> impl FnMut(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let data: Vec<u64> = (0..n).collect();
        cx.pool()
            .scan_copy_in(&data, 0u64, |a, b| a + b, &mut Vec::new())
    }
}

#[test]
fn saturation_burst_bounces_excess_and_never_exceeds_capacity() {
    let capacity = 8;
    let service = Arc::new(JobService::start(ServeConfig {
        queue_capacity: capacity,
        ..ServeConfig::default()
    }));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    let plug = service
        .submit(JobSpec::new(0, move |cx| {
            while !gate.load(Ordering::SeqCst) {
                cx.step();
                std::thread::yield_now();
            }
            0
        }))
        .unwrap();
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }

    // Four clients hammer the plugged service concurrently.
    let admitted: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let mut admitted = Vec::new();
                    for i in 0..200u64 {
                        match service.submit(JobSpec::new(0, move |_| i)) {
                            Ok(ticket) => admitted.push((i, ticket)),
                            Err(SubmitError::Rejected { queue_depth }) => {
                                // Backpressure reports a sane depth and
                                // the bound is never exceeded.
                                assert!(queue_depth <= capacity);
                            }
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                        assert!(service.queue_depth() <= capacity);
                    }
                    admitted
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Everything admitted completes exactly once the plug releases.
    release.store(true, Ordering::SeqCst);
    assert_eq!(plug.wait().outcome, Ok(0));
    let admitted_count = admitted.len() as u64;
    for (i, ticket) in admitted {
        assert_eq!(ticket.wait().outcome, Ok(i));
    }
    let service = Arc::into_inner(service).expect("all clients done");
    let stats = service.shutdown();
    assert_eq!(stats.queue_peak, capacity, "burst must fill the queue");
    assert_eq!(stats.submitted, admitted_count + 1);
    assert_eq!(stats.completed, admitted_count + 1);
    assert_eq!(stats.rejected, 4 * 200 - admitted_count);
    assert!(
        stats.rejected > 0,
        "a burst of 800 must overflow capacity 8"
    );
}

#[test]
fn no_tenant_starves_under_a_saturating_mixed_workload() {
    let per_tenant = 25u64;
    let service = Arc::new(JobService::start(ServeConfig {
        tenants: TENANTS,
        tenant_budget: 1,
        queue_capacity: (TENANTS as u64 * per_tenant) as usize,
        executors: 1,
        processors: 2,
        ..ServeConfig::default()
    }));
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let tickets: Vec<_> = (0..per_tenant)
                        .map(|k| {
                            let i = tenant as u64 * per_tenant + k;
                            service
                                .submit(JobSpec::new(tenant, job_body(i)))
                                .expect("queue sized to the full load")
                        })
                        .collect();
                    // Tickets come back in this tenant's submission order,
                    // so the body index is known by position — the
                    // service's own job ids follow arrival order across the
                    // three racing tenants and say nothing about `i`.
                    let first = tenant as u64 * per_tenant;
                    (first..)
                        .zip(tickets.into_iter().map(|t| t.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut forked = 0;
    for (i, report) in &reports {
        assert!(
            report.outcome.is_ok(),
            "job {}: {:?}",
            report.job,
            report.outcome
        );
        // (c) executors: 1 ⇒ every job's metrics are exclusive, so fork
        // accounting must be exact: the body's single scan costs
        // 2·(C − 1) forks and the stepping prologue costs none.
        assert!(report.metrics_exclusive);
        let chunks = service.pool().chunk_count(scan_len(*i) as usize) as u64;
        assert_eq!(
            report.metrics.forks(),
            2 * (chunks - 1),
            "job {i}: inexact fork accounting"
        );
        forked += u64::from(chunks > 1);
    }
    // Five of every seven lengths clear the wake floor: the exactness
    // above was checked on real fork trees, not only on zeros.
    assert!(forked > reports.len() as u64 / 2);
    let service = Arc::into_inner(service).expect("all clients done");
    let stats = service.shutdown();
    assert_eq!(
        stats.per_tenant_completed,
        vec![per_tenant; TENANTS],
        "every tenant must finish its full load"
    );
    assert_eq!(stats.fairness_ratio(), 1.0);
}
