//! The fault-injection acceptance suite:
//!
//! (a) a saturated bounded queue rejects with backpressure and never
//!     grows past capacity;
//! (b) a panicking / cancelled / deadline-blown job never poisons the
//!     pool or the workspace arena and never perturbs other jobs'
//!     results — proved differentially against a fault-free run of the
//!     same seeded traffic, with each fault fired by the job's own body
//!     (`common`);
//! (c) no tenant starves under a saturating mixed workload, and the
//!     pool's fork count stays exact across it.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{Fault, Kind};
use lopram_core::policy::WAKE_GRAIN;
use lopram_serve::{JobContext, JobError, JobService, JobSpec, ServeConfig, SubmitError};

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

/// The deterministic job body for submission index `i`, which fires
/// `fault` at its step.  Digest depends only on `i`: a fixed
/// cooperative-stepping prologue (so the fault lands at its planned
/// step) followed by a pool scan (so the jobs exercise forks and the
/// workspace arena).
fn job_body(i: u64, fault: Option<Fault>) -> impl FnOnce(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let mut acc = i.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        for s in 0..STEPS {
            common::step(cx, s + 1, fault);
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

/// Run `count` traffic jobs through a fresh service, job `i` carrying
/// `plan(i)`, returning each job's outcome by submission index.
fn run_traffic(count: u64, plan: impl Fn(u64) -> Option<Fault>) -> Vec<Result<u64, JobError>> {
    let service = JobService::start(ServeConfig {
        tenants: TENANTS,
        tenant_budget: 2,
        queue_capacity: count as usize,
        executors: 2,
        processors: 2,
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = (0..count)
        .map(|i| {
            let fault = plan(i);
            let mut spec = JobSpec::new(tenant_of(i), job_body(i, fault));
            // A deadline fault polls until the job's deadline passes, so
            // deadline-faulted jobs need one short enough to test quickly.
            if fault.is_some_and(|f| f.kind == Kind::Deadline) {
                spec = spec.deadline(Duration::from_millis(100));
            }
            service.submit(spec).expect("capacity sized to count")
        })
        .collect();
    let outcomes = tickets.into_iter().map(|t| t.wait().outcome).collect();
    service.shutdown();
    outcomes
}

#[test]
fn faulted_jobs_fail_their_own_way_and_perturb_nothing_else() {
    let count = 48;
    for round in 0..repeat() {
        let seed = 0xFA_017 + round;
        let clean = run_traffic(count, |_| None);
        assert!(clean.iter().all(|o| o.is_ok()), "fault-free run is clean");

        let plan = |i| common::seeded(seed, i, 0.4);
        for kind in [Kind::Panic, Kind::Cancel, Kind::Deadline] {
            assert!(
                (0..count).any(|i| plan(i).is_some_and(|f| f.kind == kind)),
                "seed {seed}: no job carries a {kind:?} fault"
            );
        }
        let faulted = run_traffic(count, plan);

        for (i, (faulted, clean)) in (0..count).zip(faulted.iter().zip(&clean)) {
            match plan(i).map(|f| f.kind) {
                // (b) differential: every non-faulted job's digest is
                // bit-identical to the fault-free run's.
                None => assert_eq!(
                    faulted, clean,
                    "job {i} (seed {seed}) was perturbed by its faulted neighbours"
                ),
                // Every faulted job fails with exactly its planned mode.
                Some(Kind::Panic) => assert!(
                    matches!(faulted, Err(JobError::Panicked(_))),
                    "job {i} (seed {seed}): expected panic, got {faulted:?}"
                ),
                Some(Kind::Cancel) => {
                    assert_eq!(faulted, &Err(JobError::Cancelled), "job {i} (seed {seed})")
                }
                Some(Kind::Deadline) => assert_eq!(
                    faulted,
                    &Err(JobError::DeadlineExceeded),
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
        // accounting, and the arena has not grown.  One client and one
        // executor: the pool's delta around the job is the job's own.
        let (report, delta) = service.pool().scoped_metrics(|| {
            let clean = service.submit(JobSpec::new(0, job_scan(n))).unwrap();
            clean.wait()
        });
        assert_eq!(report.outcome, Ok(expected), "round {round}");
        assert_eq!(
            delta.forks(),
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

fn job_scan(n: u64) -> impl FnOnce(&JobContext<'_>) -> u64 + Send + 'static {
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
    let before = service.pool().metrics().snapshot();
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let tickets: Vec<_> = (0..per_tenant)
                        .map(|k| {
                            let i = tenant as u64 * per_tenant + k;
                            service
                                .submit(JobSpec::new(tenant, job_body(i, None)))
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
    let delta = service.pool().metrics().snapshot().delta_since(&before);
    let (mut forks, mut forked) = (0, 0);
    for (i, report) in &reports {
        assert!(
            report.outcome.is_ok(),
            "job {}: {:?}",
            report.job,
            report.outcome
        );
        // (c) each body's single scan costs 2·(C − 1) forks and its
        // stepping prologue costs none.
        let chunks = service.pool().chunk_count(scan_len(*i) as usize) as u64;
        forks += 2 * (chunks - 1);
        forked += u64::from(chunks > 1);
    }
    // Every job has reported, so the pool's delta over the run is the
    // sum of their fork trees, exactly.
    assert_eq!(delta.forks(), forks, "inexact fork accounting");
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
