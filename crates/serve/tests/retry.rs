//! Retry-with-backoff acceptance suite:
//!
//! (a) a panic- or cancel-faulted job is re-dispatched with a clean
//!     token and no fault, and its retried digest is **bit-identical**
//!     to a fault-free run's — proved differentially;
//! (b) retries exhaust to the terminal error with exact attempt
//!     accounting, and client cancels are verdicts, never retried;
//! (c) backoff is a pure function of `(seed, job, attempt)`;
//! (d) scheduler chaos (dropped and delayed wake-ups, forced steal
//!     retries) costs latency, never a digest.

use std::error::Error;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::ChaosConfig;
use lopram_serve::{
    Fault, FaultPlan, JobContext, JobError, JobReport, JobService, JobSpec, RetryPolicy,
    ServeConfig, ServiceStats,
};

/// Stress multiplier: `LOPRAM_TEST_REPEAT=20` (CI chaos-stress job)
/// re-runs the differential checks under more seeds.
fn repeat() -> u64 {
    std::env::var("LOPRAM_TEST_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

const STEPS: u64 = 24; // > the largest at_step used below: every fault fires

/// Deterministic job body: a cooperative-stepping prologue (so injected
/// faults land at their planned step) followed by a pool scan whose
/// length straddles the pool's wake floor (`i % 5 < 2` stays one block on
/// the executor thread, the rest fork on the pool).  The digest depends
/// only on `i`, so a retried run must reproduce it bit-identically.
fn job_body(i: u64) -> impl FnMut(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let mut acc = i.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        for s in 0..STEPS {
            cx.step();
            acc = acc.rotate_left(7) ^ s;
        }
        let len = WAKE_GRAIN as u64 - 512 + (i % 5) * 256;
        let data: Vec<u64> = (0..len).map(|j| j.wrapping_add(i)).collect();
        acc ^ cx.pool().scan(&data, 0u64, |a, b| a.wrapping_add(*b)).total
    }
}

fn retrying_config(plan: FaultPlan, max_retries: u32) -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        fault_plan: plan,
        retry: RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    }
}

#[test]
fn panic_fault_is_retried_to_a_clean_digest() {
    // The clean digest, from a fault-free service.
    let clean = JobService::start(retrying_config(FaultPlan::none(), 0));
    let expect = clean
        .submit(JobSpec::new(0, job_body(0)))
        .unwrap()
        .wait()
        .outcome;
    clean.shutdown();
    assert!(expect.is_ok());

    let plan = FaultPlan::none().inject(0, Fault::Panic { at_step: 3 });
    let service = JobService::start(retrying_config(plan, 2));
    let report = service.submit(JobSpec::new(0, job_body(0))).unwrap().wait();
    assert_eq!(report.outcome, expect, "retried digest is bit-identical");
    assert_eq!(report.attempts, 2, "one faulted attempt, one clean retry");
    let stats = service.shutdown();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.panicked, 0, "only terminal attempts hit the counters");
}

#[test]
fn cancel_fault_is_retried_but_client_cancel_is_not() {
    // A fault-injected cancel is transient: retried to success.
    let plan = FaultPlan::none().inject(0, Fault::Cancel { at_step: 5 });
    let service = JobService::start(retrying_config(plan, 1));
    let report = service.submit(JobSpec::new(0, job_body(0))).unwrap().wait();
    assert!(report.outcome.is_ok(), "got {:?}", report.outcome);
    assert_eq!(report.attempts, 2);
    assert_eq!(service.shutdown().retries, 1);

    // A client cancel is a verdict: terminal on the spot, even with
    // retries configured.  Cancel while queued (before any dispatch).
    let service = JobService::start(ServeConfig {
        executors: 1,
        tenant_budget: 1,
        queue_capacity: 8,
        retry: RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    });
    // A slow job holds the single executor while we cancel the one
    // queued behind it.
    let gate = service
        .submit(JobSpec::new(0, |_cx| {
            std::thread::sleep(Duration::from_millis(50));
            1
        }))
        .unwrap();
    let victim = service.submit(JobSpec::new(0, job_body(1))).unwrap();
    victim.cancel();
    let report = victim.wait();
    assert_eq!(report.outcome, Err(JobError::Cancelled));
    assert_eq!(report.attempts, 1);
    assert!(gate.wait().outcome.is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.retries, 0, "client cancels are never retried");
    assert_eq!(stats.cancelled, 1);
}

#[test]
fn retries_exhaust_to_the_terminal_error_with_exact_attempt_accounting() {
    let attempts_seen = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&attempts_seen);
    let service = JobService::start(retrying_config(FaultPlan::none(), 2));
    let report = service
        .submit(JobSpec::new(0, move |_cx| {
            seen.fetch_add(1, Ordering::SeqCst);
            panic!("hostile every time");
        }))
        .unwrap()
        .wait();
    assert!(matches!(report.outcome, Err(JobError::Panicked(_))));
    assert_eq!(report.attempts, 3, "1 first attempt + 2 retries");
    assert_eq!(
        attempts_seen.load(Ordering::SeqCst),
        3,
        "body ran each time"
    );
    let stats = service.shutdown();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.panicked, 1, "one terminal failure, not three");
    assert_eq!(stats.completed, 0);
}

#[test]
fn per_job_retries_override_the_service_default() {
    // Service default allows no retries; the spec opts in.
    let plan = FaultPlan::none()
        .inject(0, Fault::Panic { at_step: 2 })
        .inject(1, Fault::Panic { at_step: 2 });
    let service = JobService::start(retrying_config(plan, 0));
    let healed = service
        .submit(JobSpec::new(0, job_body(0)).retries(1))
        .unwrap()
        .wait();
    assert!(healed.outcome.is_ok(), "got {:?}", healed.outcome);
    assert_eq!(healed.attempts, 2);
    let unhealed = service.submit(JobSpec::new(0, job_body(1))).unwrap().wait();
    assert!(matches!(unhealed.outcome, Err(JobError::Panicked(_))));
    assert_eq!(unhealed.attempts, 1);
    service.shutdown();
}

#[test]
fn deadline_expiry_is_never_retried() {
    let plan = FaultPlan::none().inject(0, Fault::Deadline { at_step: 2 });
    let service = JobService::start(retrying_config(plan, 3));
    let report = service
        .submit(JobSpec::new(0, job_body(0)).deadline(Duration::from_millis(40)))
        .unwrap()
        .wait();
    assert_eq!(report.outcome, Err(JobError::DeadlineExceeded));
    assert_eq!(report.attempts, 1);
    assert_eq!(service.shutdown().retries, 0);
}

#[test]
fn backoff_is_a_pure_function_of_seed_job_and_attempt() {
    let policy = RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(50),
        jitter_seed: 0xB0FF,
    };
    for job in [0u64, 1, 17, u64::MAX] {
        for attempt in 1..=4u32 {
            let a = policy.backoff(job, attempt);
            let b = policy.backoff(job, attempt);
            assert_eq!(a, b, "deterministic for job {job} attempt {attempt}");
            // base·2^(k−1) ≤ delay ≤ min(base·2^(k−1) + base, cap)
            let floor = policy.base_backoff * (1 << (attempt - 1));
            assert!(a >= floor.min(policy.max_backoff), "floor: {a:?}");
            assert!(a <= policy.max_backoff, "cap: {a:?}");
        }
    }
    // Different seeds move the jitter for at least one (job, attempt).
    let other = RetryPolicy {
        jitter_seed: 0xD00D,
        ..policy
    };
    let moved = (0..64u64).any(|job| policy.backoff(job, 1) != other.backoff(job, 1));
    assert!(moved, "jitter must depend on the seed");
    // Zero base disables delay entirely.
    let none = RetryPolicy {
        base_backoff: Duration::ZERO,
        ..policy
    };
    assert_eq!(none.backoff(3, 2), Duration::ZERO);
}

/// Panic- and cancel-faults on every third job of a `count`-job round,
/// at steps that vary with `round`.
fn faulted_third(count: u64, round: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for i in (0..count).step_by(3) {
        let at_step = 1 + (round + i) % 16;
        let fault = if i % 2 == 0 {
            Fault::Panic { at_step }
        } else {
            Fault::Cancel { at_step }
        };
        plan = plan.inject(i, fault);
    }
    plan
}

/// One round of seeded traffic — `count` [`job_body`] jobs over three
/// tenants, two executors and a two-processor pool — under a fault plan
/// and a scheduler-chaos mix: every report in submission order, and the
/// service totals.
fn run_traffic(
    count: u64,
    plan: FaultPlan,
    retries: u32,
    chaos: ChaosConfig,
) -> (Vec<JobReport>, ServiceStats) {
    let service = JobService::start(ServeConfig {
        tenants: 3,
        tenant_budget: 2,
        executors: 2,
        queue_capacity: count as usize,
        chaos,
        ..retrying_config(plan, retries)
    });
    let tickets: Vec<_> = (0..count)
        .map(|i| {
            service
                .submit(JobSpec::new((i % 3) as usize, job_body(i)))
                .expect("capacity sized to count")
        })
        .collect();
    let reports = tickets.into_iter().map(|t| t.wait()).collect();
    (reports, service.shutdown())
}

#[test]
fn retried_traffic_digests_match_a_clean_run() {
    // Differential acceptance: seeded traffic where a third of the jobs
    // are panic- or cancel-faulted, retries on — EVERY job must finish
    // Ok with the digest of the fault-free run, faulted ones with
    // attempts > 1.
    let count = 30u64;
    let quiet = |plan, retries| run_traffic(count, plan, retries, ChaosConfig::none());
    for round in 0..repeat() {
        let plan = faulted_third(count, round);
        let (clean, _) = quiet(FaultPlan::none(), 0);
        let (healed, stats) = quiet(plan.clone(), 2);
        for (c, h) in clean.iter().zip(&healed) {
            assert_eq!(h.outcome, c.outcome, "job {} round {round}", c.job);
            if plan.fault_for(c.job).is_some() {
                assert!(h.attempts > 1, "faulted job {} must retry", c.job);
            } else {
                assert_eq!(h.attempts, 1, "clean job {} must not retry", c.job);
            }
        }
        assert_eq!(stats.completed, count, "round {round}: all heal to Ok");
        assert_eq!(stats.retries, plan.len() as u64, "round {round}");
        assert_eq!(stats.panicked + stats.cancelled, 0, "round {round}");
    }
}

#[test]
fn traffic_digests_survive_every_scheduler_chaos_mix() {
    // The same differential with the scheduler itself under attack:
    // wake-ups dropped and delayed, every steal forced through retry
    // rounds, and both at once while a third of the jobs fault and
    // retry.  Chaos may cost latency, never a result: every job Ok with
    // the clean run's digest, and a retry only where a fault was planned.
    let count = 30u64;
    let (clean, _) = run_traffic(count, FaultPlan::none(), 0, ChaosConfig::none());
    assert!(clean.iter().all(|c| c.outcome.is_ok()));

    let wakeups = ChaosConfig::none().drop_wakeup(1).delay_wakeup(2);
    let steals = ChaosConfig::none().force_steal_retries(3);
    let both = wakeups.force_steal_retries(3);
    for round in 0..repeat() {
        let mixes = [
            ("faults-retried", both, faulted_third(count, round)),
            ("dropped-wakeups", wakeups, FaultPlan::none()),
            ("steal-retries", steals, FaultPlan::none()),
        ];
        for (mix, chaos, plan) in mixes {
            let (reports, stats) = run_traffic(count, plan.clone(), 2, chaos);
            for (c, r) in clean.iter().zip(&reports) {
                assert_eq!(r.outcome, c.outcome, "{mix}: job {} round {round}", c.job);
                assert_eq!(
                    r.attempts > 1,
                    plan.fault_for(c.job).is_some(),
                    "{mix}: job {} took {} attempts, round {round}",
                    c.job,
                    r.attempts
                );
            }
            assert_eq!(stats.completed, count, "{mix} round {round}");
            assert_eq!(stats.retries, plan.len() as u64, "{mix} round {round}");
        }
    }
}

#[test]
fn fairness_ratio_edge_cases() {
    // Satellite: the degenerate shapes of the fairness number.
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
    // Satellite: both error types thread through `?` as
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
