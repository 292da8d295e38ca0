//! Scheduler-retry chaos at the service layer: wake-ups dropped and
//! delayed, every steal forced through retry rounds, and both at once
//! while a third of the jobs fault.  Chaos may cost latency, never a
//! result — proved differentially against a fault-free, chaos-free run
//! of the same seeded traffic.  (The service itself runs each job once:
//! a faulted job reports its planned error and is not retried.)

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::ChaosConfig;
use lopram_serve::{
    Fault, FaultPlan, JobContext, JobError, JobReport, JobService, JobSpec, ServeConfig,
    ServiceStats,
};

/// Stress multiplier: `LOPRAM_TEST_REPEAT=20` (CI serve-stress job)
/// re-runs the differential check under more fault placements.
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
/// only on `i`.
fn job_body(i: u64) -> impl FnOnce(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let mut acc = i.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        for s in 0..STEPS {
            cx.step();
            acc = acc.rotate_left(7) ^ s;
        }
        let len = WAKE_GRAIN as u64 - 512 + (i % 5) * 256;
        let data: Vec<u64> = (0..len).map(|j| j.wrapping_add(i)).collect();
        acc ^ cx
            .pool()
            .scan_copy_in(&data, 0u64, u64::wrapping_add, &mut Vec::new())
    }
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
fn run_traffic(count: u64, plan: FaultPlan, chaos: ChaosConfig) -> (Vec<JobReport>, ServiceStats) {
    let service = JobService::start(ServeConfig {
        tenants: 3,
        tenant_budget: 2,
        executors: 2,
        processors: 2,
        queue_capacity: count as usize,
        fault_plan: plan,
        chaos,
        ..ServeConfig::default()
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
fn traffic_digests_survive_every_scheduler_chaos_mix() {
    // Every unfaulted job ends Ok with the clean run's digest under every
    // mix; every faulted job fails in exactly its planned mode.
    let count = 30u64;
    let (clean, _) = run_traffic(count, FaultPlan::none(), ChaosConfig::none());
    assert!(clean.iter().all(|c| c.outcome.is_ok()));

    let wakeups = ChaosConfig::none().drop_wakeup(1).delay_wakeup(2);
    let steals = ChaosConfig::none().force_steal_retries(3);
    let both = wakeups.force_steal_retries(3);
    for round in 0..repeat() {
        let mixes = [
            ("faulted-both", both, faulted_third(count, round)),
            ("dropped-wakeups", wakeups, FaultPlan::none()),
            ("steal-retries", steals, FaultPlan::none()),
        ];
        for (mix, chaos, plan) in mixes {
            let (reports, stats) = run_traffic(count, plan.clone(), chaos);
            let mut faulted = 0;
            for (c, r) in clean.iter().zip(&reports) {
                let ctx = format!("{mix}: job {} round {round}", c.job);
                match plan.fault_for(c.job) {
                    None => assert_eq!(r.outcome, c.outcome, "{ctx}"),
                    Some(Fault::Panic { .. }) => {
                        faulted += 1;
                        assert!(matches!(r.outcome, Err(JobError::Panicked(_))), "{ctx}");
                    }
                    Some(Fault::Cancel { .. }) => {
                        faulted += 1;
                        assert_eq!(r.outcome, Err(JobError::Cancelled), "{ctx}");
                    }
                    Some(Fault::Deadline { .. }) => unreachable!("{ctx}: no deadline faults"),
                }
            }
            assert_eq!(stats.completed, count - faulted, "{mix} round {round}");
            assert_eq!(
                stats.panicked + stats.cancelled,
                faulted,
                "{mix} round {round}"
            );
        }
    }
}
