//! Scheduler-retry chaos at the service layer: wake-ups dropped and
//! delayed, every steal forced through retry rounds, and both at once
//! while a third of the jobs fault.  Chaos may cost latency, never a
//! result — proved differentially against a fault-free, chaos-free run
//! of the same seeded traffic.  (The service itself runs each job once:
//! a faulted job reports its planned error and is not retried.)

mod common;

use common::{Fault, Kind};
use lopram_core::policy::WAKE_GRAIN;
use lopram_core::ChaosConfig;
use lopram_serve::{
    JobContext, JobError, JobReport, JobService, JobSpec, ServeConfig, ServiceStats,
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

/// Deterministic job body firing `fault`: a cooperative-stepping prologue
/// (so the fault lands at its planned step) followed by a pool scan whose
/// length straddles the pool's wake floor (`i % 5 < 2` stays one block on
/// the executor thread, the rest fork on the pool).  The digest depends
/// only on `i`.
fn job_body(i: u64, fault: Option<Fault>) -> impl FnOnce(&JobContext<'_>) -> u64 + Send + 'static {
    move |cx| {
        let mut acc = i.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        for s in 0..STEPS {
            common::step(cx, s + 1, fault);
            acc = acc.rotate_left(7) ^ s;
        }
        let len = WAKE_GRAIN as u64 - 512 + (i % 5) * 256;
        let data: Vec<u64> = (0..len).map(|j| j.wrapping_add(i)).collect();
        acc ^ cx
            .pool()
            .scan_copy_in(&data, 0u64, u64::wrapping_add, &mut Vec::new())
    }
}

/// Panic- and cancel-faults on every third job, at steps that vary with
/// `round`: the fault job `i` carries in that round.
fn faulted_third(round: u64, i: u64) -> Option<Fault> {
    i.is_multiple_of(3).then(|| Fault {
        kind: if i.is_multiple_of(2) {
            Kind::Panic
        } else {
            Kind::Cancel
        },
        at_step: 1 + (round + i) % 16,
    })
}

/// One round of seeded traffic — `count` [`job_body`] jobs over three
/// tenants, two executors and a two-processor pool — job `i` carrying
/// `plan(i)`, under a scheduler-chaos mix: every report in submission
/// order, and the service totals.
fn run_traffic(
    count: u64,
    plan: impl Fn(u64) -> Option<Fault>,
    chaos: ChaosConfig,
) -> (Vec<JobReport>, ServiceStats) {
    let service = JobService::start(ServeConfig {
        tenants: 3,
        tenant_budget: 2,
        executors: 2,
        processors: 2,
        queue_capacity: count as usize,
        chaos,
    });
    let tickets: Vec<_> = (0..count)
        .map(|i| {
            service
                .submit(JobSpec::new((i % 3) as usize, job_body(i, plan(i))))
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
    let (clean, _) = run_traffic(count, |_| None, ChaosConfig::none());
    assert!(clean.iter().all(|c| c.outcome.is_ok()));

    let wakeups = ChaosConfig::none().drop_wakeup(1).delay_wakeup(2);
    let steals = ChaosConfig::none().force_steal_retries(3);
    let both = wakeups.force_steal_retries(3);
    for round in 0..repeat() {
        let mixes = [
            ("faulted-both", both, true),
            ("dropped-wakeups", wakeups, false),
            ("steal-retries", steals, false),
        ];
        for (mix, chaos, faults) in mixes {
            let plan = |i| faulted_third(round, i).filter(|_| faults);
            let (reports, stats) = run_traffic(count, plan, chaos);
            let mut faulted = 0;
            for (c, r) in clean.iter().zip(&reports) {
                let ctx = format!("{mix}: job {} round {round}", c.job);
                match plan(c.job).map(|f| f.kind) {
                    None => assert_eq!(r.outcome, c.outcome, "{ctx}"),
                    Some(Kind::Panic) => {
                        faulted += 1;
                        assert!(matches!(r.outcome, Err(JobError::Panicked(_))), "{ctx}");
                    }
                    Some(Kind::Cancel) => {
                        faulted += 1;
                        assert_eq!(r.outcome, Err(JobError::Cancelled), "{ctx}");
                    }
                    Some(Kind::Deadline) => unreachable!("{ctx}: no deadline faults"),
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
