//! Deterministic fault injection for the job service.
//!
//! A [`FaultPlan`] maps **job submission indices** (the `id` a
//! [`JobTicket`](crate::JobTicket) reports) to a [`Fault`] fired from
//! inside [`JobContext::step`](crate::JobContext::step).  Because the
//! plan is keyed on submission order and seeded plans draw from the
//! workspace's deterministic `rand` shim, a faulted run can be replayed
//! exactly — and compared differentially against a fault-free run with
//! the same seeds, which is how the test suite proves a hostile job
//! never perturbs its neighbours' results.

use std::collections::HashMap;

use rand::{Rng, SeedableRng, StdRng};

/// A fault fired cooperatively at a chosen step of a job's execution.
///
/// Faults fire from [`JobContext::step`](crate::JobContext::step), the
/// same hook well-behaved jobs poll for cancellation, so a fault lands
/// at a deterministic point in the job's own control flow rather than
/// at an arbitrary preemption point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic (`panic!`) at the given step, exercising the service
    /// boundary's panic isolation.
    Panic {
        /// 1-based step count at which the panic fires.
        at_step: u64,
    },
    /// Fire the job's own cancel token at the given step, exercising
    /// mid-flight cooperative cancellation.
    Cancel {
        /// 1-based step count at which the token is cancelled.
        at_step: u64,
    },
    /// Blow the job's deadline at the given step: busy-wait until the
    /// token's deadline passes, then let the next poll observe it.  If
    /// the job carries no deadline this degrades to [`Fault::Cancel`]
    /// (the only safe interpretation — there is nothing to blow).
    Deadline {
        /// 1-based step count at which the stall begins.
        at_step: u64,
    },
}

impl Fault {
    /// The 1-based step at which this fault fires.
    pub fn at_step(&self) -> u64 {
        match *self {
            Fault::Panic { at_step } | Fault::Cancel { at_step } | Fault::Deadline { at_step } => {
                at_step
            }
        }
    }
}

/// A deterministic map from job submission index to the fault injected
/// into that job.  Cheap to clone; cloning shares nothing mutable.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    by_job: HashMap<u64, Fault>,
}

impl FaultPlan {
    /// The empty plan: no job is faulted.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: inject `fault` into the job with submission index
    /// `job`.  Later calls for the same index overwrite earlier ones.
    pub fn inject(mut self, job: u64, fault: Fault) -> Self {
        self.by_job.insert(job, fault);
        self
    }

    /// A seeded plan over the first `jobs` submission indices: each job
    /// is faulted independently with probability `rate`, drawing the
    /// fault kind (panic / cancel / deadline, equiprobable) and a firing
    /// step in `1..=16` from the workspace's deterministic `rand` shim.
    /// Equal seeds give equal plans.
    pub fn seeded(seed: u64, jobs: u64, rate: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_job = HashMap::new();
        for job in 0..jobs {
            // Draw all three values unconditionally so each job consumes
            // a fixed amount of the stream: plans with different rates
            // but equal seeds fault the *same* jobs where they overlap.
            let roll: f64 = rng.gen_range(0.0..1.0);
            let kind: u32 = rng.gen_range(0..3u32);
            let at_step: u64 = rng.gen_range(1..17u64);
            if roll < rate {
                let fault = match kind {
                    0 => Fault::Panic { at_step },
                    1 => Fault::Cancel { at_step },
                    _ => Fault::Deadline { at_step },
                };
                by_job.insert(job, fault);
            }
        }
        FaultPlan { by_job }
    }

    /// The fault planned for submission index `job`, if any.
    pub fn fault_for(&self, job: u64) -> Option<Fault> {
        self.by_job.get(&job).copied()
    }

    /// Whether the plan faults no job at all.
    pub fn is_empty(&self) -> bool {
        self.by_job.is_empty()
    }

    /// The faulted submission indices in ascending order — the set a
    /// differential test must exclude when comparing digests against a
    /// fault-free run.
    pub fn faulted_jobs(&self) -> Vec<u64> {
        let mut jobs: Vec<u64> = self.by_job.keys().copied().collect();
        jobs.sort_unstable();
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 100, 0.3);
        let b = FaultPlan::seeded(42, 100, 0.3);
        assert_eq!(a.faulted_jobs(), b.faulted_jobs());
        for job in a.faulted_jobs() {
            assert_eq!(a.fault_for(job), b.fault_for(job));
        }
        assert!(!a.is_empty(), "rate 0.3 over 100 jobs must fault some");
        assert!(
            a.faulted_jobs().len() < 100,
            "rate 0.3 must not fault every job"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, 200, 0.5);
        let b = FaultPlan::seeded(2, 200, 0.5);
        assert_ne!(a.faulted_jobs(), b.faulted_jobs());
    }

    #[test]
    fn rate_zero_and_one_are_edge_exact() {
        assert!(FaultPlan::seeded(7, 50, 0.0).is_empty());
        assert_eq!(FaultPlan::seeded(7, 50, 1.0).faulted_jobs().len(), 50);
    }

    #[test]
    fn inject_overwrites() {
        let plan = FaultPlan::none()
            .inject(3, Fault::Panic { at_step: 1 })
            .inject(3, Fault::Cancel { at_step: 2 });
        assert_eq!(plan.fault_for(3), Some(Fault::Cancel { at_step: 2 }));
        assert_eq!(plan.fault_for(4), None);
        assert_eq!(plan.faulted_jobs(), vec![3]);
    }

    #[test]
    fn at_step_accessor_covers_all_kinds() {
        assert_eq!(Fault::Panic { at_step: 5 }.at_step(), 5);
        assert_eq!(Fault::Cancel { at_step: 6 }.at_step(), 6);
        assert_eq!(Fault::Deadline { at_step: 7 }.at_step(), 7);
    }
}
