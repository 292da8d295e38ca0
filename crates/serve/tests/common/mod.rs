//! Faults the serve suites inject from inside their own job bodies,
//! through public API only.  A job body calls [`step`] at each of its
//! checkpoints; the fault planned for that job fires at its step.

use std::panic::resume_unwind;

use lopram_core::runtime::cancel::CancelUnwind;
use lopram_core::CancelReason;
use lopram_serve::JobContext;

/// How a faulted job fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `panic!`: the service reports `JobError::Panicked`.
    Panic,
    /// The unwind [`JobContext::step`] raises for a cancelled token: the
    /// service reports `JobError::Cancelled`.
    Cancel,
    /// Poll until the job's own deadline unwinds it: the service reports
    /// `JobError::DeadlineExceeded`.  The job must carry a deadline.
    Deadline,
}

/// A fault and the 1-based checkpoint at which it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    pub kind: Kind,
    pub at_step: u64,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fault job `job` carries under `seed`, a pure function of the two:
/// with probability `rate` one of the three kinds, equiprobable, at a
/// step in `1..=16`.  Equal seeds plan equal faults.
#[allow(dead_code)] // `retry.rs` plans its faults by position instead
pub fn seeded(seed: u64, job: u64, rate: f64) -> Option<Fault> {
    let roll = mix(seed ^ mix(job));
    if (roll >> 11) as f64 >= rate * (1u64 << 53) as f64 {
        return None;
    }
    let draw = mix(roll);
    let kind = [Kind::Panic, Kind::Cancel, Kind::Deadline][(draw % 3) as usize];
    Some(Fault {
        kind,
        at_step: 1 + (draw >> 32) % 16,
    })
}

/// Checkpoint `n` (1-based) of a job body that carries `fault`: poll the
/// job's token, then fire the fault if it is due at this checkpoint.
pub fn step(cx: &JobContext<'_>, n: u64, fault: Option<Fault>) {
    cx.step();
    let Some(fault) = fault.filter(|f| f.at_step == n) else {
        return;
    };
    match fault.kind {
        Kind::Panic => panic!("injected fault: panic at step {n}"),
        Kind::Cancel => resume_unwind(Box::new(CancelUnwind {
            reason: CancelReason::Cancelled,
        })),
        Kind::Deadline => loop {
            cx.step();
        },
    }
}
