//! Cooperative cancellation for pal-thread computations.
//!
//! A [`CancelToken`] is a shared flag (plus an optional deadline) that a
//! running computation polls at its natural yield points — every
//! [`PalPool::join`](super::PalPool::join) fork boundary and every block
//! boundary of the data-parallel primitives and
//! [`for_each_index`](super::PalPool::for_each_index).  When the
//! token fires, the poll unwinds the computation with a private payload
//! ([`CancelUnwind`]) that rides the pool's existing panic-propagation
//! machinery: every in-flight pal-thread of the computation unwinds at its
//! own next checkpoint, arena guards and depth counters restore via their
//! usual RAII drops, and [`run_cancellable`] catches the payload at the
//! entry point and turns it back into a [`CancelReason`].  Because the
//! checkpoints sit at fork and chunk granularity, a fired token costs at
//! most one grain of extra work per worker before the unwind starts —
//! the O(grain) cancellation bound the serving layer relies on.
//!
//! # Ambient propagation
//!
//! The active token travels in a thread-local, not in closure captures, so
//! the runtime's hot paths stay signature-compatible and zero-cost when no
//! token is installed: [`checkpoint`] is one thread-local flag read plus a
//! predictable branch.  [`run_cancellable`] installs the token on the
//! calling thread; the pool re-installs it on whichever worker executes a
//! *scheduled* fork (stolen pal-threads carry their token with them, like
//! they carry their recursion depth).  Crucially the pool installs the
//! fork's ambient state even when it is "no token": a help-first joining
//! worker can pick up an unrelated pending pal-thread mid-wait, and that
//! pal-thread must be checked against *its* computation's token — or
//! nothing — never against the token of the computation the worker happens
//! to be parked in.
//!
//! # Deadlines
//!
//! A token built with [`CancelToken::with_deadline`] self-fires: there is
//! no reaper thread; instead every poll checks the fired flag, and every
//! [`DEADLINE_STRIDE`]-th poll on a deadline-carrying token also reads the
//! monotonic clock.  Detection latency is therefore bounded by
//! `DEADLINE_STRIDE` checkpoints of work on the polling worker — still
//! O(grain)-ish in practice — while the hot path never pays a syscall-ish
//! `Instant::now()` per fork.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll stride for the deadline clock check: a deadline-carrying token
/// reads `Instant::now()` on every `DEADLINE_STRIDE`-th checkpoint (the
/// explicit polls of [`CancelToken::poll_now`] always read it).
pub const DEADLINE_STRIDE: u32 = 64;

/// Why a cancellable computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (client abandoned the job, the
    /// service shut down, a fault plan fired, …).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Cancelled => write!(f, "cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The unwind payload [`checkpoint`] raises when the ambient token has
/// fired.
///
/// It deliberately does **not** go through `panic!`, so the global panic
/// hook never prints a backtrace for a routine cancellation; the payload
/// still propagates through `catch_unwind`-based machinery (the pool's
/// join panic plumbing) exactly like a panic payload would.
/// [`run_cancellable`] downcasts it back at the computation's entry
/// point; an escaping `CancelUnwind` outside a cancellable region means a
/// checkpoint fired with no [`run_cancellable`] frame below it — a bug in
/// the caller's nesting, surfaced loudly.
#[derive(Debug)]
pub struct CancelUnwind {
    /// Why the computation unwound.
    pub reason: CancelReason,
}

/// `fired` encoding: still live.
const LIVE: u8 = 0;
/// `fired` encoding: [`CancelToken::cancel`] called.
const CANCELLED: u8 = 1;
/// `fired` encoding: deadline observed blown.
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    /// `LIVE` / `CANCELLED` / `DEADLINE`; writes race benignly (first
    /// CAS winner decides the reason).
    fired: AtomicU8,
    /// Absolute deadline, fixed at construction.
    deadline: Option<Instant>,
    /// Checkpoint poll counter, used only to stride the deadline clock
    /// reads.
    polls: AtomicU32,
}

/// A shared cancellation flag with an optional deadline; see the
/// [module docs](self) for the propagation and unwind contract.
///
/// Cloning is cheap (an `Arc` bump) and all clones observe the same
/// state: typically one clone lives with the client (to call
/// [`cancel`](CancelToken::cancel)) and one is installed in the
/// computation via [`run_cancellable`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline: fires only via
    /// [`cancel`](CancelToken::cancel).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                fired: AtomicU8::new(LIVE),
                deadline: None,
                polls: AtomicU32::new(0),
            }),
        }
    }

    /// A token that self-fires once `deadline` of wall time has elapsed
    /// from now (checked lazily at checkpoints — see the module docs for
    /// the detection-latency bound).
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken::with_deadline_at(Instant::now() + deadline)
    }

    /// A token that self-fires at the absolute instant `deadline`.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                fired: AtomicU8::new(LIVE),
                deadline: Some(deadline),
                polls: AtomicU32::new(0),
            }),
        }
    }

    /// Fire the token: every computation polling it unwinds at its next
    /// checkpoint with [`CancelReason::Cancelled`].  Idempotent; a token
    /// that already fired (either way) keeps its first reason.
    pub fn cancel(&self) {
        let _ = self.inner.fired.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The reason this token has fired, if it has.  Does not read the
    /// clock — a blown-but-unobserved deadline reports `None` until some
    /// poll observes it ([`poll_now`](CancelToken::poll_now) to force).
    pub fn fired(&self) -> Option<CancelReason> {
        match self.inner.fired.load(Ordering::Relaxed) {
            LIVE => None,
            CANCELLED => Some(CancelReason::Cancelled),
            _ => Some(CancelReason::DeadlineExceeded),
        }
    }

    /// The token's absolute deadline, if it carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Poll including an **unstrided** deadline clock read: the check a
    /// computation's entry/exit points use, where one `Instant::now()` is
    /// cheap relative to the work being bracketed.
    pub fn poll_now(&self) -> Option<CancelReason> {
        if self.inner.deadline.is_some() {
            self.poll_at(Instant::now())
        } else {
            self.fired()
        }
    }

    /// [`poll_now`](CancelToken::poll_now) against a caller-supplied
    /// clock reading: the deadline fires iff `now >= deadline`.
    ///
    /// This is the primitive for single-read dispatch paths: a caller
    /// that must make several timing decisions about one event (queue
    /// wait, deadline verdict, start stamp) takes **one** `Instant::now()`
    /// and derives all of them from it, instead of racing a sequence of
    /// clock reads against the deadline — where an earlier read can pass
    /// the check while a later read is already past it (the
    /// `lopram-serve` dispatch bug this replaced).
    pub fn poll_at(&self, now: Instant) -> Option<CancelReason> {
        if let Some(reason) = self.fired() {
            return Some(reason);
        }
        if let Some(deadline) = self.inner.deadline {
            if now >= deadline {
                let _ = self.inner.fired.compare_exchange(
                    LIVE,
                    DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // Re-read: a concurrent cancel() may have won the race and
                // its reason takes precedence.
                return self.fired();
            }
        }
        None
    }

    /// The strided checkpoint poll: always reads the fired flag, reads
    /// the clock only every [`DEADLINE_STRIDE`]-th call on a
    /// deadline-carrying token.
    fn poll(&self) -> Option<CancelReason> {
        if let Some(reason) = self.fired() {
            return Some(reason);
        }
        if self.inner.deadline.is_some() {
            let n = self.inner.polls.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(DEADLINE_STRIDE) {
                return self.poll_now();
            }
        }
        None
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// Fast mirror of `AMBIENT.is_some()`: the only state [`checkpoint`]
    /// touches when no token is installed.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The token of the computation currently running on this thread.
    static AMBIENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// RAII restore of the previous ambient token (also on unwind).
struct RestoreAmbient(Option<CancelToken>);

impl Drop for RestoreAmbient {
    fn drop(&mut self) {
        let prev = self.0.take();
        ACTIVE.with(|a| a.set(prev.is_some()));
        AMBIENT.with(|t| *t.borrow_mut() = prev);
    }
}

/// Run `f` with `token` installed as this thread's ambient cancellation
/// state, restoring the previous state afterwards (also on unwind).
///
/// `None` is installed *actively*: it clears any token the thread was
/// carrying, which is exactly what a scheduled pal-thread of an
/// un-cancellable computation needs when it runs on a worker that was
/// mid-checkpoint in a cancellable one (help-first joins make that
/// interleaving routine).
pub fn with_ambient<R>(token: Option<CancelToken>, f: impl FnOnce() -> R) -> R {
    let prev = AMBIENT.with(|t| t.borrow_mut().take());
    ACTIVE.with(|a| a.set(token.is_some()));
    AMBIENT.with(|t| *t.borrow_mut() = token);
    let _restore = RestoreAmbient(prev);
    f()
}

/// Clone of this thread's ambient token (what the pool attaches to a
/// scheduled fork so a thief inherits it).
pub(super) fn ambient() -> Option<CancelToken> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    AMBIENT.with(|t| t.borrow().clone())
}

/// Poll the ambient cancellation token, unwinding with [`CancelUnwind`]
/// if it has fired.
///
/// This is the hook the runtime calls at every fork boundary and every
/// blocked-pass chunk boundary.  With no ambient token it is one
/// thread-local flag read and a never-taken branch; algorithm code with
/// natural sequential phases (a level loop, a pointer-jumping round) may
/// also call it directly to tighten its own cancellation latency.
#[inline]
pub fn checkpoint() {
    if ACTIVE.with(Cell::get) {
        poll_ambient();
    }
}

#[cold]
fn poll_ambient() {
    // Poll through the borrow, and unwind only once it has ended.
    let fired = AMBIENT.with(|t| t.borrow().as_ref().and_then(CancelToken::poll));
    if let Some(reason) = fired {
        std::panic::resume_unwind(Box::new(CancelUnwind { reason }));
    }
}

/// Run `f` under `token`: install it as the ambient token, catch the
/// cancellation unwind at this boundary, and report how the computation
/// ended.
///
/// Returns `Ok(result)` when `f` completes, `Err(reason)` when a
/// checkpoint observed the token fired (including a token that was
/// already fired on entry — `f` is then never called).  A genuine panic
/// in `f` is **not** caught: it propagates to the caller unchanged, so a
/// service boundary stacking `catch_unwind` outside `run_cancellable`
/// can tell "cancelled" from "crashed" without inspecting payloads.
pub fn run_cancellable<R>(token: &CancelToken, f: impl FnOnce() -> R) -> Result<R, CancelReason> {
    if let Some(reason) = token.poll_now() {
        return Err(reason);
    }
    let result = with_ambient(Some(token.clone()), || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
    });
    match result {
        Ok(value) => Ok(value),
        Err(payload) => match payload.downcast::<CancelUnwind>() {
            Ok(unwind) => Err(unwind.reason),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let token = CancelToken::new();
        assert_eq!(token.fired(), None);
        assert_eq!(token.poll_now(), None);
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_fires_once_and_sticks() {
        let token = CancelToken::new();
        token.cancel();
        token.cancel();
        assert_eq!(token.fired(), Some(CancelReason::Cancelled));
        assert_eq!(token.poll_now(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert_eq!(clone.fired(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_fires_on_poll_now() {
        let token = CancelToken::with_deadline_at(Instant::now() - Duration::from_millis(1));
        // fired() alone never reads the clock.
        assert_eq!(token.fired(), None);
        assert_eq!(token.poll_now(), Some(CancelReason::DeadlineExceeded));
        // …and the observation sticks.
        assert_eq!(token.fired(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn explicit_cancel_beats_later_deadline_observation() {
        let token = CancelToken::with_deadline_at(Instant::now() - Duration::from_millis(1));
        token.cancel();
        assert_eq!(token.poll_now(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn run_cancellable_completes_a_live_computation() {
        let token = CancelToken::new();
        assert_eq!(run_cancellable(&token, || 41 + 1), Ok(42));
    }

    #[test]
    fn run_cancellable_short_circuits_a_fired_token() {
        let token = CancelToken::new();
        token.cancel();
        let result = run_cancellable(&token, || panic!("must not run"));
        assert_eq!(result, Err(CancelReason::Cancelled));
    }

    #[test]
    fn checkpoint_unwinds_to_the_entry_point() {
        let token = CancelToken::new();
        let result = run_cancellable(&token, || {
            token.cancel();
            checkpoint();
            unreachable!("checkpoint must unwind");
        });
        assert_eq!(result, Err(CancelReason::Cancelled));
    }

    #[test]
    fn checkpoint_outside_a_cancellable_region_is_a_noop() {
        checkpoint(); // must not unwind or panic
    }

    #[test]
    fn genuine_panics_pass_through_run_cancellable() {
        let token = CancelToken::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_cancellable(&token, || panic!("real bug"));
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"real bug"));
    }

    #[test]
    fn ambient_restores_after_nested_regions() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let result = run_cancellable(&outer, || {
            // Inner region fires; outer must survive it untouched.
            inner.cancel();
            let r = run_cancellable(&inner, || {
                checkpoint();
                unreachable!()
            });
            assert_eq!(r, Err(CancelReason::Cancelled));
            // Back in the outer region: its token is live, checkpoints
            // pass.
            checkpoint();
            7
        });
        assert_eq!(result, Ok(7));
        assert_eq!(outer.fired(), None);
    }

    #[test]
    fn with_ambient_none_masks_an_outer_token() {
        let token = CancelToken::new();
        let result = run_cancellable(&token, || {
            token.cancel();
            // A masked region models an unrelated pal-thread scheduled
            // onto this worker: the outer fired token must not reach it.
            with_ambient(None, || {
                checkpoint();
                11
            })
        });
        // The masked body ran to completion; the checkpoint after the
        // mask is the run_cancellable-internal poll on exit — none here —
        // so the region returns Ok.
        assert_eq!(result, Ok(11));
    }

    #[test]
    fn strided_poll_eventually_observes_a_deadline() {
        let token = CancelToken::with_deadline_at(Instant::now() - Duration::from_millis(1));
        let result = run_cancellable(&token, || unreachable!("entry poll is unstrided"));
        assert_eq!(result, Err(CancelReason::DeadlineExceeded));

        // And through checkpoints alone: at most DEADLINE_STRIDE + 1 of
        // them before the clock is read.
        let token = CancelToken::with_deadline_at(Instant::now() + Duration::from_millis(5));
        let result = run_cancellable(&token, || {
            let mut spins = 0u64;
            loop {
                checkpoint();
                spins += 1;
                if spins > 200_000_000 {
                    return spins; // would mean the deadline never fired
                }
                std::hint::spin_loop();
            }
        });
        assert_eq!(result, Err(CancelReason::DeadlineExceeded));
    }
}
