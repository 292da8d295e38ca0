//! Budget tokens: the per-tenant admission control of the job service.
//!
//! Each tenant owns one [`ProcessorTokens`] budget; a dispatched job holds
//! its cost in [`Permit`]s for its whole run.  Acquisition is the §3.1
//! throttle's non-blocking rule — a job that cannot get its tokens now
//! stays queued instead of waiting on them.  The pool itself needs no
//! tokens: its admission control is the work-stealing runtime (`p`
//! persistent workers, pending forks queued until a processor frees up).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A non-blocking counting semaphore: one tenant's budget.
///
/// Acquisition never blocks: if no token is free the caller is told so at
/// once and decides what to do instead — the dispatcher leaves the job
/// queued, as §3.1 leaves a pal-thread denied a processor pending.
#[derive(Debug)]
pub(crate) struct ProcessorTokens {
    free: AtomicUsize,
    total: usize,
}

impl ProcessorTokens {
    /// Create a budget of `total` tokens.
    pub(crate) fn new(total: usize) -> Arc<Self> {
        Arc::new(ProcessorTokens {
            free: AtomicUsize::new(total),
            total,
        })
    }

    /// Total number of tokens in this budget.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Number of tokens currently free.
    #[cfg(test)]
    fn free(&self) -> usize {
        self.free.load(Ordering::Acquire)
    }

    /// Try to acquire a token without blocking.
    ///
    /// Returns a `Permit` that releases the token when dropped (including
    /// on panic), or `None` if every token is held.
    pub(crate) fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut cur = self.free.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return None;
            }
            match self
                .free
                .compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    return Some(Permit {
                        tokens: Arc::clone(self),
                    });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self) {
        self.free.fetch_add(1, Ordering::AcqRel);
    }
}

/// RAII guard for one token.
#[derive(Debug)]
pub(crate) struct Permit {
    tokens: Arc<ProcessorTokens>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.tokens.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_release() {
        let t = ProcessorTokens::new(2);
        assert_eq!(t.total(), 2);
        assert_eq!(t.free(), 2);
        let p1 = t.try_acquire().expect("first token");
        let p2 = t.try_acquire().expect("second token");
        assert!(t.try_acquire().is_none());
        assert_eq!(t.free(), 0);
        drop(p1);
        assert_eq!(t.free(), 1);
        assert!(t.try_acquire().is_some());
        drop(p2);
    }

    #[test]
    fn zero_tokens_never_acquire() {
        let t = ProcessorTokens::new(0);
        assert!(t.try_acquire().is_none());
        assert_eq!(t.free(), 0);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn permit_released_on_panic() {
        let t = ProcessorTokens::new(1);
        let t2 = Arc::clone(&t);
        let result = std::panic::catch_unwind(move || {
            let _p = t2.try_acquire().unwrap();
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(t.free(), 1, "token must be returned when the holder panics");
    }

    #[test]
    fn concurrent_acquisition_never_oversubscribes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = ProcessorTokens::new(4);
        let in_use = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let t = Arc::clone(&t);
                let in_use = Arc::clone(&in_use);
                let max_seen = Arc::clone(&max_seen);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Some(p) = t.try_acquire() {
                            let now = in_use.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            in_use.fetch_sub(1, Ordering::SeqCst);
                            drop(p);
                        }
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 4);
        assert_eq!(t.free(), 4);
    }
}
