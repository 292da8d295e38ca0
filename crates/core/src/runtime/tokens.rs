//! Processor tokens: the bounded-degree admission control of the *eager*
//! pal-thread scheduler.
//!
//! Only the [`ThrottledPool`](crate::ThrottledPool) ablation uses these
//! tokens (spawn-or-inline decided once, at creation); they are its
//! *policy*, while the shared work-stealing runtime is its transport.  The
//! default [`PalPool`](crate::PalPool) does not use them: its admission
//! control is the work-stealing runtime itself — `p` persistent workers, so
//! at most `p` pal-threads execute concurrently, with pending forks queued
//! rather than folded away (and forks below the α·log p cutoff depth never
//! created at all).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A counting semaphore over "extra processors".
///
/// A LoPRAM with `p` processors hands `p − 1` tokens to the pool (the thread
/// that calls into the pool is itself the remaining processor).  Acquisition
/// never blocks: if no token is available the pal-thread is executed inline
/// by its parent, which is precisely the scheduler rule of §3.1.
#[derive(Debug)]
pub struct ProcessorTokens {
    free: AtomicUsize,
    total: usize,
    /// High-water mark of simultaneously acquired tokens, for tests.
    peak_in_use: AtomicUsize,
}

impl ProcessorTokens {
    /// Create a token pool with `extra` tokens (i.e. for `extra + 1` processors).
    pub fn new(extra: usize) -> Arc<Self> {
        Arc::new(ProcessorTokens {
            free: AtomicUsize::new(extra),
            total: extra,
            peak_in_use: AtomicUsize::new(0),
        })
    }

    /// Total number of tokens managed by this pool.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of tokens currently free.
    pub fn free(&self) -> usize {
        self.free.load(Ordering::Acquire)
    }

    /// Largest number of tokens ever simultaneously in use.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use.load(Ordering::Relaxed)
    }

    /// Try to acquire a token without blocking.
    ///
    /// Returns a `Permit` that releases the token when dropped (including
    /// on panic), or `None` if every processor is busy.
    pub fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
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
                    let in_use = self.total - (cur - 1);
                    self.peak_in_use.fetch_max(in_use, Ordering::Relaxed);
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

/// RAII guard for one processor token.
#[derive(Debug)]
pub struct Permit {
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
    fn peak_tracks_high_water_mark() {
        let t = ProcessorTokens::new(3);
        let a = t.try_acquire().unwrap();
        let b = t.try_acquire().unwrap();
        assert_eq!(t.peak_in_use(), 2);
        drop(a);
        drop(b);
        let _c = t.try_acquire().unwrap();
        // Peak stays at its maximum even after tokens are released.
        assert_eq!(t.peak_in_use(), 2);
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
