//! Execution back-ends.
//!
//! The divide-and-conquer and dynamic-programming crates are written against
//! the [`Executor`] trait so that the same algorithm text can run
//! sequentially (the paper's `T(n) = T_1(n)` baseline) or on a [`PalPool`]
//! (real pal-threads on a bounded work-stealing pool, §3.1).  This
//! mirrors the paper's claim that work-optimal parallel algorithms are
//! obtained from "simple modifications of sequential algorithms": the
//! modification is just the choice of executor, so a test can run one
//! algorithm body on [`SeqExecutor`] and on a `PalPool` and compare the
//! results directly.

use std::ops::Range;

use crate::runtime::PalPool;

/// An execution back-end for pal-thread style parallelism.
pub trait Executor: Sync {
    /// Number of processors `p` this executor models.
    fn processors(&self) -> usize;

    /// Run two pal-threads and wait for both (the `palthreads { a; b; }`
    /// construct).
    fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send;

    /// Apply `f` to every index of `range`, possibly in parallel.
    fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync;

    /// How many blocks a pass of `len` units of work (`len ≥ 1`) is worth
    /// splitting into on this executor; `1` means "run it as a plain loop on
    /// the calling thread".  The default is the workspace's one pass policy,
    /// [`policy::pass_chunks`](crate::policy::pass_chunks)`(len, p)`; a
    /// [`PalPool`] answers with its own grain-aware
    /// [`chunk_count`](PalPool::chunk_count), so a `.grain(k)`-pinned pool
    /// keeps splitting small passes.
    ///
    /// [`for_each_index`](Executor::for_each_index) cannot ask this itself —
    /// the cost of one index is hidden in the closure — so a caller that can
    /// price its indices (a DP level: cells plus the table reads they make)
    /// asks here and hands `for_each_index` one index per block.
    fn chunk_count(&self, len: usize) -> usize {
        crate::policy::pass_chunks(len, self.processors())
    }

    /// `true` when more than one processor is available.
    fn is_parallel(&self) -> bool {
        self.processors() > 1
    }
}

/// Strictly sequential executor (`p = 1`); the reference every speedup is
/// measured against.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqExecutor;

impl Executor for SeqExecutor {
    fn processors(&self) -> usize {
        1
    }

    fn join<RA, RB>(&self, a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        (a(), b())
    }

    fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        for i in range {
            f(i);
        }
    }
}

impl Executor for PalPool {
    fn processors(&self) -> usize {
        PalPool::processors(self)
    }

    fn join<RA, RB>(&self, a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        PalPool::join(self, a, b)
    }

    fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        PalPool::for_each_index(self, range, f)
    }

    fn chunk_count(&self, len: usize) -> usize {
        PalPool::chunk_count(self, len)
    }
}

impl<E: Executor> Executor for &E {
    fn processors(&self) -> usize {
        (**self).processors()
    }

    fn join<RA, RB>(&self, a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        (**self).join(a, b)
    }

    fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        (**self).for_each_index(range, f)
    }

    fn chunk_count(&self, len: usize) -> usize {
        (**self).chunk_count(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exercise<E: Executor>(exec: &E) {
        let (a, b) = exec.join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
        let counter = AtomicUsize::new(0);
        exec.for_each_index(0..100, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(exec.processors() >= 1);
    }

    #[test]
    fn chunk_count_defaults_to_the_pass_policy_and_pools_forward_their_grain() {
        use crate::policy::{pass_chunks, WAKE_GRAIN};
        let pool = PalPool::new(4).unwrap();
        for len in [1, 100, WAKE_GRAIN - 1, WAKE_GRAIN, 1 << 20] {
            assert_eq!(SeqExecutor.chunk_count(len), pass_chunks(len, 1));
            assert_eq!(Executor::chunk_count(&pool, len), pass_chunks(len, 4));
            assert_eq!(Executor::chunk_count(&&pool, len), pass_chunks(len, 4));
        }
        // A pinned pool answers with its own policy, through every wrapper.
        let pinned = PalPool::builder().processors(4).grain(64).build().unwrap();
        assert_eq!(Executor::chunk_count(&pinned, 128), 2);
        assert_eq!(Executor::chunk_count(&&pinned, 128), 2);
        assert_eq!(
            Executor::chunk_count(&pinned, 1 << 20),
            pinned.chunk_count(1 << 20)
        );
    }

    #[test]
    fn sequential_executor_works() {
        let exec = SeqExecutor;
        exercise(&exec);
        assert!(!exec.is_parallel());
        assert_eq!(exec.processors(), 1);
    }

    #[test]
    fn pool_is_an_executor() {
        let pool = PalPool::new(4).unwrap();
        exercise(&pool);
        assert!(pool.is_parallel());
        assert_eq!(Executor::processors(&pool), 4);
        let sized = PalPool::for_input_size(1 << 12);
        exercise(&sized);
        assert_eq!(Executor::processors(&sized), sized.processors());
    }

    #[test]
    fn reference_to_executor_is_executor() {
        let exec = SeqExecutor;
        exercise(&&exec);
    }

    #[test]
    fn executors_agree_on_recursive_sum() {
        fn sum<E: Executor>(exec: &E, data: &[u64]) -> u64 {
            if data.len() <= 4 {
                return data.iter().sum();
            }
            let (lo, hi) = data.split_at(data.len() / 2);
            let (a, b) = exec.join(|| sum(exec, lo), || sum(exec, hi));
            a + b
        }
        let data: Vec<u64> = (0..1000).collect();
        let seq = sum(&SeqExecutor, &data);
        let pal = sum(&PalPool::new(4).unwrap(), &data);
        assert_eq!(seq, pal);
        assert_eq!(seq, 999 * 1000 / 2);
    }
}
