//! The [`palthreads!`] and [`pal_join!`] macros.

/// Run a block of statements as pal-threads, mirroring the paper's
/// `palthreads { … }` C extension (§3.1).
///
/// Each block becomes a child pal-thread of the current thread, created in
/// the order written.  `k` blocks expand to `k − 1` nested
/// [`Executor::join`] calls — the same expansion as [`pal_join!`], so the
/// macro works with any executor and inherits the α·log p sequential
/// cutoff; on a one-processor pool the blocks run in the order written.
/// The macro waits for all children before it returns (the paper's
/// implicit wait).  There is no `nowait` form: every fork in the runtime
/// is a `join`.
///
/// ```
/// use lopram_core::{palthreads, PalPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = PalPool::new(4).unwrap();
/// let counter = AtomicUsize::new(0);
/// palthreads!(pool => {
///     counter.fetch_add(1, Ordering::SeqCst);
/// }, {
///     counter.fetch_add(10, Ordering::SeqCst);
/// }, {
///     counter.fetch_add(100, Ordering::SeqCst);
/// });
/// assert_eq!(counter.load(Ordering::SeqCst), 111);
/// ```
///
/// [`Executor::join`]: crate::Executor::join
/// [`pal_join!`]: crate::pal_join
#[macro_export]
macro_rules! palthreads {
    ($exec:expr => $body:block $(,)?) => {{
        let _ = &$exec;
        $body;
    }};
    ($exec:expr => $first:block, $($rest:block),+ $(,)?) => {{
        let __pal_exec = &$exec;
        $crate::Executor::join(
            __pal_exec,
            || $first,
            || $crate::palthreads!(__pal_exec => $($rest),+),
        );
    }};
}

/// Fork two expressions as pal-threads and return both results — the
/// two-way special case of [`palthreads!`] that the paper's
/// divide-and-conquer examples use, routed through [`Executor::join`] so it
/// works with any executor (and inherits the α·log p sequential cutoff on a
/// [`PalPool`](crate::PalPool)).
///
/// ```
/// use lopram_core::{pal_join, PalPool};
///
/// let pool = PalPool::new(4).unwrap();
/// let (a, b) = pal_join!(pool => 2 + 2, "hello".len());
/// assert_eq!((a, b), (4, 5));
/// ```
///
/// [`Executor::join`]: crate::Executor::join
#[macro_export]
macro_rules! pal_join {
    ($exec:expr => $a:expr, $b:expr $(,)?) => {{
        $crate::Executor::join(&$exec, || $a, || $b)
    }};
}

#[cfg(test)]
mod tests {
    use crate::PalPool;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn palthreads_runs_every_block() {
        let pool = PalPool::new(4).unwrap();
        let counter = AtomicUsize::new(0);
        palthreads!(pool => {
            counter.fetch_add(1, Ordering::SeqCst);
        }, {
            counter.fetch_add(2, Ordering::SeqCst);
        }, {
            counter.fetch_add(4, Ordering::SeqCst);
        }, {
            counter.fetch_add(8, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn palthreads_single_block() {
        let pool = PalPool::sequential();
        let counter = AtomicUsize::new(0);
        palthreads!(pool => {
            counter.fetch_add(5, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn palthreads_sequential_pool_runs_in_creation_order() {
        let pool = PalPool::sequential();
        let order = Mutex::new(Vec::new());
        palthreads!(pool => {
            order.lock().push(1);
        }, {
            order.lock().push(2);
        }, {
            order.lock().push(3);
        });
        assert_eq!(*order.lock(), vec![1, 2, 3]);
        // Three blocks are two nested joins, both elided at cutoff 0.
        assert_eq!(pool.metrics().elided(), 2);
        assert_eq!(pool.metrics().spawned() + pool.metrics().inlined(), 0);
    }

    #[test]
    fn pal_join_returns_both_results() {
        let pool = PalPool::new(2).unwrap();
        let x = 20;
        let (a, b) = pal_join!(pool => x + 1, x + 2);
        assert_eq!((a, b), (21, 22));
    }

    #[test]
    fn pal_join_works_with_any_executor() {
        let (a, b) = pal_join!(crate::SeqExecutor => 1, 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn pal_join_is_throttled_below_the_cutoff() {
        // On a sequential pool (cutoff 0) the macro's fork is elided like a
        // direct `join` call.
        let pool = PalPool::sequential();
        let (a, b) = pal_join!(pool => 1, 2);
        assert_eq!((a, b), (1, 2));
        assert_eq!(pool.metrics().elided(), 1);
        assert_eq!(pool.metrics().spawned(), 0);
    }

    #[test]
    fn palthreads_can_mutate_disjoint_slices() {
        let pool = PalPool::new(2).unwrap();
        let mut data = vec![0u32; 8];
        let (left, right) = data.split_at_mut(4);
        let left = Mutex::new(left);
        let right = Mutex::new(right);
        palthreads!(pool => {
            for x in left.lock().iter_mut() { *x = 1; }
        }, {
            for x in right.lock().iter_mut() { *x = 2; }
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }
}
