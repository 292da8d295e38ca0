//! The [`palthreads!`] macro.

/// Run a block of statements as pal-threads, mirroring the paper's
/// `palthreads { … }` C extension (§3.1).
///
/// Each block becomes a child pal-thread of the current thread, created in
/// the order written.  `k` blocks expand to `k − 1` nested
/// [`Executor::join`] calls, so the macro works with any executor and
/// inherits the α·log p sequential cutoff; on a one-processor pool the
/// blocks run in the order written.
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
