//! The [`ThrottledPool`]: an *eager* bounded-degree fork/join pool.
//!
//! This is the simplest possible realisation of the pal-thread creation rule:
//! when a pal-thread is created it either receives a free processor
//! immediately (an OS thread is spawned for it, holding one processor token)
//! or it is executed inline by its parent, and the decision is never
//! revisited.  Because there is no pending queue, a processor that frees up
//! later cannot pick up a child that was already committed to inline
//! execution, which skews work towards the first spawned subtrees (for binary
//! divide-and-conquer one `n/2` subtree ends up sequential), and the
//! [`steals`](crate::metrics::RunMetrics::steals) counter is always zero.
//!
//! The default [`PalPool`](crate::PalPool) differs on exactly this point:
//! its forks stay *pending* in per-worker deques until a processor actually
//! takes them, so a processor that frees up later steals the oldest pending
//! pal-thread (§3.1's activation rule).  `ThrottledPool` is retained as the
//! eager reference the tests compare against: `runtime_stress` and
//! `model_integration` check that both schedulers return the same results,
//! and `runtime_stress` that this one never steals.  On an unbalanced
//! divide-and-conquer tree the two diverge sharply — `PalPool` keeps
//! migrating the heavy pending subtree to whichever processor frees up,
//! while `ThrottledPool` spawns once and then runs the rest of the chain
//! sequentially.
//!
//! # Transport vs. policy
//!
//! Since the lock-free runtime landed, `ThrottledPool` no longer has a
//! queueing implementation of its own (it used to spawn one OS thread per
//! granted pal-thread through `std::thread::scope`).  A pool for `p`
//! processors owns `p − 1` persistent workers of the *same* work-stealing
//! runtime `PalPool` wraps — the same Chase–Lev deques, injector and
//! parking — and ships every *committed* pal-thread through it, while the
//! calling thread plays the remaining processor.  What stays eager is the
//! **policy**: [`ProcessorTokens`] admission is consulted once, at creation
//! time, and a pal-thread denied a token is executed inline immediately and
//! can never migrate later.  The two pools therefore differ in scheduling
//! policy on identical data structures, not as a lock-free runtime against
//! OS-thread spawning.  The pool's own [`RunMetrics`] record only the eager
//! decisions (`steals` is structurally zero).

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::metrics::RunMetrics;
use crate::policy::ProcessorPolicy;
use crate::runtime::tokens::ProcessorTokens;

/// An eagerly-scheduled LoPRAM processor pool (ablation variant).
///
/// A `ThrottledPool` for `p` processors owns `p − 1` processor tokens; the thread
/// that calls into the pool plays the role of the remaining processor.  Every
/// pal-thread creation point ([`join`](ThrottledPool::join),
/// [`ThrottledScope::spawn`]) consults the
/// tokens: if a processor is free the child runs on its own core, otherwise
/// it is executed inline by its parent in creation order.  Tokens are
/// released when the child *finishes*, so a recursive algorithm saturates
/// the machine at recursion depth `log_a p` and runs sequentially below —
/// but, unlike the paper's scheduler and the default
/// [`PalPool`](crate::PalPool), a pal-thread committed to inline execution
/// can never migrate to a processor that frees up later.
#[derive(Debug)]
pub struct ThrottledPool {
    processors: usize,
    tokens: Arc<ProcessorTokens>,
    metrics: RunMetrics,
    /// The `p − 1` extra processors: persistent workers of the same
    /// work-stealing runtime `PalPool` uses.  `None` when `p == 1` (no
    /// extra processors, nothing to ship work to).
    pool: Option<rayon::ThreadPool>,
}

impl ThrottledPool {
    /// Create a pool with exactly `p` processors.
    ///
    /// Returns [`Error::ZeroProcessors`] when `p == 0`.
    pub fn new(p: usize) -> Result<Self> {
        if p == 0 {
            return Err(Error::ZeroProcessors);
        }
        let pool = if p > 1 {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(p - 1)
                    .thread_name(|i| format!("lopram-eager-{i}"))
                    .build()
                    .map_err(|e| {
                        Error::InvalidInput(format!("failed to build thread pool: {e}"))
                    })?,
            )
        } else {
            None
        };
        Ok(ThrottledPool {
            processors: p,
            tokens: ProcessorTokens::new(p - 1),
            metrics: RunMetrics::new(),
            pool,
        })
    }

    /// Create a single-processor pool: every pal-thread runs inline, so the
    /// execution order is exactly the sequential one.
    pub fn sequential() -> Self {
        ThrottledPool::new(1).expect("1 > 0")
    }

    /// Create a pool sized by the paper's default policy `p = O(log n)` for
    /// an input of size `n` (capped by the host's core count).
    pub fn for_input_size(n: usize) -> Self {
        let p = ProcessorPolicy::LogN.processors(n);
        ThrottledPool::new(p).expect("policy returns >= 1")
    }

    /// Create a pool sized by an explicit [`ProcessorPolicy`].
    pub fn with_policy(n: usize, policy: ProcessorPolicy) -> Self {
        ThrottledPool::new(policy.processors(n)).expect("policy returns >= 1")
    }

    /// Start building a pool with non-default options.
    pub fn builder() -> ThrottledPoolBuilder {
        ThrottledPoolBuilder::default()
    }

    /// Number of processors `p` this pool models.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Scheduling counters for this pool (spawned vs inlined pal-threads).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Largest number of extra processors ever in use simultaneously.
    pub fn peak_extra_processors(&self) -> usize {
        self.tokens.peak_in_use()
    }

    /// Run two pal-threads, the fundamental `palthreads { a(); b(); }`
    /// construct of the paper's mergesort example.
    ///
    /// `a` is the first child and is always executed by the calling
    /// processor; `b` is granted its own processor if one is free
    /// (committed to the `p − 1` worker pool, holding its token until it
    /// finishes) and is otherwise executed inline after `a`, in creation
    /// order.  The decision is never revisited.  The call returns when both
    /// children have finished (the paper's implicit wait at the end of a
    /// `palthreads` block).  Panics in either child propagate.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if let Some(pool) = &self.pool {
            if let Some(permit) = self.tokens.try_acquire() {
                self.metrics.record_spawn();
                let slot_b: Mutex<Option<RB>> = Mutex::new(None);
                let ra = pool.in_place_scope(|s| {
                    let slot_b = &slot_b;
                    s.spawn(move |_| {
                        let _permit = permit;
                        *slot_b.lock() = Some(b());
                    });
                    a()
                });
                // The scope waits for b (rethrowing its panic), so the slot
                // is filled whenever we get here.
                let rb = slot_b.into_inner().expect("committed pal-thread ran");
                return (ra, rb);
            }
        }
        self.metrics.record_inline();
        let ra = a();
        let rb = b();
        (ra, rb)
    }

    /// Open a pal-thread scope: `f` may spawn any number of pal-threads via
    /// [`ThrottledScope::spawn`]; the scope waits for all of them before returning.
    ///
    /// This is the multi-way generalisation of [`join`](ThrottledPool::join) used
    /// by the dynamic-programming executors (Algorithm 1 creates a pal-thread
    /// per ready DAG vertex).
    pub fn scope<'env, R>(
        &'env self,
        f: impl for<'scope> FnOnce(&ThrottledScope<'scope, 'env>) -> R,
    ) -> R {
        match &self.pool {
            Some(pool) => pool.in_place_scope(|s| {
                let pal = ThrottledScope {
                    scope: Some(s),
                    tokens: &self.tokens,
                    metrics: &self.metrics,
                    processors: self.processors,
                };
                f(&pal)
            }),
            // p = 1: no extra processors, every spawn is inline.
            None => f(&ThrottledScope {
                scope: None,
                tokens: &self.tokens,
                metrics: &self.metrics,
                processors: self.processors,
            }),
        }
    }

    /// Apply `f` to every index in `range`, splitting the range into chunks
    /// executed by pal-threads.
    ///
    /// This is the primitive behind parallel merging (Eq. 5) and the
    /// wavefront dynamic-programming executor: within one antichain every
    /// cell is independent, so indices can be processed by up to `p`
    /// processors.
    pub fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let chunks = self.chunk_count(len);
        let chunk_size = len.div_ceil(chunks);
        self.scope(|scope| {
            let f = &f;
            let mut start = range.start;
            while start < range.end {
                let end = (start + chunk_size).min(range.end);
                scope.spawn(move || {
                    for i in start..end {
                        f(i);
                    }
                });
                start = end;
            }
        });
    }

    /// Map every index in `range` through `map` and fold the results with
    /// `reduce`, starting from `identity` in every chunk.
    ///
    /// `reduce` must be associative for the result to be independent of the
    /// chunking (the usual data-parallel contract).
    pub fn map_reduce<T, M, R>(&self, range: Range<usize>, identity: T, map: M, reduce: R) -> T
    where
        T: Send + Clone,
        M: Fn(usize) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return identity;
        }
        let chunks = self.chunk_count(len);
        let chunk_size = len.div_ceil(chunks);
        let partials: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(chunks));
        self.scope(|scope| {
            let map = &map;
            let reduce = &reduce;
            let partials = &partials;
            let mut start = range.start;
            while start < range.end {
                let end = (start + chunk_size).min(range.end);
                let seed = identity.clone();
                scope.spawn(move || {
                    let mut acc = seed;
                    for i in start..end {
                        acc = reduce(acc, map(i));
                    }
                    partials.lock().push(acc);
                });
                start = end;
            }
        });
        let mut acc = identity;
        for part in partials.into_inner() {
            acc = reduce(acc, part);
        }
        acc
    }

    fn chunk_count(&self, len: usize) -> usize {
        (self.processors * 2).clamp(1, len)
    }
}

/// A scope in which pal-threads can be spawned; see [`ThrottledPool::scope`].
#[derive(Debug)]
pub struct ThrottledScope<'scope, 'env: 'scope> {
    /// `None` on a one-processor pool (no workers to commit to).
    scope: Option<&'scope rayon::Scope<'env>>,
    tokens: &'env Arc<ProcessorTokens>,
    metrics: &'env RunMetrics,
    processors: usize,
}

impl<'scope, 'env> ThrottledScope<'scope, 'env> {
    /// Create a pal-thread running `f`.
    ///
    /// If a processor is free the pal-thread is committed to the worker
    /// pool (keeping its token until it finishes); otherwise it is executed
    /// inline, immediately, by the calling thread — i.e. pending
    /// pal-threads are serviced in creation order by their parent, as §3.1
    /// prescribes.  Either way the decision is final.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if let Some(scope) = self.scope {
            if let Some(permit) = self.tokens.try_acquire() {
                self.metrics.record_spawn();
                scope.spawn(move |_| {
                    let _permit = permit;
                    f();
                });
                return;
            }
        }
        self.metrics.record_inline();
        f();
    }

    /// Number of processors of the owning pool.
    pub fn processors(&self) -> usize {
        self.processors
    }
}

/// Builder for [`ThrottledPool`] with explicit processor counts, policies and caps.
#[derive(Debug, Default, Clone)]
pub struct ThrottledPoolBuilder {
    processors: Option<usize>,
    policy: Option<(usize, ProcessorPolicy)>,
    max_processors: Option<usize>,
}

impl ThrottledPoolBuilder {
    /// Use exactly `p` processors.
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = Some(p);
        self
    }

    /// Derive the processor count from `policy` applied to input size `n`.
    pub fn policy(mut self, n: usize, policy: ProcessorPolicy) -> Self {
        self.policy = Some((n, policy));
        self
    }

    /// Enforce a hard upper bound on the processor count.
    pub fn max_processors(mut self, limit: usize) -> Self {
        self.max_processors = Some(limit);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThrottledPool> {
        let p = match (self.processors, self.policy) {
            (Some(p), _) => p,
            (None, Some((n, policy))) => policy.processors(n),
            (None, None) => ProcessorPolicy::Available.processors(0),
        };
        if p == 0 {
            return Err(Error::ZeroProcessors);
        }
        if let Some(limit) = self.max_processors {
            if p > limit {
                return Err(Error::TooManyProcessors {
                    requested: p,
                    limit,
                });
            }
        }
        ThrottledPool::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn new_rejects_zero_processors() {
        assert_eq!(ThrottledPool::new(0).unwrap_err(), Error::ZeroProcessors);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThrottledPool::new(4).unwrap();
        let (a, b) = pool.join(|| 2 + 2, || "hello".len());
        assert_eq!(a, 4);
        assert_eq!(b, 5);
    }

    #[test]
    fn join_with_one_processor_runs_inline_in_order() {
        let pool = ThrottledPool::sequential();
        let order = Mutex::new(Vec::new());
        pool.join(|| order.lock().push('a'), || order.lock().push('b'));
        assert_eq!(*order.lock(), vec!['a', 'b']);
        assert_eq!(pool.metrics().spawned(), 0);
        assert_eq!(pool.metrics().inlined(), 1);
    }

    #[test]
    fn eager_scheduler_never_steals() {
        // The defining gap to PalPool: no pending queue, so no migrations —
        // the comparison with it hinges on this staying zero.
        fn recurse(pool: &ThrottledPool, depth: usize) {
            if depth == 0 {
                return;
            }
            pool.join(|| recurse(pool, depth - 1), || recurse(pool, depth - 1));
        }
        let pool = ThrottledPool::new(4).unwrap();
        recurse(&pool, 6);
        assert_eq!(pool.metrics().steals(), 0);
        assert!(pool.metrics().spawned() + pool.metrics().inlined() > 0);
    }

    #[test]
    fn nested_joins_compute_fibonacci() {
        fn fib(pool: &ThrottledPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = ThrottledPool::new(4).unwrap();
        assert_eq!(fib(&pool, 20), 6765);
    }

    #[test]
    fn peak_extra_processors_never_exceeds_p_minus_one() {
        fn recurse(pool: &ThrottledPool, depth: usize) {
            if depth == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                return;
            }
            pool.join(|| recurse(pool, depth - 1), || recurse(pool, depth - 1));
        }
        let pool = ThrottledPool::new(4).unwrap();
        recurse(&pool, 8);
        assert!(pool.peak_extra_processors() <= 3);
        assert!(pool.metrics().spawned() > 0);
    }

    #[test]
    fn join_propagates_panic_from_second_child() {
        let pool = ThrottledPool::new(2).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("child b failed") });
        }));
        assert!(result.is_err());
        // The pool must remain usable afterwards (token returned).
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn scope_runs_all_spawned_threads() {
        let pool = ThrottledPool::new(3).unwrap();
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn scope_with_one_processor_preserves_creation_order() {
        let pool = ThrottledPool::sequential();
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move || order.lock().push(i));
            }
        });
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_index_covers_every_index_exactly_once() {
        let pool = ThrottledPool::new(4).unwrap();
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(0..1000, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn for_each_index_empty_range_is_noop() {
        let pool = ThrottledPool::new(4).unwrap();
        pool.for_each_index(5..5, |_| panic!("must not be called"));
    }

    #[test]
    fn map_reduce_sums_range() {
        let pool = ThrottledPool::new(4).unwrap();
        let total = pool.map_reduce(0..1001, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 1000 * 1001 / 2);
    }

    #[test]
    fn map_reduce_empty_range_returns_identity() {
        let pool = ThrottledPool::new(2).unwrap();
        assert_eq!(pool.map_reduce(3..3, 42u64, |i| i as u64, |a, b| a + b), 42);
    }

    #[test]
    fn for_input_size_uses_log_policy() {
        let pool = ThrottledPool::for_input_size(1 << 10);
        assert!(pool.processors() >= 1);
        assert!(pool.processors() <= 10);
    }

    #[test]
    fn builder_respects_fixed_and_cap() {
        let pool = ThrottledPool::builder().processors(3).build().unwrap();
        assert_eq!(pool.processors(), 3);

        let err = ThrottledPool::builder()
            .processors(16)
            .max_processors(8)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::TooManyProcessors {
                requested: 16,
                limit: 8
            }
        );

        let pool = ThrottledPool::builder()
            .policy(1 << 6, ProcessorPolicy::LogN)
            .build()
            .unwrap();
        assert!(pool.processors() >= 1);
    }

    #[test]
    fn results_identical_for_any_p() {
        // §3.2: "The algorithm must execute properly for any value of p."
        fn sum_recursive(pool: &ThrottledPool, data: &[u64]) -> u64 {
            if data.len() <= 8 {
                return data.iter().sum();
            }
            let mid = data.len() / 2;
            let (lo, hi) = data.split_at(mid);
            let (a, b) = pool.join(|| sum_recursive(pool, lo), || sum_recursive(pool, hi));
            a + b
        }
        let data: Vec<u64> = (0..4096).collect();
        let expected: u64 = data.iter().sum();
        for p in [1, 2, 3, 4, 7, 8] {
            let pool = ThrottledPool::new(p).unwrap();
            assert_eq!(sum_recursive(&pool, &data), expected, "p = {p}");
        }
    }
}
