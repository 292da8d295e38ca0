//! Cancellable graph kernels: the cooperative-cancellation contract the
//! `lopram-serve` job service relies on, checked at the kernel level.
//!
//! Three properties per kernel: a live token changes nothing (identical
//! output to the sequential twin), a fired token stops the kernel with
//! the right [`CancelReason`], and the unwind leaves the shared pool's
//! workspace arena warm — the next caller sees zero growth and exact
//! results.

use std::time::Duration;

use lopram_core::{run_cancellable, CancelReason, CancelToken, PalPool};
use lopram_graph::bfs::{bfs_par, bfs_seq};
use lopram_graph::cc::components_seq;
use lopram_graph::gen;
use lopram_graph::uf::components_union_find;

#[test]
fn live_token_changes_nothing() {
    let g = gen::gnm(400, 1200, 17);
    for p in [1, 2, 4] {
        let pool = PalPool::new(p).unwrap();
        let token = CancelToken::new();
        assert_eq!(
            run_cancellable(&token, || bfs_par(&g, &pool, 0)).as_deref(),
            Ok(bfs_seq(&g, 0).as_slice()),
            "p = {p}"
        );
        assert_eq!(
            run_cancellable(&token, || components_union_find(&g, &pool)).as_deref(),
            Ok(components_seq(&g).as_slice()),
            "p = {p}"
        );
        assert_eq!(token.fired(), None);
    }
}

#[test]
fn fired_token_stops_both_kernels() {
    let g = gen::grid(20, 20);
    let pool = PalPool::new(2).unwrap();

    let cancelled = CancelToken::new();
    cancelled.cancel();
    assert_eq!(
        run_cancellable(&cancelled, || bfs_par(&g, &pool, 0)),
        Err(CancelReason::Cancelled)
    );
    assert_eq!(
        run_cancellable(&cancelled, || components_union_find(&g, &pool)),
        Err(CancelReason::Cancelled)
    );

    let expired = CancelToken::with_deadline(Duration::ZERO);
    assert_eq!(
        run_cancellable(&expired, || bfs_par(&g, &pool, 0)),
        Err(CancelReason::DeadlineExceeded)
    );
    assert_eq!(
        run_cancellable(&expired, || components_union_find(&g, &pool)),
        Err(CancelReason::DeadlineExceeded)
    );
}

#[test]
fn cancelled_kernel_leaves_the_arena_warm() {
    let g = gen::gnm(500, 1500, 23);
    let pool = PalPool::new(2).unwrap();
    let expected = bfs_seq(&g, 0);

    // Warm every buffer the kernel mix touches.  Two rounds: the arena
    // shelf is LIFO and BFS checks out several same-typed buffers whose
    // roles (and hence required capacities) reshuffle across calls, so
    // capacities only settle after the second pass.
    let live = CancelToken::new();
    for _ in 0..2 {
        assert_eq!(
            run_cancellable(&live, || bfs_par(&g, &pool, 0)).as_ref(),
            Ok(&expected)
        );
        let labels = run_cancellable(&live, || components_union_find(&g, &pool)).unwrap();
        assert_eq!(labels, components_seq(&g));
    }
    let warm = pool.workspace().stats().grown_bytes;

    for i in 0..10 {
        // A cancelled run must hand back every checked-out buffer…
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            run_cancellable(&fired, || bfs_par(&g, &pool, 0)),
            Err(CancelReason::Cancelled),
            "iteration {i}"
        );
        assert_eq!(
            run_cancellable(&fired, || components_union_find(&g, &pool)),
            Err(CancelReason::Cancelled),
            "iteration {i}"
        );
        // …so the next warm run neither grows the arena nor mislabels.
        let live = CancelToken::new();
        assert_eq!(
            run_cancellable(&live, || bfs_par(&g, &pool, 0)).as_ref(),
            Ok(&expected),
            "iteration {i}"
        );
        assert_eq!(
            pool.workspace().stats().grown_bytes,
            warm,
            "iteration {i}: a cancelled kernel must not grow the arena"
        );
    }
}

#[test]
fn mid_flight_cancel_from_another_thread_stops_a_long_search() {
    // A long path gives BFS one level per vertex, every one of them thin:
    // the whole search is a plain loop on this thread, and the level-top
    // checkpoint is the only place a token fired from outside can land.
    // The canceller waits until the search has checked its buffers out of
    // the arena — so the token fires mid-search, not before it — and the
    // search still has ~10⁶ levels to go when it does.
    let g = gen::path(1 << 20);
    let pool = PalPool::new(2).unwrap();
    let token = CancelToken::new();
    let canceller = token.clone();
    let checkouts = |pool: &PalPool| {
        let stats = pool.workspace().stats();
        stats.hits + stats.misses
    };
    let idle = checkouts(&pool);
    std::thread::scope(|s| {
        let pool = &pool;
        s.spawn(move || {
            while checkouts(pool) == idle {
                std::thread::yield_now();
            }
            canceller.cancel();
        });
        assert_eq!(
            run_cancellable(&token, || bfs_par(&g, pool, 0)),
            Err(CancelReason::Cancelled)
        );
    });
    // The pool answers exactly afterwards.
    let live = CancelToken::new();
    let small = gen::grid(5, 5);
    assert_eq!(
        run_cancellable(&live, || bfs_par(&small, &pool, 0)).as_deref(),
        Ok(bfs_seq(&small, 0).as_slice())
    );
}
