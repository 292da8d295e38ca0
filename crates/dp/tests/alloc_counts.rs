//! Heap-allocation counts of a bottom-up solve, under a counting global
//! allocator.
//!
//! A solve allocates its schedule's flat arrays, its table and the vector
//! it returns — a number that does not grow with the table.  Before the
//! schedule existed it allocated a dependency vector and an adjacency
//! vector per cell: about `3·10⁵` events for the table below.
//!
//! One `#[test]` on purpose: the counter is process-global, and a second
//! test running beside this one would be counted into its windows.  The
//! pools are default ones, on which no level of this table is heavy enough
//! to fork (see `schedule.rs`), so the count is the solver's alone at any
//! `p`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use lopram_core::PalPool;
use lopram_dp::prelude::*;

/// Allocation events (alloc + realloc, all threads) since process start.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts; `realloc` is an event too — a vector
/// grown by doubling is exactly what a flat build avoids.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a side effect
// with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events during `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = EVENTS.load(Ordering::Relaxed);
    f();
    EVENTS.load(Ordering::Relaxed) - before
}

#[test]
fn a_solve_allocates_a_constant_number_of_times() {
    // The benchmark's `batch-large-*` table: 385 × 385 cells.
    let text =
        |salt: usize| -> Vec<u8> { (0..384).map(|i| b"acgt"[(i * salt + i / 7) % 4]).collect() };
    let problem = EditDistance::new(text(3), text(5));
    let expected = problem.reference();

    let sequential = allocs(|| assert_eq!(black_box(solve_sequential(&problem)).goal, expected));
    assert!(
        sequential <= 32,
        "solve_sequential: {sequential} allocations"
    );

    for p in [1, 2] {
        let pool = PalPool::new(p).unwrap();
        let wavefront = allocs(|| {
            assert_eq!(black_box(solve_wavefront(&problem, &pool)).goal, expected);
        });
        assert!(
            wavefront <= 32,
            "solve_wavefront at p = {p}: {wavefront} allocations"
        );
        assert_eq!(pool.metrics().forks(), 0, "p = {p}");
    }
}
