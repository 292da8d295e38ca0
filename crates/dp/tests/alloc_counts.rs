//! Heap-allocation counts of a bottom-up solve, under a counting global
//! allocator.
//!
//! A grid ([`DpProblem::grid`]) solve allocates exactly once: the table it
//! returns, which the row-major loop fills in place.  Any other table goes
//! through the solvers' schedule: its flat arrays, its table and the
//! returned vector, a number that does not grow with the table's size
//! (only, through doubling, with its reads per cell).  The pin runs the
//! same grid with `grid()` hidden to hold that path at ≤ 32.  Before the
//! schedule existed a solve allocated a dependency vector and an adjacency
//! vector per cell: about `3·10⁵` events for the benchmark's grid.
//!
//! Events are counted per thread, and a window sees only the thread that
//! opened it: a pool's workers, which set up their own state on their own
//! schedule once the pool is built, never land in it.  The pools are
//! default ones, on which the table is not heavy enough to fork either way
//! (see `schedule.rs`), and every window asserts that nothing forked, so
//! the calling thread's count is the whole solve's at any `p`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use lopram_core::PalPool;
use lopram_dp::prelude::*;

mod common;
use common::Levels;

thread_local! {
    /// Allocation events (alloc + realloc) on this thread since it started.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// One more event on the calling thread.
fn count() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = EVENTS.try_with(|events| events.set(events.get() + 1));
}

/// Delegates to [`System`] and counts; `realloc` is an event too — a vector
/// grown by doubling is exactly what a flat build avoids.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a side effect
// with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events of the calling thread during `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = EVENTS.with(Cell::get);
    f();
    EVENTS.with(Cell::get) - before
}

/// Allocation events of `solve_sequential` and of `solve_wavefront` on
/// default pools with p ∈ {1, 2}, each checked against `expected`.
fn solve_allocs<P>(problem: &P, expected: P::Value) -> Vec<(String, u64)>
where
    P: DpProblem,
    P::Value: PartialEq + std::fmt::Debug,
{
    let sequential = allocs(|| assert_eq!(black_box(solve_sequential(problem)).goal, expected));
    let mut counts = vec![("solve_sequential".to_string(), sequential)];
    for p in [1, 2] {
        let pool = PalPool::new(p).unwrap();
        let wavefront = allocs(|| {
            assert_eq!(black_box(solve_wavefront(problem, &pool)).goal, expected);
        });
        assert_eq!(pool.metrics().forks(), 0, "p = {p}");
        counts.push((format!("solve_wavefront at p = {p}"), wavefront));
    }
    counts
}

#[test]
fn a_solve_allocates_a_constant_number_of_times() {
    // The benchmark's `batch-large-*` table: a 385 × 385 grid.
    let text =
        |salt: usize| -> Vec<u8> { (0..384).map(|i| b"acgt"[(i * salt + i / 7) % 4]).collect() };
    let grid = EditDistance::new(text(3), text(5));
    for (solver, count) in solve_allocs(&grid, grid.reference()) {
        assert_eq!(count, 1, "{solver} on a grid: {count} allocations");
    }

    // The same table with its `grid()` hidden, evaluated level by level.
    for (solver, count) in solve_allocs(&Levels(&grid), grid.reference()) {
        assert!(
            count <= 32,
            "{solver} through the schedule: {count} allocations"
        );
    }
}
