//! Heap-allocation counts of the warm steady state, under a counting
//! global allocator.
//!
//! No runtime path allocates per fork at any `p`: a fork's job, result slot
//! and latch live on the forking frame whether or not it is stolen, and
//! every multi-way fork is a `join` tree.  So a count is the code's alone
//! — deterministic, not a sample of a schedule — on `p = 1` and `p = 2`
//! pools alike.  One `#[test]` on purpose: the counter is process-global,
//! and a second test running beside this one would be counted into its
//! windows.
//!
//! * a fork nobody steals allocates **nothing** — the job lives on the
//!   forking frame, the latch inline (a `.no_cutoff()` pool, so every fork
//!   really goes through the deque and is popped back);
//! * a warm `scan_copy_in` / `pack_in` call allocates **nothing**, on
//!   either side of the wake floor — all scratch comes from the arena;
//! * a warm `bfs_par` allocates the vector it returns and nothing else —
//!   far inside one per level — through thin, fat and dense levels and a
//!   rebuilt frontier; the level buffers are the arena's;
//! * a warm `components_union_find` allocates the label vector it returns
//!   and nothing else, at `p = 1` and `p = 2`: its index passes are `join`
//!   trees and its parent forest is the arena's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use lopram_core::policy::WAKE_GRAIN;
use lopram_core::PalPool;
use lopram_graph::prelude::*;

/// Allocation events (alloc + realloc, all threads) since process start.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts: `realloc` is an event too — buffer
/// growth is exactly what the arena exists to remove — `dealloc` is free.
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

/// Wait for threads this test does not measure to go quiet: a freshly
/// built pool's workers allocate their thread-local state as they start
/// (a `p = 1` pool elides every fork, so nothing else waits for them),
/// and the harness thread files the test's bookkeeping just after
/// spawning it.  The counter is process-global and would see both.
fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(20));
}

/// Allocation events during `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = EVENTS.load(Ordering::Relaxed);
    f();
    EVENTS.load(Ordering::Relaxed) - before
}

fn join_tree(pool: &PalPool, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = pool.join(|| join_tree(pool, depth - 1), || join_tree(pool, depth - 1));
    a + b
}

#[test]
fn warm_steady_state_allocation_counts() {
    // -- an un-stolen fork ------------------------------------------------
    let raw = PalPool::builder()
        .processors(1)
        .no_cutoff()
        .build()
        .unwrap();
    join_tree(&raw, 4);
    settle();
    let in_tree = allocs(|| assert_eq!(black_box(join_tree(&raw, 14)), 1 << 14));
    assert_eq!(raw.metrics().inlined(), (1 << 4) - 1 + (1 << 14) - 1);
    assert_eq!(in_tree, 0, "2^14 - 1 popped-back forks");

    // -- scan and pack, below and above the wake floor ---------------------
    let pool = PalPool::new(1).unwrap();
    let pinned = PalPool::builder().processors(1).grain(64).build().unwrap();
    settle();
    let keep = |_: usize, x: &usize| x.is_multiple_of(3);
    for n in [1000, 2 * WAKE_GRAIN] {
        let input: Vec<usize> = (0..n).map(|i| (i * 2_654_435_761) % 1009).collect();
        let (mut scanned, mut packed) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            pool.scan_copy_in(&input, 0usize, |a, b| a + b, &mut scanned);
            pool.pack_in(&input, keep, &mut packed);
        }
        let scan = allocs(|| {
            black_box(pool.scan_copy_in(&input, 0usize, |a, b| a + b, &mut scanned));
        });
        assert_eq!(scan, 0, "warm scan_copy_in, n = {n}");
        let pack = allocs(|| pool.pack_in(&input, keep, &mut packed));
        assert_eq!(pack, 0, "warm pack_in, n = {n}");
        assert_eq!(packed.len(), input.iter().filter(|x| keep(0, x)).count());
    }

    // -- BFS ---------------------------------------------------------------
    // 2^17 arcs, so a level is dense above ~6.5 k frontier vertices + arcs:
    // three sparse levels, two dense ones, a sparse last one (its frontier
    // list rebuilt).  On the default pool every pass is one block; on the
    // grain-64 pool the dense passes fork and the middle sparse levels take
    // the scan/pack pipeline.
    let graph = gnm(1 << 13, 1 << 16, 42);
    let expected = bfs_seq(&graph, 0);
    let mut profile = vec![(0, 0); levels(&expected) + 1];
    for (v, &d) in expected
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHED)
    {
        profile[d].0 += 1;
        profile[d].1 += graph.degree(v);
    }
    let dense = |&(f, a): &(usize, usize)| is_dense_level(&graph, f, a);
    assert!(profile.iter().any(dense), "no level was dense");
    assert!(
        profile
            .iter()
            .any(|l| !dense(l) && pinned.chunk_count(l.1) > 1),
        "no level was fat"
    );
    // Deep enough that the exact count below sits inside "one per level".
    assert!(levels(&expected) >= 3);
    for (grain, pool) in [("default", &pool), ("grain64", &pinned)] {
        for _ in 0..2 {
            assert_eq!(bfs_par(&graph, pool, 0), expected, "{grain}");
        }
        let flat = allocs(|| {
            black_box(bfs_par(&graph, pool, 0));
        });
        // Exact, because p = 1 makes it so.
        assert_eq!(
            flat, 1,
            "warm bfs_par allocates its result, nothing else ({grain})"
        );
    }
    assert!(pinned.metrics().forks() > 0);

    // -- union-find CC, at p = 1 and p = 2 -----------------------------------
    // 2^16 vertices: at or above the wake floor, so on every pool below the
    // index passes and the flatten fork.
    let graph = gnm(1 << 16, 1 << 18, 7);
    let expected = components_seq(&graph);
    for p in [1, 2] {
        let default = PalPool::new(p).unwrap();
        let pinned = PalPool::builder().processors(p).grain(64).build().unwrap();
        settle();
        for (grain, pool) in [("default", &default), ("grain64", &pinned)] {
            for _ in 0..2 {
                assert_eq!(components_union_find(&graph, pool), expected, "{grain}");
            }
            for call in 0..3 {
                let cc = allocs(|| {
                    black_box(components_union_find(&graph, pool));
                });
                assert_eq!(
                    cc, 1,
                    "warm components_union_find allocates its labels, nothing else \
                     (p = {p}, {grain}, call {call})"
                );
            }
            assert!(pool.metrics().forks() > 0, "p = {p}, {grain}");
        }
    }
}
