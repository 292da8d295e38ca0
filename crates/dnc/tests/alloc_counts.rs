//! Heap-allocation and fork counts of the D&C kernels, under a counting
//! global allocator.
//!
//! Everything runs on `p = 1` pools or on `SeqExecutor`, where no fork
//! ever leaves the calling thread and the count is therefore the code's
//! alone — deterministic, not a sample of a schedule.  One `#[test]` on
//! purpose: the counter is process-global, and a second test running
//! beside this one would be counted into its windows.
//!
//! * `merge_sort_seq` and `merge_sort` allocate their one temp buffer and
//!   nothing else, on an even and an odd length — the ping-pong recursion
//!   never copies through a fresh vector, and the four-element network
//!   leaf sorts on the stack;
//! * `karatsuba_mul` allocates its result and its one scratch slab, on
//!   equal and on unequal lengths (an empty high half on the way down);
//! * `karatsuba_mul` on 4096 coefficients at the default grain of 32 forks
//!   `2·(3⁷ − 1)/2 = 3⁷ − 1` times: two `join`s per internal node of a
//!   ternary tree seven levels deep;
//! * past one slab, Karatsuba's live scratch stays within the `100·n`
//!   words its doc comment promises, at the default grain and at grain 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use lopram_core::{PalPool, SeqExecutor};
use lopram_dnc::karatsuba::{karatsuba_mul, karatsuba_mul_with_grain, schoolbook_mul};
use lopram_dnc::mergesort::{merge_sort, merge_sort_seq};

/// Allocation events (alloc + realloc, all threads) since process start.
static EVENTS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most of them seen since
/// [`peak_bytes`] last reset it.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Delegates to [`System`] and counts: `realloc` is an event too,
/// `dealloc` is free; all three track the live bytes.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counters are a side effect
// with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
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

/// Most bytes live at once during `f`, beyond those live before it.
fn peak_bytes(f: impl FnOnce()) -> u64 {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

fn words(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

fn poly(n: usize, seed: u64) -> Vec<i64> {
    words(n, seed)
        .into_iter()
        .map(|w| (w % 2001) as i64 - 1000)
        .collect()
}

#[test]
fn dnc_kernels_allocate_their_buffers_and_nothing_else() {
    let pool = PalPool::new(1).unwrap();

    // -- mergesort: the temp buffer ------------------------------------------
    // The odd length puts 2- and 3-element leaves beside the 4-element ones.
    for n in [1 << 16, (1 << 16) + 3] {
        let input = words(n, 7);
        let mut expected = input.clone();
        expected.sort_unstable();
        let mut v = input.clone();
        merge_sort(&pool, &mut v);
        assert_eq!(v, expected);

        let mut v = input.clone();
        assert_eq!(
            allocs(|| merge_sort_seq(&mut v)),
            1,
            "merge_sort_seq, n = {n}"
        );
        assert_eq!(v, expected);
        let mut v = input.clone();
        let seq = allocs(|| merge_sort(&SeqExecutor, &mut v));
        assert_eq!(seq, 1, "merge_sort on SeqExecutor, n = {n}");
        assert_eq!(v, expected);
        let mut v = input.clone();
        let par = allocs(|| merge_sort(&pool, &mut v));
        assert_eq!(par, 1, "merge_sort on p = 1, n = {n}");
        assert_eq!(v, expected);
    }

    // -- Karatsuba: result + scratch -----------------------------------------
    for (la, lb) in [(4096, 4096), (1000, 3000)] {
        let (a, b) = (poly(la, la as u64), poly(lb, lb as u64 + 1));
        let expected = schoolbook_mul(&a, &b);
        assert_eq!(karatsuba_mul(&pool, &a, &b), expected);
        let mut got = Vec::new();
        let seq = allocs(|| got = black_box(karatsuba_mul(&SeqExecutor, &a, &b)));
        assert_eq!(seq, 2, "karatsuba_mul on SeqExecutor, {la} x {lb}");
        let par = allocs(|| got = black_box(karatsuba_mul(&pool, &a, &b)));
        assert_eq!(par, 2, "karatsuba_mul on p = 1, {la} x {lb}");
        assert_eq!(got, expected);
    }

    // -- Karatsuba's fork tree -------------------------------------------------
    let (a, b) = (poly(4096, 3), poly(4096, 4));
    for _ in 0..2 {
        let (_, run) = pool.scoped_metrics(|| karatsuba_mul(&pool, &a, &b));
        assert_eq!(run.forks(), 3u64.pow(7) - 1, "4096 coefficients, grain 32");
    }

    // -- Karatsuba's scratch stays linear in n -------------------------------
    // One slab for the whole tree would be ≈ 150·n words at 2¹⁴ / grain 32
    // and ≈ 515·n at 2¹² / grain 1.
    for (n, grain) in [(1 << 14, 32), (1 << 12, 1)] {
        let (a, b) = (poly(n, 5), poly(n, 6));
        let mut got = Vec::new();
        let peak =
            peak_bytes(|| got = black_box(karatsuba_mul_with_grain(&SeqExecutor, &a, &b, grain)));
        let scratch_words = peak / 8 - got.len() as u64;
        assert!(
            scratch_words <= 100 * n as u64,
            "n = {n}, grain {grain}: {scratch_words} scratch words"
        );
    }
}
