//! Fixed-size probes of the two lowest layers, run by a traced run at the
//! workload's processor count: what one deque operation, one fork, one
//! idle-pool round trip and one blocked pass cost on their own.

use std::hint::black_box;

use lopram_core::PalPool;
use rayon::deque::{deque, Steal};
use rayon::ThreadPool;

use crate::stats::{median, Histogram};
use crate::sys::{self, now_ns};

/// Depth of the fork trees: `2^14 − 1` forks.
const TREE_DEPTH: u32 = 14;
const TREE_FORKS: f64 = ((1u32 << TREE_DEPTH) - 1) as f64;

/// Median over `reps` of the nanoseconds `f` takes.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = now_ns();
            f();
            (now_ns() - start) as f64
        })
        .collect();
    median(&samples)
}

pub struct Runtime {
    pub deque_push_pop_ns: f64,
    pub deque_steal_ns: f64,
    pub join_ns_per_fork: f64,
    pub install_roundtrip_us: f64,
    pub spurious_wakeups: f64,
}

fn raw_tree(depth: u32) {
    if depth > 0 {
        rayon::join(|| raw_tree(depth - 1), || raw_tree(depth - 1));
    }
}

/// `shims/rayon` alone: the deque directly, then a pool of `p` threads.
pub fn runtime(p: usize) -> Runtime {
    const OPS: usize = 1 << 16;
    let (worker, stealer) = deque::<usize>();
    let deque_push_pop_ns = median_ns(9, || {
        for i in 0..OPS {
            worker.push(black_box(i));
            black_box(worker.pop());
        }
    }) / OPS as f64;
    // Uncontended steals (owner and thief on one thread): the cost of the
    // steal path itself, not of a cache line bouncing between cores.
    let deque_steal_ns = median(
        &(0..9)
            .map(|_| {
                for i in 0..OPS {
                    worker.push(i);
                }
                let start = now_ns();
                for _ in 0..OPS {
                    match stealer.steal() {
                        Steal::Success(v) => drop(black_box(v)),
                        Steal::Empty | Steal::Retry => {
                            unreachable!("single thread, deque holds {OPS} items")
                        }
                    }
                }
                (now_ns() - start) as f64
            })
            .collect::<Vec<_>>(),
    ) / OPS as f64;

    let pool: ThreadPool = rayon::ThreadPoolBuilder::new()
        .num_threads(p)
        .thread_name(|i| format!("lopram-proc-{i}"))
        .build()
        .expect("build probe pool");
    sys::pin_threads(p);
    let before = pool.stats().spurious_wakeups;
    let join_ns = median_ns(15, || {
        pool.join(|| raw_tree(TREE_DEPTH - 1), || raw_tree(TREE_DEPTH - 1));
    });
    // Back to back, as a level-synchronous kernel calls: inject → wake → run
    // → the worker finds nothing and parks (or is still searching) → again.
    let mut roundtrip = Histogram::default();
    for _ in 0..2000 {
        let start = now_ns();
        pool.install(|| ());
        roundtrip.record(now_ns() - start);
    }
    Runtime {
        deque_push_pop_ns,
        deque_steal_ns,
        join_ns_per_fork: join_ns / TREE_FORKS,
        install_roundtrip_us: roundtrip.quantile_us(0.5),
        spurious_wakeups: (pool.stats().spurious_wakeups - before) as f64,
    }
}

pub struct Core {
    pub join_ns_per_fork: f64,
    pub scan_ns_per_elem: f64,
    pub pack_ns_per_elem: f64,
    pub expand_ns_per_elem: f64,
    pub scan_small_us_per_call: f64,
}

fn pal_tree(pool: &PalPool, depth: u32) {
    if depth > 0 {
        pool.join(|| pal_tree(pool, depth - 1), || pal_tree(pool, depth - 1));
    }
}

/// `lopram-core` alone on a `PalPool` of `p`: the throttled join (default α)
/// and the blocked primitives on `n` elements and on 1024.
pub fn core(p: usize, n: usize) -> Core {
    let pool = PalPool::new(p).expect("p >= 1");
    sys::pin_threads(p);
    let input: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut out = Vec::new();
    let join_ns = median_ns(15, || pal_tree(&pool, TREE_DEPTH));
    let scan_ns = median_ns(9, || {
        black_box(pool.scan_copy_in(&input, 0, u64::wrapping_add, &mut out));
    });
    let pack_ns = median_ns(9, || pool.pack_in(&input, |_, x| x & 1 == 0, &mut out));
    // Four output slots per input item, so `n` elements are written.
    let sizes = vec![4usize; n / 4];
    let expand_ns = median_ns(9, || {
        pool.expand_in(&sizes, 0u64, |i, slots| slots.fill(i as u64), &mut out);
    });
    const SMALL: usize = 1024;
    const CALLS: usize = 4096;
    let small_ns = median_ns(9, || {
        for _ in 0..CALLS {
            black_box(pool.scan_copy_in(&input[..SMALL.min(n)], 0, u64::wrapping_add, &mut out));
        }
    });
    Core {
        join_ns_per_fork: join_ns / TREE_FORKS,
        scan_ns_per_elem: scan_ns / n as f64,
        pack_ns_per_elem: pack_ns / n as f64,
        expand_ns_per_elem: expand_ns / sizes.len().max(1) as f64 / 4.0,
        scan_small_us_per_call: small_ns / CALLS as f64 / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_costs() {
        let r = runtime(2);
        for v in [
            r.deque_push_pop_ns,
            r.deque_steal_ns,
            r.join_ns_per_fork,
            r.install_roundtrip_us,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
        let c = core(2, 1 << 12);
        for v in [
            c.join_ns_per_fork,
            c.scan_ns_per_elem,
            c.pack_ns_per_elem,
            c.expand_ns_per_elem,
            c.scan_small_us_per_call,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
    }
}
