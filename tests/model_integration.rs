//! Integration tests for the model layer: processor policy and pal-thread
//! runtime semantics working together the way §3 of the paper describes.

use std::sync::atomic::{AtomicUsize, Ordering};

use lopram::core::{palthreads, processors_for, PalPool, ProcessorPolicy, SeqExecutor};

#[test]
fn processor_policy_is_logarithmic_in_n() {
    // §3.2: p = O(log n).  The unclamped policy is exactly ⌊log₂ n⌋.
    for exp in 1..=30u32 {
        let n = 1usize << exp;
        assert_eq!(ProcessorPolicy::LogN.processors_unclamped(n), exp as usize);
    }
    assert!(processors_for(1 << 16, ProcessorPolicy::LogN) >= 1);
}

#[test]
fn palthreads_macro_runs_children_and_waits() {
    let pool = PalPool::new(3).unwrap();
    let counter = AtomicUsize::new(0);
    palthreads!(pool => {
        counter.fetch_add(1, Ordering::SeqCst);
    }, {
        counter.fetch_add(2, Ordering::SeqCst);
    }, {
        counter.fetch_add(4, Ordering::SeqCst);
    });
    // The implicit wait of the palthreads block guarantees all children ran.
    assert_eq!(counter.load(Ordering::SeqCst), 7);
}

#[test]
fn both_runtimes_compute_identical_results() {
    fn tree_sum<E: lopram::core::Executor>(exec: &E, data: &[u64]) -> u64 {
        if data.len() <= 16 {
            return data.iter().sum();
        }
        let (lo, hi) = data.split_at(data.len() / 2);
        let (a, b) = exec.join(|| tree_sum(exec, lo), || tree_sum(exec, hi));
        a + b
    }
    let data: Vec<u64> = (0..50_000).collect();
    let expected: u64 = data.iter().sum();
    let pal = PalPool::new(4).unwrap();
    assert_eq!(tree_sum(&SeqExecutor, &data), expected);
    assert_eq!(tree_sum(&pal, &data), expected);
}

#[test]
fn pool_sized_by_policy_runs_divide_and_conquer_correctly() {
    let n = 1usize << 15;
    let pool = PalPool::new(processors_for(n, ProcessorPolicy::LogN)).unwrap();
    assert!(pool.processors() >= 1);
    let mut v: Vec<i64> = (0..n as i64).rev().collect();
    lopram::dnc::mergesort::merge_sort(&pool, &mut v);
    assert!(v.windows(2).all(|w| w[0] <= w[1]));
}
