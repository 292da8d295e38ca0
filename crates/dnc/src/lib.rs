//! # lopram-dnc
//!
//! The divide-and-conquer half of the paper's §4: a suite of classic
//! algorithms, each available in a sequential version and in the
//! "straightforward parallelization" the paper analyses — recursive calls
//! become pal-threads, a plain [`join`](lopram_core::Executor::join) tree
//! per node, nothing else changes.  Which Master-theorem case an
//! algorithm falls into determines the speedup the paper's Theorem 1
//! promises; the algorithms here are chosen to cover all three cases:
//!
//! | algorithm | recurrence | case | promised speedup |
//! |-----------|------------|------|------------------|
//! | [`karatsuba`], [`polymul`] | `3T(n/2)+n`, `4T(n/2)+n` | 1 | `O(T/p)` |
//! | [`strassen`] | `7T(n/2)+n²` | 1 | `O(T/p)` |
//! | [`mergesort`], [`max_subarray`], [`closest_pair`], [`quicksort`]¹ | `2T(n/2)+n` | 2 | `O(T/p)` |
//! | [`case3`] | `2T(n/2)+n²` | 3 | none (sequential merge), `Θ(f/p)` (parallel merge) |
//!
//! ¹ quicksort's split is randomised, so its recurrence holds in expectation.
//!
//! All parallel entry points are generic over
//! [`Executor`](lopram_core::Executor), so the same code runs sequentially
//! (`SeqExecutor`) or on the pal-thread pool (`PalPool`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod case3;
pub mod closest_pair;
pub mod karatsuba;
pub mod matrix;
pub mod max_subarray;
pub mod mergesort;
pub mod polymul;
pub mod quicksort;
pub mod strassen;

pub use matrix::Matrix;

/// Convenience prelude for the divide-and-conquer crate.
pub mod prelude {
    pub use crate::case3::{cross_product_sum, cross_product_sum_seq, CrossMergeMode};
    pub use crate::closest_pair::{closest_pair, closest_pair_seq, Point};
    pub use crate::karatsuba::{karatsuba_mul, karatsuba_mul_seq, schoolbook_mul};
    pub use crate::matrix::Matrix;
    pub use crate::max_subarray::{max_subarray, max_subarray_seq};
    pub use crate::mergesort::{merge_sort, merge_sort_parallel_merge, merge_sort_seq};
    pub use crate::polymul::{polymul_four_way, polymul_seq};
    pub use crate::quicksort::{quick_sort, quick_sort_seq};
    pub use crate::strassen::{strassen_mul, strassen_mul_seq};
}
