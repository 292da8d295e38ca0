//! # lopram-dnc
//!
//! The divide-and-conquer half of the paper's §4: one kernel per
//! Master-theorem case, each available in a sequential version and in the
//! "straightforward parallelization" the paper analyses — recursive calls
//! become pal-threads, a plain [`join`](lopram_core::Executor::join) tree
//! per node, nothing else changes.  Which case an algorithm falls into
//! determines the speedup the paper's Theorem 1 promises:
//!
//! | algorithm | recurrence | case | promised speedup |
//! |-----------|------------|------|------------------|
//! | [`karatsuba`] | `3T(n/2)+n` | 1 | `O(T/p)` |
//! | [`mergesort`] | `2T(n/2)+n` | 2 | `O(T/p)` |
//! | [`case3`] | `2T(n/2)+n²` | 3 | none (sequential merge), `Θ(f/p)` (parallel merge) |
//!
//! All parallel entry points are generic over
//! [`Executor`](lopram_core::Executor), so the same code runs sequentially
//! (`SeqExecutor`) or on the pal-thread pool (`PalPool`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod case3;
pub mod karatsuba;
pub mod mergesort;

/// Convenience prelude for the divide-and-conquer crate.
pub mod prelude {
    pub use crate::case3::{cross_product_sum, cross_product_sum_seq, CrossMergeMode};
    pub use crate::karatsuba::{karatsuba_mul, karatsuba_mul_seq, schoolbook_mul};
    pub use crate::mergesort::{merge_sort, merge_sort_seq};
}
