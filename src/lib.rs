//! # lopram — umbrella crate
//!
//! Reproduction of *"Optimal Speedup on a Low-Degree Multi-Core Parallel
//! Architecture (LoPRAM)"* (Dorrigiv, López-Ortiz, Salinger; SPAA 2008 /
//! TR CS-2007-48).
//!
//! This crate simply re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! * [`core`] — the LoPRAM model, `p = O(log n)` processor
//!   policy and the pal-thread runtime;
//! * [`sim`] — a deterministic LoPRAM machine simulator
//!   (pal-thread scheduler, execution-tree traces);
//! * [`analysis`] — the sequential and parallel Master
//!   theorems, recurrence evaluators and DAG/antichain toolkit;
//! * [`dnc`] — one divide-and-conquer kernel per Master-theorem case
//!   (§4.1), one `join` tree per recursive call;
//! * [`dp`] — the dynamic-programming framework, Algorithm 1
//!   scheduler, wavefront executor and parallel memoization (§4.2–4.6);
//! * [`graph`] — irregular graph workloads (CSR graphs,
//!   scan/pack-based frontier BFS, connected components), each with a
//!   sequential twin for differential testing;
//! * [`serve`] — a fault-tolerant multi-tenant job service over one
//!   shared pal-thread pool: bounded admission with backpressure,
//!   per-tenant §3.1 token budgets, deadlines with cooperative
//!   cancellation, and deterministic fault injection.
//!
//! The graph prelude is deliberately *not* folded into [`prelude`] — its
//! short generator names (`path`, `star`, …) would collide too easily;
//! use `lopram::graph::prelude` explicitly.

#![warn(missing_docs)]

// Doc-test the README's quickstart snippet so the manifest wiring it
// exercises (umbrella re-exports, prelude, cross-crate deps) cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use lopram_analysis as analysis;
pub use lopram_core as core;
pub use lopram_dnc as dnc;
pub use lopram_dp as dp;
pub use lopram_graph as graph;
pub use lopram_serve as serve;
pub use lopram_sim as sim;

/// Convenience prelude pulling in the most commonly used items from every
/// sub-crate.
pub mod prelude {
    pub use lopram_analysis::prelude::*;
    pub use lopram_core::prelude::*;
    pub use lopram_dnc::prelude::{
        cross_product_sum, cross_product_sum_seq, karatsuba_mul, karatsuba_mul_seq, merge_sort,
        merge_sort_seq, schoolbook_mul, CrossMergeMode,
    };
    pub use lopram_dp::prelude::*;
    pub use lopram_sim::prelude::*;
}
