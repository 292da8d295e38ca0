//! # lopram-graph
//!
//! Irregular graph workloads for the LoPRAM reproduction.
//!
//! The paper's thesis is that `p = O(log n)` pal-threads suffice for
//! optimal speedup on divide-and-conquer and dynamic-programming
//! workloads.  This crate stresses the runtime with the *irregular* third
//! family: graph algorithms, which — as Dhulipala, Blelloch and Shun's
//! GBBS and Tithi et al.'s level-synchronous BFS demonstrate — reduce to
//! exactly two data-parallel primitives, **scan** (prefix sum) and
//! **pack** (filter/compaction).  Those primitives live in `lopram-core`
//! ([`PalPool::scan_copy_in`](lopram_core::PalPool::scan_copy_in),
//! [`PalPool::pack_in`](lopram_core::PalPool::pack_in)) and are built on
//! `PalPool::join`, so every kernel here inherits the `⌈α·log₂ p⌉`
//! sequential cutoff of §3.1/Figure 2 and full `RunMetrics` fork
//! accounting.
//!
//! Contents:
//!
//! * [`csr`] — undirected compressed-sparse-row graphs;
//! * [`gen`] — deterministic generators: seeded `G(n, m)`, grid, star,
//!   path, complete binary tree;
//! * [`bfs`] — level-synchronous, direction-switching frontier BFS
//!   ([`bfs::bfs_par`]: sparse levels top-down by scan/pack, dense levels
//!   bottom-up in one pass) and its sequential twin ([`bfs::bfs_seq`]),
//!   which switches by the same rule ([`bfs::is_dense_level`]);
//! * [`cc`] — the connected-components twin [`cc::components_seq`] and
//!   [`cc::component_count`];
//! * [`uf`] — work-efficient connected components by sampled concurrent
//!   union-find ([`uf::components_union_find`]): CAS hooking, path
//!   splitting, Afforest-style edge sampling — a constant number of
//!   blocked passes regardless of diameter.
//!
//! Every parallel kernel has a sequential twin producing bit-identical
//! output for any processor count; `tests/differential.rs` checks that
//! property over random graphs and on fixed shapes wide enough to fork at
//! `p ∈ {1, 2, 4}`, and the standalone `benchmark/` workspace times the
//! kernels against their twins.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod csr;
pub mod gen;
pub mod uf;

pub use csr::CsrGraph;

/// Convenience prelude re-exporting the items most users need.
pub mod prelude {
    pub use crate::bfs::{bfs_par, bfs_seq, is_dense_level, levels, UNREACHED};
    pub use crate::cc::{component_count, components_seq};
    pub use crate::csr::CsrGraph;
    pub use crate::gen::{binary_tree, gnm, gnm_streamed, grid, path, path_permuted, star};
    pub use crate::uf::{
        components_union_find, components_union_find_with, union_find_forks, UnionFindConfig,
    };
}
