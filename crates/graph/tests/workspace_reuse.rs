//! Steady-state allocation tests for the graph kernels: after a first
//! (warming) call, repeated BFS / union-find CC runs on the same pool
//! must perform **zero** new workspace-arena growth — the pool-owned
//! buffers are reused, not re-materialized — while outputs stay equal to
//! the sequential twins.  Plus differential checks that the fused
//! `pack_in` pipeline agrees with its unfused twin (a plain sequential
//! filter) at every processor count.

use lopram_core::PalPool;
use lopram_graph::prelude::*;
use proptest::prelude::*;

/// A default pool and a pinned-grain pool at `p`.  These graphs sit below
/// the default policy's wake floor — every pass one block on the calling
/// thread, BFS levels a plain loop — so the pinned pool is what drives the
/// blocked, forking paths to their steady state.
fn pools(p: usize) -> [(&'static str, PalPool); 2] {
    [
        ("default", PalPool::new(p).unwrap()),
        (
            "grain64",
            PalPool::builder().processors(p).grain(64).build().unwrap(),
        ),
    ]
}

/// Warm the pool's arena to its fixpoint, asserting output correctness
/// on every round, then require a full round with zero growth and zero
/// missed checkouts.  At `p > 1` concurrent checkouts shuffle same-typed
/// shelf buffers between roles schedule-dependently; capacities are
/// monotone, so the shuffle converges — but not in a fixed number of
/// rounds (ARCHITECTURE.md, "Arena lifecycle").
fn assert_steady_state<R: PartialEq + std::fmt::Debug>(
    pool: &PalPool,
    label: &str,
    mut kernel: impl FnMut() -> R,
    expected: &R,
) {
    let mut settled = false;
    for round in 0..50 {
        let before = pool.workspace().stats();
        assert_eq!(&kernel(), expected, "{label}: round {round} diverged");
        let now = pool.workspace().stats();
        if now.grown_bytes == before.grown_bytes && now.misses == before.misses {
            settled = true;
            break;
        }
    }
    assert!(
        settled,
        "{label}: arena growth never settled to zero within 50 rounds"
    );
    assert!(
        pool.metrics().arena_hits() > 0,
        "{label}: the kernel never touched the arena"
    );
}

#[test]
fn bfs_levels_reuse_the_arena() {
    // gnm + star covers both many-level and two-level (hub) frontiers.
    for (name, g) in [("gnm", gnm(600, 1800, 3)), ("star", star(500))] {
        let expected = bfs_seq(&g, 0);
        for p in [1, 2, 4] {
            for (grain, pool) in pools(p) {
                assert_steady_state(
                    &pool,
                    &format!("bfs/{name}/p{p}/{grain}"),
                    || bfs_par(&g, &pool, 0),
                    &expected,
                );
            }
        }
    }
}

#[test]
fn cc_label_buffers_reuse_the_arena() {
    let g = gnm(400, 700, 9);
    let expected = components_seq(&g);
    for p in [1, 2, 4] {
        for (grain, pool) in pools(p) {
            assert_steady_state(
                &pool,
                &format!("cc-union-find/p{p}/{grain}"),
                || components_union_find(&g, &pool),
                &expected,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Fused pack (in-place boundary scan, no flag/offset vectors) must
    // equal the unfused twin — a plain sequential filter — for any input
    // and predicate, at every p, including through a reused buffer.
    #[test]
    fn fused_pack_matches_unfused_twin(
        input in proptest::collection::vec(0u64..1000, 0..600),
        modulus in 1u64..8,
    ) {
        let twin: Vec<u64> = input.iter().copied().filter(|x| x % modulus == 0).collect();
        for (_, pool) in [1usize, 2, 4].into_iter().flat_map(pools) {
            let p = pool.processors();
            let mut fresh = Vec::new();
            pool.pack_in(&input, |_, x| x % modulus == 0, &mut fresh);
            prop_assert_eq!(&fresh, &twin, "pack_in fresh, p = {}", p);
            let mut buf = vec![u64::MAX; 7]; // stale contents must not leak
            pool.pack_in(&input, |_, x| x % modulus == 0, &mut buf);
            prop_assert_eq!(&buf, &twin, "pack_in, p = {}", p);
            // Reuse the same buffer with the complementary predicate.
            let complement: Vec<u64> =
                input.iter().copied().filter(|x| x % modulus != 0).collect();
            pool.pack_in(&input, |_, x| x % modulus != 0, &mut buf);
            prop_assert_eq!(&buf, &complement, "pack_in reuse, p = {}", p);
        }
    }

    // scan_copy_in must agree with the sequential running sum, into a
    // fresh buffer and into one holding stale values.
    #[test]
    fn scan_variants_match_sequential_twin(
        input in proptest::collection::vec(0u64..10_000, 0..600),
    ) {
        let mut acc = 0u64;
        let twin: Vec<u64> = input
            .iter()
            .map(|x| {
                let before = acc;
                acc += x;
                before
            })
            .collect();
        for (_, pool) in [1usize, 2, 4].into_iter().flat_map(pools) {
            let p = pool.processors();
            let mut fresh = Vec::new();
            let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut fresh);
            prop_assert_eq!(&fresh, &twin, "scan_copy_in fresh, p = {}", p);
            prop_assert_eq!(total, acc, "scan_copy_in fresh total, p = {}", p);
            let mut stale = vec![u64::MAX; 7];
            let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut stale);
            prop_assert_eq!(&stale, &twin, "scan_copy_in stale, p = {}", p);
            prop_assert_eq!(total, acc, "scan_copy_in stale total, p = {}", p);
        }
    }
}
