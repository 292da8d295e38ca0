//! Processor-count policies.
//!
//! The defining assumption of the LoPRAM (paper §3, §3.2) is that the number
//! of processors `p` available to an algorithm is `O(log n)` in the input
//! size `n`, and that an algorithm must run correctly for *any* value of `p`
//! (the operating system may give it fewer cores as the level of
//! multiprogramming changes).  [`ProcessorPolicy`] captures the ways the
//! reproduction selects `p`, and [`processors_for`] evaluates a policy for a
//! concrete input size.
//!
//! The flip side of `p = O(log n)` is the paper's §3.1 throttle: in a
//! divide-and-conquer recursion only the top `O(log p)` levels can ever be
//! granted fresh processors (Figure 2's cutoff depth `log_a p`); every fork
//! below that is destined to run sequentially in its parent.
//! [`cutoff_levels`] computes the `⌈α·log₂ p⌉` depth below which
//! [`PalPool`](crate::PalPool) degenerates forks to plain calls — `α`
//! leaves headroom over the exact `log_a p` so mildly unbalanced trees
//! still expose enough pending pal-threads for migration.

/// Per-block cost floor for [`grain_size`]: minimum number of elements a
/// block must carry once a pass splits at all.
///
/// It prices the *fork*, not the wake: a scheduled un-stolen fork costs
/// ~71 ns (an elided one ~13 ns) while one element of a scan/pack block
/// pass costs ~1–2 ns, so a 256-element block keeps a worst-case
/// all-scheduled fork tree under ~30 % overhead.  Whether a pass may split
/// in the first place is [`WAKE_GRAIN`]'s decision; on the default policy
/// ([`pass_chunks`]) this floor therefore only binds on
/// [`PalPoolBuilder::grain`](crate::PalPoolBuilder::grain)-pinned pools.
pub const DEFAULT_GRAIN: usize = 256;

/// Default steal-amortization grain for [`grain_size`]: the number of
/// elements a *stolen* block must carry before finer-than-`4p` splitting
/// pays for the migration (deque round-trip plus the thief's cold cache,
/// ~microseconds — three orders of magnitude above a fork).
pub const DEFAULT_STEAL_GRAIN: usize = 4096;

/// Wake floor of the default pass policy ([`pass_chunks`]): a blocked pass
/// over fewer elements than this runs as **one block on the calling
/// thread** — zero forks, zero wakeups.
///
/// A pass called from outside the pool's workers that forks at all pays one
/// inject → wake a parked worker → park the caller → wake the caller round
/// trip.  The floor was sized when `runtime.install_roundtrip_us` read
/// ≈ 47 µs on the 2-CPU container the benchmark runs on (45–55 µs; the
/// cross-CPU park/unpark alone was 35 µs), against `core.scan_ns_per_elem`
/// ≈ 1.2 ns — the wake bought nothing until the pass carried ≈ 40 k
/// elements, and at `p = 2` a split saves at most half the work.
/// `1 << 15` is that break-even rounded to a power of two.  Re-read on
/// 2026-10-17 (30 traced benchmark runs per side of an A/B pair, same
/// container): median 16 µs, quartiles 14–17 µs, range 8–23 µs, which
/// puts the break-even near 13 k elements; moving the floor is a
/// measured change of its own.
/// Measured on the benchmark's `batch-fine-pN` (p = 2, digests checked):
/// a 1024-element scan from a non-worker thread,
/// `core.scan_small_us_per_call`, 114 µs → 0.5 µs; with the thin BFS level
/// and the mergesort cutoff that apply the same rule one layer up,
/// `time_vs_seq` 9.33 → 1.27 over ten 15 s pairs.
pub const WAKE_GRAIN: usize = 1 << 15;

/// *The* default chunking policy: how many blocks a blocked data-parallel
/// pass over `len` elements is split into on `p` processors.
///
/// `1` when `len <` [`WAKE_GRAIN`] — work smaller than the wake it would
/// trigger stays on the calling thread — and otherwise
/// [`grain_size`]`(len, p, `[`DEFAULT_GRAIN`]`, `[`DEFAULT_STEAL_GRAIN`]`)`.
/// The rule is uniform over every `p` (including 1, where forks are elided
/// anyway) and over every pass primitive.
///
/// Default [`PalPool`](crate::PalPool)s ([`PalPool::chunk_count`](crate::PalPool::chunk_count))
/// call this one function, so changing the floor is a one-line edit here.
/// A pure function of `(len, p)` — never of a clock, a counter or the
/// schedule — so every fork closed form built on it stays exact.
pub fn pass_chunks(len: usize, p: usize) -> usize {
    if len < WAKE_GRAIN {
        1
    } else {
        grain_size(len, p, DEFAULT_GRAIN, DEFAULT_STEAL_GRAIN)
    }
}

/// Block count for a blocked data-parallel pass over `len` elements on `p`
/// processors, given explicit grains — the building block under
/// [`pass_chunks`] (which adds the [`WAKE_GRAIN`] floor in front of it) and
/// the whole policy of a [`PalPoolBuilder::grain`](crate::PalPoolBuilder::grain)-pinned
/// pool (which deliberately keeps forking on tiny inputs).
///
/// Replaces the fixed `4p` blocking with two cost-model rules:
///
/// * **cost floor** — never make a block smaller than `min_grain`
///   elements, so tiny inputs stop paying fork overhead they cannot
///   amortize (a 100-element scan on `p = 4` used to fork 15 times for
///   ~25 ns of work per block);
/// * **steal-informed splitting** — on inputs large enough that even an
///   eighth-per-processor block still carries `steal_grain` elements
///   (`len / 8p >= steal_grain`), split `8p` ways instead of `4p`: skewed
///   work (a star graph's hub block, an adversarial pack predicate)
///   rebalances through steals, and each extra pending block is only
///   worth migrating when it amortizes the steal itself.
///
/// Both rules are **pure functions of `(len, p, min_grain, steal_grain)`**
/// — deliberately *not* of live steal counters.  The steal rule is
/// informed by the measured steal cost model, not by the observed
/// schedule, precisely so that a primitive's fork count (`blocks − 1` per
/// parallel pass) stays exact and schedule-independent and
/// [`assert_metrics_consistent`](crate::assert_metrics_consistent)
/// can keep asserting it on racy hosts.
///
/// The result is clamped to `[1, len]` (callers guarantee `len >= 1`,
/// matching [`PalPool::chunk_count`](crate::PalPool::chunk_count)).
/// `min_grain`/`steal_grain` of 0 are treated as 1 / disabled.
pub fn grain_size(len: usize, p: usize, min_grain: usize, steal_grain: usize) -> usize {
    let p = p.max(1);
    let oversubscribe = if steal_grain > 0 && len / (8 * p) >= steal_grain {
        8
    } else {
        4
    };
    // Floor division keeps the contract literal: with `chunks <=
    // len / min_grain`, every balanced block carries `len / chunks >=
    // min_grain` elements (an input shorter than `2·min_grain` is one
    // block).
    let by_cost = (len / min_grain.max(1)).max(1);
    (oversubscribe * p).min(by_cost).clamp(1, len)
}

/// Strategy used to pick the number of processors `p` for an input of size `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessorPolicy {
    /// The paper's canonical choice: `p = max(1, ⌊log₂ n⌋)`, additionally
    /// capped by the number of cores the host actually exposes.
    #[default]
    LogN,
    /// A fixed processor count, still clamped to at least one: sweeps
    /// `p ∈ {1, 2, 4, 8, …}` independently of `n`.
    Fixed(usize),
    /// Use every core the host reports (`std::thread::available_parallelism`).
    Available,
}

impl ProcessorPolicy {
    /// Evaluate the policy for an input of size `n`.
    ///
    /// The result is always at least 1.  Logarithmic policies are capped by
    /// the host parallelism so that `p` never exceeds what the machine can
    /// actually run concurrently, mirroring §3.2's remark that the OS decides
    /// how many cores are really available.
    pub fn processors(&self, n: usize) -> usize {
        let host = available_parallelism();
        match *self {
            ProcessorPolicy::LogN => floor_log2(n).max(1).min(host),
            ProcessorPolicy::Fixed(p) => p.max(1),
            ProcessorPolicy::Available => host,
        }
    }

    /// Evaluate the policy but without clamping the logarithmic policies
    /// to the host's core count: the `p` the paper's `O(log n)` rule asks
    /// for, whether or not this machine has that many cores.
    pub fn processors_unclamped(&self, n: usize) -> usize {
        match *self {
            ProcessorPolicy::LogN => floor_log2(n).max(1),
            ProcessorPolicy::Fixed(p) => p.max(1),
            ProcessorPolicy::Available => available_parallelism(),
        }
    }
}

/// Shorthand for [`ProcessorPolicy::processors`].
pub fn processors_for(n: usize, policy: ProcessorPolicy) -> usize {
    policy.processors(n)
}

/// Number of hardware threads the host exposes (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// Number of top recursion levels that keep creating scheduler jobs on a
/// pool of `p` processors: `⌈α·log₂ p⌉`.
///
/// Below this depth a fork can never be granted a fresh processor in the
/// paper's model (Figure 2), so [`PalPool`](crate::PalPool) runs it as a
/// plain sequential call.  `p ≤ 1` yields 0 — a one-processor pool elides
/// every fork.  `α` is clamped to be non-negative; the result is clamped to
/// `usize::BITS` (deeper cutoffs are indistinguishable: no recursion over a
/// `usize`-indexed input is deeper).
pub fn cutoff_levels(alpha: f64, p: usize) -> usize {
    if p <= 1 {
        return 0;
    }
    let levels = (alpha.max(0.0) * (p as f64).log2()).ceil();
    if levels >= usize::BITS as f64 {
        usize::BITS as usize
    } else {
        levels as usize
    }
}

/// `⌊log₂ n⌋` with the convention that inputs of size 0 or 1 yield 0.
pub fn floor_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - 1 - n.leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn floor_log2_small_values() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1023), 9);
        assert_eq!(floor_log2(1024), 10);
    }

    #[test]
    fn cutoff_levels_matches_alpha_log2_p() {
        // p = 1 ⇒ 0: a sequential pool elides everything.
        assert_eq!(cutoff_levels(2.0, 1), 0);
        assert_eq!(cutoff_levels(2.0, 2), 2);
        assert_eq!(cutoff_levels(2.0, 4), 4);
        assert_eq!(cutoff_levels(2.0, 8), 6);
        // Non-power-of-two p rounds up: 2·log₂3 ≈ 3.17 → 4.
        assert_eq!(cutoff_levels(2.0, 3), 4);
        assert_eq!(cutoff_levels(1.0, 4), 2);
        // α = 0 disables all parallel levels without disabling tracking.
        assert_eq!(cutoff_levels(0.0, 8), 0);
        // Negative α is treated as 0, huge α saturates at usize::BITS.
        assert_eq!(cutoff_levels(-3.0, 8), 0);
        assert_eq!(cutoff_levels(1e9, 2), usize::BITS as usize);
    }

    #[test]
    fn grain_size_applies_the_cost_floor() {
        // Small inputs never split below min_grain elements per block —
        // 300 elements stay one block (two blocks would be 150 each).
        assert_eq!(grain_size(100, 4, 256, 4096), 1);
        assert_eq!(grain_size(300, 4, 256, 4096), 1);
        assert_eq!(grain_size(512, 4, 256, 4096), 2);
        assert_eq!(grain_size(1024, 4, 256, 4096), 4);
        // Large inputs saturate at the oversubscription cap.
        assert_eq!(grain_size(100_000, 4, 256, 4096), 16);
        // min_grain = 1 (or 0) recovers the legacy fixed-4p blocking.
        assert_eq!(grain_size(100, 4, 1, 0), 16);
        assert_eq!(grain_size(100, 4, 0, 0), 16);
        assert_eq!(grain_size(3, 4, 1, 0), 3, "never more blocks than elements");
    }

    #[test]
    fn grain_size_steal_rule_kicks_in_on_large_inputs() {
        // 8p-way splitting only once every eighth-per-processor block
        // still carries steal_grain elements.
        let p = 2;
        assert_eq!(grain_size(8 * p * 4096 - 1, p, 256, 4096), 4 * p);
        assert_eq!(grain_size(8 * p * 4096, p, 256, 4096), 8 * p);
        // Disabled when steal_grain = 0.
        assert_eq!(grain_size(1 << 20, p, 256, 0), 4 * p);
    }

    #[test]
    fn pass_chunks_boundary_values() {
        // One element short of the floor is one block at any p; at the
        // floor the pass splits exactly as grain_size always did, so
        // every fork count on inputs >= WAKE_GRAIN is unchanged.
        for p in 1..16 {
            assert_eq!(pass_chunks(WAKE_GRAIN - 1, p), 1, "p = {p}");
            assert_eq!(
                pass_chunks(WAKE_GRAIN, p),
                grain_size(WAKE_GRAIN, p, DEFAULT_GRAIN, DEFAULT_STEAL_GRAIN),
                "p = {p}"
            );
        }
        assert_eq!(pass_chunks(WAKE_GRAIN, 2), 8);
        assert_eq!(pass_chunks(0, 4), 1);
    }

    proptest! {
        #[test]
        fn pass_chunks_is_one_below_the_wake_floor_and_grain_size_above(
            below in 0usize..WAKE_GRAIN,
            above in WAKE_GRAIN..4_000_000,
            p in 1usize..16,
        ) {
            prop_assert_eq!(pass_chunks(below, p), 1);
            prop_assert_eq!(
                pass_chunks(above, p),
                grain_size(above, p, DEFAULT_GRAIN, DEFAULT_STEAL_GRAIN)
            );
        }

        #[test]
        fn grain_size_is_bounded_and_deterministic(
            len in 1usize..2_000_000,
            p in 1usize..16,
            min_grain in 0usize..5000,
            steal_grain in 0usize..10_000,
        ) {
            let chunks = grain_size(len, p, min_grain, steal_grain);
            prop_assert!(chunks >= 1);
            prop_assert!(chunks <= len);
            prop_assert!(chunks <= 8 * p);
            // Pure function: same inputs, same blocking — the property the
            // exact fork accounting rests on.
            prop_assert_eq!(chunks, grain_size(len, p, min_grain, steal_grain));
            // The cost floor really holds, literally: every balanced
            // block carries at least min_grain elements whenever the
            // input splits at all.
            if chunks > 1 {
                prop_assert!(len / chunks >= min_grain.max(1));
            }
        }
    }

    #[test]
    fn logn_policy_is_logarithmic_and_positive() {
        let p = ProcessorPolicy::LogN;
        assert_eq!(p.processors_unclamped(1), 1);
        assert_eq!(p.processors_unclamped(2), 1);
        assert_eq!(p.processors_unclamped(1 << 20), 20);
        assert!(p.processors(1 << 20) >= 1);
    }

    #[test]
    fn fixed_policy_clamps_to_one() {
        assert_eq!(ProcessorPolicy::Fixed(0).processors(100), 1);
        assert_eq!(ProcessorPolicy::Fixed(6).processors(100), 6);
    }

    #[test]
    fn available_policy_matches_host() {
        assert_eq!(
            ProcessorPolicy::Available.processors(12345),
            available_parallelism()
        );
    }

    #[test]
    fn default_policy_is_logn() {
        assert_eq!(ProcessorPolicy::default(), ProcessorPolicy::LogN);
    }

    proptest! {
        #[test]
        fn floor_log2_brackets_n(n in 1usize..1_000_000) {
            let f = floor_log2(n);
            prop_assert!(1usize << f <= n);
            prop_assert!(n < 1usize << (f + 1));
        }

        #[test]
        fn policy_always_positive(n in 0usize..1_000_000, fixed in 0usize..64) {
            for policy in [
                ProcessorPolicy::LogN,
                ProcessorPolicy::Fixed(fixed),
                ProcessorPolicy::Available,
            ] {
                prop_assert!(policy.processors(n) >= 1);
                prop_assert!(policy.processors_unclamped(n) >= 1);
            }
        }
    }
}
