//! Blocked data-parallel primitives on the [`PalPool`]: prefix-sum
//! ([`scan_copy_in`](PalPool::scan_copy_in)), filtering
//! ([`pack_in`](PalPool::pack_in)), CSR-style expansion
//! ([`expand_in`](PalPool::expand_in)), index-space map
//! ([`map_collect_in`](PalPool::map_collect_in)), one value per block
//! ([`map_blocks_in`](PalPool::map_blocks_in)) and index-space loop
//! ([`for_each_index`](PalPool::for_each_index)).  Each has exactly one
//! form.
//!
//! Irregular workloads — frontier BFS and connected components in
//! `lopram-graph` — are built from exactly two primitives,
//! scan and pack, in the style of Blelloch's prefix-sum framework and its
//! modern incarnations (GBBS; Tithi et al.'s level-synchronous BFS with
//! optimal prefix-sum).  On a LoPRAM those primitives fit the model
//! unusually well: with only `p = O(log n)` processors a blocked two-pass
//! scan over `Θ(p)` blocks is work-optimal, and the block loop is a plain
//! balanced divide-and-conquer — i.e. exactly the pal-thread shape of §3.1.
//!
//! # Allocation-free steady state
//!
//! Every primitive routes its internal scratch — block sums, survivor
//! counts, output boundaries — through the pool's [`Workspace`] arena
//! (grow-only, reused across calls; see [`PalPool::workspace`]), and every
//! primitive that produces a sequence writes it into a **caller-provided
//! buffer** (the `_in` suffix) instead of allocating the output.  The
//! `_in` contract: on return the buffer holds exactly the result; its
//! contents on entry are never read (retained slots are overwritten in
//! place rather than re-initialized, so a steady-state call pays neither
//! an allocation nor a clear+refill memset — only capacity carries over;
//! if the operator panics mid-pass the buffer may be left with stale
//! contents).  `expand_in` is the one exception to the in-place rule: it
//! clears the buffer first, because slots its `write` leaves untouched
//! must hold `fill`.  A caller that keeps the buffer (or checks it out of
//! the workspace) therefore performs zero allocations per call once
//! capacities are warm.  That is the GBBS recipe: a steady-state BFS
//! level runs scan, pack and the candidate expansion without touching the
//! allocator at all.
//!
//! `pack_in` is fused and branch-free: the survivor counts are scanned
//! **in place** inside one small arena buffer that doubles as the output
//! boundaries, so no per-element flag vector and no offset vector ever
//! materializes, and its scatter stores every element at a cursor that
//! only survivors advance, so a random predicate mispredicts nothing.
//! `expand_in` reduces the degree scan to per-block sums (only block
//! *start* offsets are needed).  `scan_copy_in` takes `Copy` elements and
//! moves them by value: memcpy-style writes, no `&T -> T` round trips.
//!
//! A one-block pass (`C = 1`, every input below
//! [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) on a default pool) of
//! `scan_copy_in` or `pack_in` skips the pipeline: it is one sweep over
//! the input on the calling thread, with no arena checkout, so it costs
//! what the sequential loop costs.  Both sweeps have one shape — `Pass`
//! event, cancellation checkpoint, sweep, checkpoint, `Pass` event — so a
//! capture reads as the pipeline's would, and the trailing checkpoint
//! observes a token fired from inside the sweep's operator or predicate.
//!
//! # Fork accounting
//!
//! Every primitive is built on [`PalPool::join`]: the block range is split
//! by a balanced binary fork tree, so the primitives inherit the
//! `⌈α·log₂ p⌉` sequential cutoff (deep forks are elided into plain calls)
//! and the [`RunMetrics`](crate::RunMetrics) accounting — each primitive
//! call contributes a deterministic number of forks, all of them visible as
//! `spawned + inlined + elided` in [`PalPool::metrics`].  The block count
//! `C` = [`PalPool::chunk_count`]`(len)` comes from the **default pass
//! policy** ([`policy::pass_chunks`](crate::policy::pass_chunks)): a pure
//! function of `(len, p, builder configuration)`.  Below
//! [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) elements `C = 1`: a pass that
//! cannot repay the wake/park round trip a fork would trigger runs on the
//! calling thread — zero forks, zero injected jobs, zero wakeups.  From the
//! floor up inputs split `4p` ways, `8p` under the steal-amortization
//! rule.  The count never depends on the observed schedule, so the table
//! below is exact on any host.  (A [`grain`](super::PalPoolBuilder::grain)-pinned
//! pool has no wake floor: there `C` is `policy::grain_size(len, p, min, 0)`
//! and tiny inputs fork.)  With `C` blocks on a non-empty input:
//!
//! | primitive | forks | below `WAKE_GRAIN` (default pool) |
//! |-----------|-------|------|
//! | [`scan_copy_in`](PalPool::scan_copy_in) | `2·(C − 1)` | 0 |
//! | [`pack_in`](PalPool::pack_in) | `2·(C − 1)` (`C − 1` when nothing survives) | 0 |
//! | [`expand_in`](PalPool::expand_in) | `2·(C − 1)` (block sums + write pass) | 0 |
//! | [`map_collect_in`](PalPool::map_collect_in) | `C − 1` | 0 |
//! | [`map_blocks_in`](PalPool::map_blocks_in) | `C − 1` | 0 |
//! | [`for_each_index`](PalPool::for_each_index)² | `C − 1`, `C` = [`index_chunk_count`](PalPool::index_chunk_count)`(len)` | `C − 1` (no wake floor) |
//!
//! ² The per-index cost is an opaque closure, so it blocks by the fixed
//! `4·p` bound rather than by the pass policy, and records no `Pass` event.
//!
//! `len` is what each primitive blocks over: the input slice for
//! scan/pack, the index range for map_collect_in/map_blocks_in/for_each_index,
//! and `sizes.len()` — the number of *regions*, not of output slots — for
//! expand (see the limit noted on [`expand_in`](PalPool::expand_in)).
//!
//! The slices handed to worker blocks are produced by recursive
//! `split_at_mut`, so the module needs no `unsafe` and no interior
//! mutability: disjointness is enforced by the borrow checker, not by
//! index discipline.
//!
//! When the pool's execution tracer is on
//! ([`PalPoolBuilder::trace`](super::PalPoolBuilder::trace)), every
//! parallel pass of the table above except `for_each_index` additionally
//! records one [`Pass`](super::TraceEvent::Pass)
//! event carrying its `chunks`, so a capture attributes each pass's
//! `C − 1` forks to the pass that made them.  (`for_each_index` records no
//! `Pass`: its blocks are indices, not elements, and its forks show up as
//! plain `Fork` events.)

use std::ops::Range;

use super::pool::PalPool;

/// Start of block `c` when `len` elements are split into `chunks` balanced
/// blocks (sizes differ by at most one; every block non-empty because
/// [`PalPool::chunk_count`] guarantees `chunks <= len`).
#[inline]
fn block_start(len: usize, chunks: usize, c: usize) -> usize {
    c * len / chunks
}

/// Set `buf` to exactly `len` slots for a pass that **overwrites every
/// slot**: existing elements are kept in place (never re-initialized — the
/// pass never reads them), only growth is filled with `fill()`.  On the
/// steady state (`buf.len() == len` already) this is free, where a
/// `clear()` + `resize()` would memset the whole buffer per call.
fn prepare_slots<T: Clone>(buf: &mut Vec<T>, len: usize, fill: impl FnOnce() -> T) {
    buf.truncate(len);
    if buf.len() < len {
        buf.resize(len, fill());
    }
}

/// Write the exclusive prefixes of `block` under `op`, starting from
/// `acc`, into `out` (zipped, so the shorter of the two bounds the loop)
/// and return the reduction past the last element read.
#[inline]
fn write_prefixes<T, F>(mut acc: T, block: &[T], op: &F, out: &mut [T]) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    for (slot, &x) in out.iter_mut().zip(block) {
        *slot = acc;
        acc = op(acc, x);
    }
    acc
}

/// Branch-free compaction of `block` (whose first element is input index
/// `lo`) into `region`: every element is written at the cursor and only a
/// survivor advances it, so an unpredictable `keep` costs no mispredicted
/// branch.  Stops when `region` is full or `block` is spent and returns
/// `(written, consumed)`: the survivors placed and the elements asked.
/// The loop condition bounds both indices, so neither access is checked.
#[inline]
fn compact<T, F>(block: &[T], lo: usize, keep: &F, region: &mut [T]) -> (usize, usize)
where
    T: Copy,
    F: Fn(usize, &T) -> bool,
{
    let (mut k, mut i) = (0, 0);
    while k < region.len() && i < block.len() {
        region[k] = block[i];
        k += usize::from(keep(lo + i, &block[i]));
        i += 1;
    }
    (k, i)
}

impl PalPool {
    /// Exclusive prefix scan of `input` under the associative operator
    /// `op` with identity `identity`, into a caller-provided buffer: on
    /// return `exclusive[i] = op(identity, input[0], …, input[i-1])` (so
    /// `exclusive[0] == identity`), and the reduction of the whole input —
    /// what `exclusive[n]` would be — is returned.
    ///
    /// Blocked two-pass algorithm: block reductions in parallel, a
    /// sequential exclusive scan over the `O(p)` block sums (in place, in
    /// an arena buffer), then parallel per-block prefix writes.  `op` must
    /// be associative (the usual scan contract); the result is then
    /// independent of the blocking.  Operator and accumulator move **by
    /// value**, so the inner loops are plain register accumulation and
    /// memcpy-style slot writes.  A one-block scan (`C = 1` — every input
    /// below [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) on a default pool)
    /// has no block sums to compute and writes the prefixes in a single
    /// sweep, reading the input once and checking nothing out of the
    /// arena.
    ///
    /// All internal scratch is checked out of [`PalPool::workspace`], so
    /// after the first call on a given input size neither the scratch nor
    /// (given a warm `exclusive`) the output grows.
    ///
    /// Costs `2·(C − 1)` pal-thread forks for `C =
    /// `[`chunk_count`](PalPool::chunk_count)`(input.len())` blocks (zero
    /// on an empty input), all routed through [`join`](PalPool::join) and
    /// therefore subject to the sequential cutoff and counted in
    /// [`metrics`](PalPool::metrics).
    pub fn scan_copy_in<T, F>(&self, input: &[T], identity: T, op: F, exclusive: &mut Vec<T>) -> T
    where
        T: Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T + Sync,
    {
        let n = input.len();
        if n == 0 {
            exclusive.clear();
            return identity;
        }
        let chunks = self.chunk_count(n);
        if chunks == 1 {
            // One block has no block sums to scan: write the prefixes in
            // one sweep on the calling thread, with no arena checkout.  The
            // same two `Pass` events as the pipeline below, so a capture
            // reads alike either way; the trailing checkpoint observes a
            // token fired during the sweep, as the write pass's would.
            self.trace_pass(1);
            super::cancel::checkpoint();
            prepare_slots(exclusive, n, || identity);
            let total = write_prefixes(identity, input, &op, exclusive);
            super::cancel::checkpoint();
            self.trace_pass(1);
            return total;
        }

        let mut sums = self.workspace().checkout::<T>();
        sums.resize(chunks, identity);
        self.trace_pass(chunks);
        self.blocked_balanced_mut(&mut sums, chunks, |c, slot| {
            let mut acc = identity;
            for &x in &input[block_start(n, chunks, c)..block_start(n, chunks, c + 1)] {
                acc = op(acc, x);
            }
            slot[0] = acc;
        });

        let mut acc = identity;
        for s in sums.iter_mut() {
            let block = *s;
            *s = acc;
            acc = op(acc, block);
        }
        let total = acc;

        prepare_slots(exclusive, n, || identity);
        let sums = &sums;
        self.trace_pass(chunks);
        self.blocked_balanced_mut(exclusive, chunks, |c, out| {
            write_prefixes(sums[c], &input[block_start(n, chunks, c)..], &op, out);
        });
        total
    }

    /// Keep exactly the elements for which `keep(index, &element)` is true,
    /// in their original order (parallel filter / stream compaction), into
    /// a caller-provided buffer: `out` ends up holding exactly the
    /// survivors (capacity reused), which makes repeated packs — e.g. the
    /// frontier compaction of every BFS level — allocation-free once warm.
    ///
    /// Fused, branch-free count+scatter pipeline: per-block survivor
    /// counts land in one small arena buffer, are exclusive-scanned **in
    /// place** into the output boundaries, and each block then re-filters
    /// straight into its disjoint region of the output — no per-element
    /// flag vector, no offset vector, no intermediate compaction buffer.
    /// The scatter has no data-dependent branch: every element is stored
    /// at the output cursor and only a survivor advances it, so a random
    /// predicate costs no branch mispredicts.  That unconditional store is
    /// why `T` is `Copy` (a plain store, never a clone and a drop).
    /// `keep` is called **twice** per element (once to count, once to
    /// write) and must therefore be pure; a write pass that disagrees with
    /// the count panics with "keep must be pure".  A one-block pack
    /// (`C = 1` — every input below
    /// [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) on a default pool) has no
    /// boundaries to compute and compacts in a single sweep, calling
    /// `keep` once per element; it stores into `input.len()` slots before
    /// truncating to the survivors, so the output's capacity grows to the
    /// input length, not the survivor count.
    ///
    /// Costs `2·(C − 1)` forks for `C` blocks, like
    /// [`scan_copy_in`](PalPool::scan_copy_in) (`C − 1` when no element
    /// survives — the write pass is skipped).
    pub fn pack_in<T, F>(&self, input: &[T], keep: F, out: &mut Vec<T>)
    where
        T: Copy + Send + Sync + 'static,
        F: Fn(usize, &T) -> bool + Sync,
    {
        let n = input.len();
        if n == 0 {
            out.clear();
            return;
        }
        let chunks = self.chunk_count(n);
        if chunks == 1 {
            // One block has no boundaries to agree on: compact straight
            // into `out` in one sweep.  Same output and the same `Pass`
            // events as the count+scatter pipeline below (two, or one when
            // nothing survives), so a capture reads alike either way; the
            // trailing checkpoint observes a token fired during the sweep.
            self.trace_pass(1);
            super::cancel::checkpoint();
            prepare_slots(out, n, || input[0]);
            let (written, _) = compact(input, 0, &keep, out);
            out.truncate(written);
            super::cancel::checkpoint();
            if written > 0 {
                self.trace_pass(1);
            }
            return;
        }

        // Pass 1: count survivors per block, into the boundary buffer.
        let mut bounds = self.workspace().checkout::<usize>();
        bounds.resize(chunks + 1, 0);
        self.trace_pass(chunks);
        self.blocked_balanced_mut(&mut bounds[..chunks], chunks, |c, slot| {
            let lo = block_start(n, chunks, c);
            slot[0] = input[lo..block_start(n, chunks, c + 1)]
                .iter()
                .enumerate()
                .filter(|(i, x)| keep(lo + i, x))
                .count();
        });

        // Fused scan: the counts become output boundaries in place.
        let mut acc = 0usize;
        for c in 0..chunks {
            let count = bounds[c];
            bounds[c] = acc;
            acc += count;
        }
        bounds[chunks] = acc;
        let total = acc;
        if total == 0 {
            out.clear();
            return;
        }

        // Pass 2: compact each block into its disjoint output region, which
        // holds exactly the block's counted survivors.  The block's tail
        // past a full region is still asked, so `keep` runs once per
        // element here too, and a predicate that answers differently than
        // it did in pass 1 — more survivors or fewer — fails the assert.
        prepare_slots(out, total, || input[0]);
        self.trace_pass(chunks);
        self.blocked_uneven_mut(out, &bounds, |c, region| {
            let lo = block_start(n, chunks, c);
            let block = &input[lo..block_start(n, chunks, c + 1)];
            let (written, consumed) = compact(block, lo, &keep, region);
            let tail_kept = block[consumed..]
                .iter()
                .enumerate()
                .any(|(i, x)| keep(lo + consumed + i, x));
            assert!(
                written == region.len() && !tail_kept,
                "keep must be pure: count == write"
            );
        });
    }

    /// CSR-style expansion into a caller-provided buffer: `out` is cleared
    /// and refilled with `sizes.iter().sum()` slots (capacity reused), and
    /// each index `i` gets a mutable slice of `sizes[i]` consecutive slots
    /// (in index order) to fill via `write(i, slice)`.
    ///
    /// This is the scan-based "edge map" building block of frontier BFS:
    /// `sizes` are the frontier degrees, and each frontier vertex writes
    /// its neighbour candidates into its own region.  The degree scan is
    /// fused: only per-block sums are computed and scanned in place in an
    /// arena buffer (the write pass walks each block sequentially, so
    /// per-element offsets are never materialized).  Slots `write` leaves
    /// untouched hold the `fill` value, never a stale one from the
    /// buffer's previous contents.  Unlike [`pack_in`](PalPool::pack_in)'s
    /// predicate, `write` is called exactly once per index, so it may have
    /// side effects.
    ///
    /// Costs `2·(C − 1)` forks for `C =
    /// `[`chunk_count`](PalPool::chunk_count)`(sizes.len())` blocks: block
    /// sums plus one write pass.
    ///
    /// **Known limit.**  The blocking is keyed on `sizes.len()`, not on the
    /// number of output slots, so on a default pool fewer than
    /// [`WAKE_GRAIN`](crate::policy::WAKE_GRAIN) regions expand on one
    /// thread however many slots they cover.  Direction-switching BFS
    /// sends every dense level bottom-up instead of through here, but a
    /// sparse level can still be this shape: a 4 k-vertex frontier with
    /// 64 k arcs expands on one thread.  Slot-weighted blocking is still
    /// open (ROADMAP item 3(b)).
    pub fn expand_in<T, F>(&self, sizes: &[usize], fill: T, write: F, out: &mut Vec<T>)
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(usize, &mut [T]) + Sync,
    {
        out.clear();
        let n = sizes.len();
        if n == 0 {
            return;
        }
        let chunks = self.chunk_count(n);

        // Block sums of `sizes`, scanned in place into each block's start
        // offset in the output.
        let mut bounds = self.workspace().checkout::<usize>();
        bounds.resize(chunks + 1, 0);
        self.trace_pass(chunks);
        self.blocked_balanced_mut(&mut bounds[..chunks], chunks, |c, slot| {
            slot[0] = sizes[block_start(n, chunks, c)..block_start(n, chunks, c + 1)]
                .iter()
                .sum();
        });
        let mut acc = 0usize;
        for c in 0..chunks {
            let sum = bounds[c];
            bounds[c] = acc;
            acc += sum;
        }
        bounds[chunks] = acc;

        // Write pass: each block walks its items, carving regions off its
        // output range (`write` runs exactly once per index, even for
        // size-0 regions).
        out.resize(acc, fill);
        self.trace_pass(chunks);
        self.blocked_uneven_mut(out, &bounds, |c, region| {
            let mut rest = region;
            let lo = block_start(n, chunks, c);
            for (i, &size) in sizes[lo..block_start(n, chunks, c + 1)].iter().enumerate() {
                let (head, tail) = rest.split_at_mut(size);
                write(lo + i, head);
                rest = tail;
            }
        });
    }

    /// Apply `map` to every index in `range` and collect the results in
    /// order into a caller-provided buffer (capacity reused) — the
    /// `Vec`-producing companion of
    /// [`for_each_index`](PalPool::for_each_index).
    ///
    /// Costs `C − 1` forks for `C` blocks (a single parallel pass).
    pub fn map_collect_in<T, F>(&self, range: Range<usize>, map: F, out: &mut Vec<T>)
    where
        T: Clone + Default + Send + Sync + 'static,
        F: Fn(usize) -> T + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            out.clear();
            return;
        }
        prepare_slots(out, len, T::default);
        let chunks = self.chunk_count(len);
        self.trace_pass(chunks);
        self.blocked_balanced_mut(out, chunks, |c, slots| {
            let lo = range.start + block_start(len, chunks, c);
            for (k, slot) in slots.iter_mut().enumerate() {
                *slot = map(lo + k);
            }
        });
    }

    /// One value per block of `range`: `out` is cleared and refilled with
    /// `f(block)` for each of the `C = `[`chunk_count`](PalPool::chunk_count)`(range.len())`
    /// balanced sub-ranges, in block order — a blocked reduction whose
    /// combine step is left to the caller (it is over `C = O(p)` values).
    /// `f` is called exactly once per block, so it may have side effects
    /// on state it owns per index, e.g. a sweep over vertices that writes
    /// each vertex's own slot and returns what it found.
    ///
    /// Costs `C − 1` forks (one pass) and, on a traced pool, records one
    /// `Pass` event — unlike [`for_each_index`](PalPool::for_each_index),
    /// whose chunking is cost-opaque.
    pub fn map_blocks_in<T, F>(&self, range: Range<usize>, f: F, out: &mut Vec<T>)
    where
        T: Clone + Default + Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            out.clear();
            return;
        }
        let chunks = self.chunk_count(len);
        prepare_slots(out, chunks, T::default);
        self.trace_pass(chunks);
        self.blocked_balanced_mut(out, chunks, |c, slot| {
            let at = |c| range.start + block_start(len, chunks, c);
            slot[0] = f(at(c)..at(c + 1));
        });
    }

    /// Apply `f` to every index in `range`, split into
    /// [`index_chunk_count`](PalPool::index_chunk_count)`(len)` balanced
    /// blocks (block `c` covers `c·len/C .. (c+1)·len/C` past
    /// `range.start`) run as pal-threads of one balanced `join` tree.
    ///
    /// This is the primitive behind the wavefront dynamic-programming
    /// executor: within one antichain every cell is independent, so indices
    /// can be processed by up to `p` processors.  Costs exactly `C − 1`
    /// forks and allocates nothing.  Every block runs even when another
    /// panics; the leftmost panic propagates once all blocks finished.  On
    /// a one-processor pool every fork is elided and the blocks run in
    /// index order on the caller.
    pub fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let chunks = self.index_chunk_count(len);
        // One zero-sized slot per block: the balanced block tree wants a
        // slice to split, and a `Vec<()>` never allocates.
        self.blocked_balanced_mut(&mut vec![(); chunks], chunks, |c, _| {
            let at = |c| range.start + block_start(len, chunks, c);
            (at(c)..at(c + 1)).for_each(&f);
        });
    }

    /// Run `f(block, slice)` for every one of `chunks` balanced blocks of
    /// `data` (block `c` spans `data[c·len/chunks .. (c+1)·len/chunks]`),
    /// splitting over pal-threads with a balanced binary
    /// [`join`](PalPool::join) tree — `chunks − 1` forks.  The boundaries
    /// are pure arithmetic, so no bounds vector is ever materialized;
    /// disjointness comes from recursive `split_at_mut`.
    fn blocked_balanced_mut<T, F>(&self, data: &mut [T], chunks: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        fn go<T, F>(
            pool: &PalPool,
            first: usize,
            count: usize,
            data: &mut [T],
            len: usize,
            chunks: usize,
            f: &F,
        ) where
            T: Send,
            F: Fn(usize, &mut [T]) + Sync,
        {
            if count <= 1 {
                // Chunk boundary: one cancellation checkpoint per block
                // keeps a fired token's unwind latency at O(grain) even
                // when the fork tree above was fully elided.
                super::cancel::checkpoint();
                f(first, data);
                return;
            }
            let left = count / 2;
            let split = block_start(len, chunks, first + left) - block_start(len, chunks, first);
            let (lo, hi) = data.split_at_mut(split);
            pool.join(
                || go(pool, first, left, lo, len, chunks, f),
                || go(pool, first + left, count - left, hi, len, chunks, f),
            );
        }
        if chunks == 0 {
            return;
        }
        let len = data.len();
        go(self, 0, chunks, data, len, chunks, &f);
    }

    /// Run `f(chunk, slice)` for every block of `data`, where block `c`
    /// spans `data[bounds[c] - bounds[0] .. bounds[c + 1] - bounds[0]]`
    /// (`bounds` is monotone with `bounds.len() == blocks + 1`).  The
    /// blocks are split over pal-threads with a balanced binary
    /// [`join`](PalPool::join) tree, so disjointness of the slices is
    /// enforced by `split_at_mut`, not by index arithmetic in `f`.
    fn blocked_uneven_mut<T, F>(&self, data: &mut [T], bounds: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        fn go<T, F>(
            pool: &PalPool,
            first: usize,
            count: usize,
            data: &mut [T],
            bounds: &[usize],
            f: &F,
        ) where
            T: Send,
            F: Fn(usize, &mut [T]) + Sync,
        {
            if count <= 1 {
                // Chunk boundary: see `blocked_balanced_mut`.
                super::cancel::checkpoint();
                f(first, data);
                return;
            }
            let left = count / 2;
            let split = bounds[first + left] - bounds[first];
            let (lo, hi) = data.split_at_mut(split);
            pool.join(
                || go(pool, first, left, lo, bounds, f),
                || go(pool, first + left, count - left, hi, bounds, f),
            );
        }
        let count = bounds.len() - 1;
        if count == 0 {
            return;
        }
        go(self, 0, count, data, bounds, &f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::assert_metrics_consistent;
    use crate::policy::WAKE_GRAIN;

    /// A default pool (one block below `WAKE_GRAIN`: the single-sweep
    /// paths) and a pinned-grain pool (forks on small inputs: the blocked
    /// paths), so a small-input correctness test covers both.
    fn pools(p: usize) -> [PalPool; 2] {
        [
            PalPool::new(p).unwrap(),
            PalPool::builder().processors(p).grain(64).build().unwrap(),
        ]
    }

    /// [`PalPool::pack_in`] into a fresh buffer, for one-line asserts.
    fn pack<T, F>(pool: &PalPool, input: &[T], keep: F) -> Vec<T>
    where
        T: Copy + Send + Sync + 'static,
        F: Fn(usize, &T) -> bool + Sync,
    {
        let mut out = Vec::new();
        pool.pack_in(input, keep, &mut out);
        out
    }

    fn seq_exclusive_scan(input: &[i64]) -> (Vec<i64>, i64) {
        let mut acc = 0;
        let prefix = input
            .iter()
            .map(|x| {
                let before = acc;
                acc += x;
                before
            })
            .collect();
        (prefix, acc)
    }

    #[test]
    fn scan_matches_sequential_for_all_p() {
        let input: Vec<i64> = (0..1000).map(|i| (i * 37) % 101 - 50).collect();
        let (expected, expected_total) = seq_exclusive_scan(&input);
        for p in [1, 2, 4] {
            for pool in pools(p) {
                let mut exclusive = Vec::new();
                let total = pool.scan_copy_in(&input, 0i64, |a, b| a + b, &mut exclusive);
                assert_eq!(exclusive, expected, "p = {p}");
                assert_eq!(total, expected_total, "p = {p}");
            }
        }
    }

    #[test]
    fn scan_in_reuses_the_buffer() {
        let pool = PalPool::new(2).unwrap();
        let input: Vec<u64> = (0..1500).collect();
        let (expected, _) = {
            let as_i64: Vec<i64> = input.iter().map(|&x| x as i64).collect();
            seq_exclusive_scan(&as_i64)
        };
        let expected: Vec<u64> = expected.into_iter().map(|x| x as u64).collect();

        // Stale contents must be irrelevant, whether the buffer is shorter
        // than the output (grown) or longer (truncated).
        let mut long = vec![99u64; input.len() + 100];
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut long);
        assert_eq!(long, expected);
        assert_eq!(total, 1499 * 1500 / 2);
        let mut buf = vec![99u64; 3];
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut buf);
        assert_eq!(buf, expected);
        assert_eq!(total, 1499 * 1500 / 2);

        // Second call into the same (now warm) buffer: same result, and
        // the arena performed no new growth.
        let grown = pool.workspace().stats().grown_bytes;
        let cap = buf.capacity();
        let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut buf);
        assert_eq!(buf, expected);
        assert_eq!(total, 1499 * 1500 / 2);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(pool.workspace().stats().grown_bytes, grown);
    }

    #[test]
    fn scan_handles_empty_and_tiny_inputs() {
        let pool = PalPool::new(4).unwrap();
        let mut exclusive = vec![3i64; 2];
        let total = pool.scan_copy_in(&[], 7, |a, b| a + b, &mut exclusive);
        assert!(exclusive.is_empty());
        assert_eq!(total, 7);

        let total = pool.scan_copy_in(&[5i64], 0, |a, b| a + b, &mut exclusive);
        assert_eq!(exclusive, vec![0]);
        assert_eq!(total, 5);
    }

    #[test]
    fn scan_with_max_operator() {
        // A non-sum associative operator: running maximum.
        let input = [3i64, 1, 4, 1, 5, 9, 2, 6];
        let pool = PalPool::new(2).unwrap();
        let mut exclusive = Vec::new();
        let total = pool.scan_copy_in(&input, i64::MIN, i64::max, &mut exclusive);
        assert_eq!(exclusive, vec![i64::MIN, 3, 3, 4, 4, 5, 9, 9]);
        assert_eq!(total, 9);
    }

    #[test]
    fn scan_forks_are_fully_accounted() {
        let input: Vec<u64> = (0..WAKE_GRAIN as u64).collect();
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let chunks = pool.chunk_count(input.len()) as u64;
            assert!(chunks >= 4 * p as u64, "at the wake floor a pass splits");
            pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut Vec::new());
            assert_metrics_consistent(pool.metrics(), 2 * (chunks - 1));
        }
    }

    #[test]
    fn scan_keeps_operand_order_on_both_paths() {
        // Composition of affine maps x ↦ a·x + b is associative but not
        // commutative, so a sweep or a block combine that swaps its
        // operands gives a different prefix.  `(a, b)` then `(c, d)` is
        // x ↦ c·(a·x + b) + d.
        type Affine = (u64, u64);
        let then =
            |(a, b): Affine, (c, d): Affine| (a.wrapping_mul(c), b.wrapping_mul(c).wrapping_add(d));
        let identity = (1, 0);
        let words = splitmix(2 * (WAKE_GRAIN + 1), 11);
        let maps: Vec<Affine> = words.chunks(2).map(|w| (w[0] | 1, w[1])).collect();
        let w = WAKE_GRAIN;
        for n in [0, 1, 2, 63, 64, 65, w - 1, w, w + 1] {
            let input = &maps[..n];
            let mut acc = identity;
            let expected: Vec<Affine> = input
                .iter()
                .map(|&x| {
                    let before = acc;
                    acc = then(acc, x);
                    before
                })
                .collect();
            for p in [1, 2, 4] {
                for pool in pools(p) {
                    let mut exclusive = Vec::new();
                    let total = pool.scan_copy_in(input, identity, then, &mut exclusive);
                    assert!(exclusive == expected, "p = {p}, n = {n}");
                    assert_eq!(total, acc, "p = {p}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn one_block_scan_sweeps_without_the_arena() {
        // C = 1 (every sub-floor scan on a default pool): no workspace
        // checkout, no fork, and the same two one-block `Pass` events as
        // the pipeline would record.
        let input: Vec<u64> = (0..1024).collect();
        let pool = PalPool::new(2).unwrap();
        assert_eq!(pool.chunk_count(input.len()), 1);
        let mut exclusive = Vec::new();
        pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut exclusive);
        let warm = pool.workspace().stats();
        for _ in 0..100 {
            let total = pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut exclusive);
            assert_eq!(total, 1023 * 1024 / 2);
        }
        let now = pool.workspace().stats();
        assert_eq!((now.hits, now.misses), (warm.hits, warm.misses));
        assert_metrics_consistent(pool.metrics(), 0);

        let traced = PalPool::builder()
            .processors(2)
            .trace(crate::TraceConfig::default())
            .build()
            .unwrap();
        traced.scan_copy_in(&input, 0u64, |a, b| a + b, &mut exclusive);
        let trace = traced.take_trace().unwrap();
        let s = trace.summary();
        assert_eq!((s.forks, s.passes, s.pass_forks), (0, 2, 0));
        let one_block = crate::TraceEvent::Pass { chunks: 1 };
        assert_eq!(trace.events.iter().filter(|&&e| e == one_block).count(), 2);
    }

    /// SplitMix64: a seeded stream of well-mixed words, so a parity
    /// predicate over it is unpredictable to a branch predictor.
    fn splitmix(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn pack_matches_sequential_filter() {
        let input: Vec<i64> = (0..777).map(|i| (i * 31) % 97).collect();
        let expected: Vec<i64> = input.iter().copied().filter(|x| x % 3 == 0).collect();
        for p in [1, 2, 4] {
            for pool in pools(p) {
                assert_eq!(pack(&pool, &input, |_, x| x % 3 == 0), expected, "p = {p}");
            }
        }

        // Random parity across the wake floor, and survivors only at the
        // edges of the pool's own blocks: each block's first index, each
        // block's last index, and block 0 alone.
        let n = WAKE_GRAIN + 1;
        let input = splitmix(n, 37);
        let filter = |keep: &dyn Fn(usize, &u64) -> bool| -> Vec<u64> {
            input
                .iter()
                .enumerate()
                .filter(|&(i, x)| keep(i, x))
                .map(|(_, &x)| x)
                .collect()
        };
        for p in [1, 2, 4] {
            for pool in pools(p) {
                let chunks = pool.chunk_count(n);
                let starts: Vec<usize> = (0..=chunks).map(|c| block_start(n, chunks, c)).collect();
                let parity = |_: usize, x: &u64| x & 1 == 0;
                let first = |i: usize, _: &u64| starts[..chunks].binary_search(&i).is_ok();
                let last = |i: usize, _: &u64| starts[1..].binary_search(&(i + 1)).is_ok();
                let block0 = |i: usize, _: &u64| i < starts[1];
                assert_eq!(pack(&pool, &input, parity), filter(&parity), "p = {p}");
                assert_eq!(pack(&pool, &input, first), filter(&first), "p = {p}");
                assert_eq!(pack(&pool, &input, last), filter(&last), "p = {p}");
                assert_eq!(pack(&pool, &input, block0), filter(&block0), "p = {p}");
            }
        }
    }

    #[test]
    fn pack_rejects_an_impure_keep_in_either_direction() {
        // A predicate that answers differently on its second call, once
        // keeping more on the write pass and once keeping fewer, trips
        // the count == write assert; the pool then packs correctly.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let input: Vec<u32> = (0..1000).collect();
        let n = input.len();
        for p in [1, 2] {
            let pool = PalPool::builder().processors(p).grain(64).build().unwrap();
            assert!(pool.chunk_count(n) > 1, "the blocked path");
            for write_keeps_more in [true, false] {
                let calls = AtomicUsize::new(0);
                let keep = |_: usize, x: &u32| {
                    let counting = calls.fetch_add(1, Ordering::Relaxed) < n;
                    if counting == write_keeps_more {
                        x.is_multiple_of(3)
                    } else {
                        x.is_multiple_of(2)
                    }
                };
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pack(&pool, &input, keep)
                }))
                .expect_err("an impure keep must panic");
                let msg = err
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(msg.contains("keep must be pure"), "p = {p}: {msg:?}");
                let expected: Vec<u32> = input
                    .iter()
                    .copied()
                    .filter(|x| x.is_multiple_of(5))
                    .collect();
                assert_eq!(
                    pack(&pool, &input, |_, x| x.is_multiple_of(5)),
                    expected,
                    "p = {p}"
                );
            }
        }
    }

    #[test]
    fn pack_predicate_sees_original_indices() {
        let input = vec![10u64; 100];
        for pool in pools(4) {
            let kept = pack(&pool, &input, |i, _| i % 7 == 0);
            assert_eq!(kept.len(), 15);
        }
    }

    #[test]
    fn pack_keep_all_and_keep_none() {
        let input: Vec<u32> = (0..257).collect();
        for pool in pools(4) {
            assert_eq!(pack(&pool, &input, |_, _| true), input);
            assert!(pack(&pool, &input, |_, _| false).is_empty());
            assert!(pack(&pool, &[] as &[u32], |_, _| true).is_empty());
        }
    }

    #[test]
    fn pack_in_clears_and_reuses_the_buffer() {
        for pool in pools(4) {
            let input: Vec<u32> = (0..2048).collect();
            let mut out = vec![7u32; 5000];
            pool.pack_in(&input, |_, x| x % 2 == 0, &mut out);
            let expected: Vec<u32> = (0..2048).filter(|x| x % 2 == 0).collect();
            assert_eq!(out, expected);

            // Steady state: no arena growth, no buffer growth.
            let grown = pool.workspace().stats().grown_bytes;
            let cap = out.capacity();
            pool.pack_in(&input, |_, x| x % 2 == 1, &mut out);
            assert_eq!(out, (0..2048).filter(|x| x % 2 == 1).collect::<Vec<_>>());
            assert_eq!(out.capacity(), cap);
            assert_eq!(pool.workspace().stats().grown_bytes, grown);

            // A keep-none pack leaves the buffer empty, not stale.
            pool.pack_in(&input, |_, _| false, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn pack_forks_are_fully_accounted() {
        let input: Vec<u32> = (0..WAKE_GRAIN as u32 + 1).collect();
        let pool = PalPool::new(2).unwrap();
        let chunks = pool.chunk_count(input.len()) as u64;
        assert_eq!(chunks, 8);
        pack(&pool, &input, |_, x| x % 2 == 0);
        assert_metrics_consistent(pool.metrics(), 2 * (chunks - 1));
        // Nothing survives: the write pass is skipped.
        let before = pool.metrics().forks();
        assert!(pack(&pool, &input, |_, _| false).is_empty());
        assert_eq!(pool.metrics().forks() - before, chunks - 1);
    }

    #[test]
    fn one_block_pack_filters_in_a_single_sweep() {
        // C = 1 (every sub-floor pack on a default pool): `keep` runs once
        // per element, not twice, and the output equals the blocked
        // pipeline's.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let input: Vec<u32> = (0..1000).collect();
        let [default, pinned] = pools(2);
        assert_eq!(default.chunk_count(input.len()), 1);
        let calls = AtomicUsize::new(0);
        let keep = |_: usize, x: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            x % 3 == 1
        };
        let swept = pack(&default, &input, keep);
        assert_eq!(calls.swap(0, Ordering::Relaxed), input.len());
        assert_eq!(default.metrics().forks(), 0);
        let blocked = pack(&pinned, &input, keep);
        assert_eq!(calls.load(Ordering::Relaxed), 2 * input.len());
        assert_eq!(swept, blocked);
    }

    #[test]
    fn expand_writes_each_region_once() {
        let sizes = [3usize, 0, 2, 5, 0, 1];
        let pool = PalPool::new(2).unwrap();
        let mut out = Vec::new();
        let write = |i: usize, region: &mut [usize]| {
            for (k, slot) in region.iter_mut().enumerate() {
                *slot = i * 10 + k;
            }
        };
        pool.expand_in(&sizes, usize::MAX, write, &mut out);
        assert_eq!(out, vec![0, 1, 2, 20, 21, 30, 31, 32, 33, 34, 50]);
    }

    #[test]
    fn expand_keeps_fill_in_untouched_slots() {
        let sizes = [2usize, 2];
        let pool = PalPool::new(2).unwrap();
        // Only write the first slot of each region.
        let mut out = Vec::new();
        pool.expand_in(&sizes, 9u8, |i, region| region[0] = i as u8, &mut out);
        assert_eq!(out, vec![0, 9, 1, 9]);

        // A reused buffer's stale values never show through an untouched
        // slot, whether the buffer is longer or shorter than the output,
        // on the one-block and the blocked path alike.
        let sizes: Vec<usize> = (0..300).map(|i| i % 4).collect();
        let total: usize = sizes.iter().sum();
        let expected: Vec<u32> = (0..300u32)
            .flat_map(|i| (0..i % 4).map(move |k| if k == 0 { i } else { 9 }))
            .collect();
        for p in [1, 2, 4] {
            for pool in pools(p) {
                for stale_len in [total + 5, total / 2] {
                    let mut out = vec![7u32; stale_len];
                    let write = |i: usize, region: &mut [u32]| {
                        if let Some(first) = region.first_mut() {
                            *first = i as u32;
                        }
                    };
                    pool.expand_in(&sizes, 9u32, write, &mut out);
                    assert_eq!(out, expected, "p = {p}, stale length {stale_len}");
                }
            }
        }
    }

    #[test]
    fn expand_forks_are_fully_accounted() {
        // The fused expand costs block-sums + write = 2·(C − 1), down from
        // the old three-pass 3·(C − 1).
        let sizes: Vec<usize> = (0..WAKE_GRAIN + 7).map(|i| i % 4).collect();
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let chunks = pool.chunk_count(sizes.len()) as u64;
            assert!(chunks >= 4 * p as u64);
            let mut out = Vec::new();
            pool.expand_in(&sizes, 0usize, |i, region| region.fill(i), &mut out);
            assert_eq!(out.len(), sizes.iter().sum::<usize>());
            assert_metrics_consistent(pool.metrics(), 2 * (chunks - 1));
        }
    }

    #[test]
    fn map_collect_matches_direct_map() {
        for p in [1, 2, 4] {
            for pool in pools(p) {
                let mut out = Vec::new();
                pool.map_collect_in(10..500, |i| i * i, &mut out);
                let expected: Vec<usize> = (10..500).map(|i| i * i).collect();
                assert_eq!(out, expected, "p = {p}");
            }
        }
        let pool = PalPool::new(2).unwrap();
        let mut out = vec![1usize];
        pool.map_collect_in(5..5, |i| i, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn map_collect_in_reuses_the_buffer() {
        let pool = PalPool::new(4).unwrap();
        let mut out = Vec::new();
        pool.map_collect_in(0..1000, |i| i as u64 * 3, &mut out);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 2997);
        let cap = out.capacity();
        pool.map_collect_in(0..1000, |i| i as u64, &mut out);
        assert_eq!(out[999], 999);
        assert_eq!(out.capacity(), cap);
        pool.map_collect_in(3..3, |i| i as u64, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn map_blocks_in_covers_the_range_once_per_block() {
        // Each block reports its own bounds: in order, contiguous, covering
        // the range, one pass of `C − 1` forks.
        for p in [1usize, 2, 4] {
            for pool in pools(p) {
                let range = 7..WAKE_GRAIN + 300;
                let chunks = pool.chunk_count(range.len());
                let mut out = vec![(9, 9); 3];
                pool.map_blocks_in(range.clone(), |b| (b.start, b.end), &mut out);
                assert_eq!(out.len(), chunks, "p = {p}");
                assert_eq!(out[0].0, range.start);
                assert_eq!(out[chunks - 1].1, range.end);
                assert!(out.windows(2).all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
                assert_metrics_consistent(pool.metrics(), chunks as u64 - 1);
                pool.map_blocks_in(3..3, |b| (b.start, b.end), &mut out);
                assert!(out.is_empty());
            }
        }
        // One `Pass` event carrying the pass's length and block count.
        let traced = PalPool::builder()
            .processors(2)
            .trace(crate::TraceConfig::default())
            .build()
            .unwrap();
        let mut out = Vec::new();
        traced.map_blocks_in(0..WAKE_GRAIN, |b| b.len(), &mut out);
        let s = traced.take_trace().unwrap().summary();
        assert_eq!((s.passes, s.pass_forks), (1, out.len() as u64 - 1));
        assert_eq!(out.iter().sum::<usize>(), WAKE_GRAIN);
    }

    #[test]
    fn primitives_inherit_the_cutoff_on_p1_pools() {
        // On p = 1 the cutoff depth is 0: every fork of every primitive is
        // elided — no scheduler job at all — yet results stay exact.
        let pool = PalPool::new(1).unwrap();
        let n = WAKE_GRAIN as u64;
        let input: Vec<u64> = (0..n).collect();
        let total = pool.scan_copy_in(&input, 0, |a, b| a + b, &mut Vec::new());
        assert_eq!(total, (n - 1) * n / 2);
        let m = pool.metrics();
        assert_eq!(m.spawned(), 0);
        assert_eq!(m.inlined(), 0);
        assert!(m.elided() > 0);
    }

    #[test]
    fn steady_state_scan_and_pack_grow_no_arena() {
        // The headline reuse property: after the first (warming) call,
        // repeated primitives perform zero arena growth and every
        // checkout is a hit.
        let pool = PalPool::new(4).unwrap();
        let input: Vec<u64> = (0..WAKE_GRAIN as u64).collect();
        let mut scanned = Vec::new();
        let mut packed = Vec::new();
        pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
        pool.pack_in(&input, |_, x| x % 3 == 0, &mut packed);
        let warm = pool.workspace().stats();
        for round in 0..5 {
            pool.scan_copy_in(&input, 0u64, |a, b| a + b, &mut scanned);
            pool.pack_in(&input, |_, x| x % 3 == 0, &mut packed);
            let now = pool.workspace().stats();
            assert_eq!(now.grown_bytes, warm.grown_bytes, "round {round}");
            assert_eq!(
                now.misses, warm.misses,
                "round {round}: every checkout a hit"
            );
        }
        let m = pool.metrics();
        assert!(m.arena_hits() >= 10, "ten warm checkouts at minimum");
        assert_eq!(m.arena_bytes(), pool.workspace().stats().grown_bytes);
    }

    #[test]
    fn adaptive_grain_floors_small_inputs_to_one_block() {
        // A 100-element scan on the default pool is below the cost-model
        // floor: one block, zero forks — but the same input on a pinned
        // grain-1 pool still forks the legacy 4p-way.
        let pool = PalPool::new(4).unwrap();
        assert_eq!(pool.chunk_count(100), 1);
        let input: Vec<u64> = (0..100).collect();
        pool.scan_copy_in(&input, 0, |a, b| a + b, &mut Vec::new());
        assert_metrics_consistent(pool.metrics(), 0);

        let legacy = PalPool::builder().processors(4).grain(1).build().unwrap();
        assert_eq!(legacy.chunk_count(100), 16);
        legacy.scan_copy_in(&input, 0, |a, b| a + b, &mut Vec::new());
        assert_metrics_consistent(legacy.metrics(), 2 * 15);
    }
}
