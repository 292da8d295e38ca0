//! Mergesort — the paper's flagship example (§3.1, Figure 1).
//!
//! `merge_sort` is the literal Rust translation of the paper's
//! `m_sort`/`palthreads` listing: the two recursive calls become pal-threads
//! and the merge runs sequentially in the parent, giving the case-2
//! recurrence `T(n) = 2T(n/2) + n` and hence `T_p(n) = O(T(n)/p)`
//! (Theorem 1).  `merge_sort_parallel_merge` additionally parallelises the
//! merge itself by splitting around the median of the larger half, which is
//! the ingredient the paper's Eq. 5 needs in general (for mergesort it only
//! improves constants, since case 2 is already work-optimal).
//!
//! The default `merge_sort` stops creating pal-threads where a sub-array is
//! cheaper to sort than a processor is to wake ([`SEQ_CUTOFF`]); the
//! explicit-grain entry points fork all the way down to the grain they are
//! given.

use lopram_core::Executor;

/// Size at or below which [`merge_sort_parallel_merge`] stops creating
/// pal-threads and sorts (or merges) sequentially.  The paper's model
/// charges unit cost per element; on real hardware a small sequential
/// grain avoids drowning in pal-thread bookkeeping.
pub const DEFAULT_GRAIN: usize = 64;

/// Sub-arrays shorter than this are sorted by the sequential mergesort on
/// the thread that reached them — [`merge_sort`] creates no pal-thread
/// below it.
///
/// A fork from a non-worker thread costs one wake/park round trip
/// (≈ 47 µs on the 2-CPU benchmark container, see
/// `lopram_core::policy::WAKE_GRAIN`); sorting 8192 random `i64`s
/// sequentially takes 0.28–0.33 ms ≈ 6–7 wakes (0.41–0.50 ms before the
/// merge went branch-free, same machine), still a piece for which handing
/// half of it to another processor wins.  Measured on the benchmark's
/// `batch-fine-pN` (p = 2): each sort of 2048 paid ≈ 50 µs of wake on
/// ≈ 90 µs of sorting, `dnc.mergesort_vs_seq` 1.69 → 1.00 with the cutoff.
pub const SEQ_CUTOFF: usize = 8192;

/// Sequential mergesort (the `T_1` baseline).
pub fn merge_sort_seq<T: Ord + Copy>(data: &mut [T]) {
    let mut temp = data.to_vec();
    msort_seq(data, &mut temp, false);
}

/// Sorts the contents of `data` into `temp` (`into_temp`) or back into
/// `data`.  The buffers ping-pong: the children leave their runs in the
/// buffer this level merges *from*, so no level copies back.
fn msort_seq<T: Ord + Copy>(data: &mut [T], temp: &mut [T], into_temp: bool) {
    let n = data.len();
    if n <= 16 {
        insertion_sort(data);
        if into_temp {
            temp.copy_from_slice(data);
        }
        return;
    }
    let mid = n / 2;
    {
        let (dl, dr) = data.split_at_mut(mid);
        let (tl, tr) = temp.split_at_mut(mid);
        msort_seq(dl, tl, !into_temp);
        msort_seq(dr, tr, !into_temp);
    }
    let (src, dst) = ping_pong(data, temp, into_temp);
    let (left, right) = src.split_at(mid);
    merge_into(left, right, dst);
}

/// `(src, dst)` of a level's merge: the children sorted into the buffer
/// this level does not write.
fn ping_pong<'a, T>(
    data: &'a mut [T],
    temp: &'a mut [T],
    into_temp: bool,
) -> (&'a [T], &'a mut [T]) {
    if into_temp {
        (data, temp)
    } else {
        (temp, data)
    }
}

/// Pal-thread mergesort with a sequential merge (the paper's listing).
///
/// The two recursive calls are pal-threads down to [`SEQ_CUTOFF`]
/// elements; a shorter sub-array (or input) is handed to the sequential
/// mergesort on the spot — no fork, no wake — so an input under the
/// cutoff costs exactly what [`merge_sort_seq`] does.  The output is the
/// sorted input either way.  Use [`merge_sort_with_grain`] to fork down
/// to an explicit grain instead.
pub fn merge_sort<T, E>(exec: &E, data: &mut [T])
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    let mut temp = data.to_vec();
    msort_par(exec, data, &mut temp, SEQ_CUTOFF - 1, false, false);
}

/// Pal-thread mergesort with an explicit sequential-cutoff grain: forks
/// down to `grain` elements regardless of [`SEQ_CUTOFF`].
pub fn merge_sort_with_grain<T, E>(exec: &E, data: &mut [T], grain: usize)
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    let mut temp = data.to_vec();
    msort_par(exec, data, &mut temp, grain.max(2), false, false);
}

/// Pal-thread mergesort whose merge phase is itself parallelised (Eq. 5).
pub fn merge_sort_parallel_merge<T, E>(exec: &E, data: &mut [T])
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    let mut temp = data.to_vec();
    msort_par(exec, data, &mut temp, DEFAULT_GRAIN, true, false);
}

/// [`msort_seq`]'s ping-pong contract, with the two halves as pal-threads.
fn msort_par<T, E>(
    exec: &E,
    data: &mut [T],
    temp: &mut [T],
    grain: usize,
    parallel_merge: bool,
    into_temp: bool,
) where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    let n = data.len();
    if n <= grain {
        msort_seq(data, temp, into_temp);
        return;
    }
    let mid = n / 2;
    {
        let (dl, dr) = data.split_at_mut(mid);
        let (tl, tr) = temp.split_at_mut(mid);
        // palthreads { m_sort(left); m_sort(right); }
        exec.join(
            || msort_par(exec, dl, tl, grain, parallel_merge, !into_temp),
            || msort_par(exec, dr, tr, grain, parallel_merge, !into_temp),
        );
    }
    let (src, dst) = ping_pong(data, temp, into_temp);
    let (left, right) = src.split_at(mid);
    if parallel_merge {
        merge_parallel(exec, left, right, dst, grain);
    } else {
        merge_into(left, right, dst);
    }
}

/// Merge two sorted runs into `out` (sequentially).  Stable: on equal
/// keys the left run's element comes first.
///
/// Branch-free: the comparison becomes an index increment and a select,
/// so random keys cost no mispredicted branch per element.
pub fn merge_into<T: Ord + Copy>(left: &[T], right: &[T], out: &mut [T]) {
    debug_assert!(out.len() >= left.len() + right.len());
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        let (a, b) = (left[i], right[j]);
        // Strictly less: a tie takes from the left, which keeps it stable.
        let take_right = b < a;
        out[k] = if take_right { b } else { a };
        j += usize::from(take_right);
        i += usize::from(!take_right);
        k += 1;
    }
    let (left, right) = (&left[i..], &right[j..]);
    out[k..k + left.len()].copy_from_slice(left);
    k += left.len();
    out[k..k + right.len()].copy_from_slice(right);
}

/// Merge two sorted runs into `out`, splitting the work across pal-threads:
/// the larger run is cut at its median, the smaller run is cut at the
/// corresponding binary-search position, and the two halves are merged as
/// independent pal-threads.
pub fn merge_parallel<T, E>(exec: &E, left: &[T], right: &[T], out: &mut [T], grain: usize)
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    let total = left.len() + right.len();
    if total <= grain.max(2) || left.is_empty() || right.is_empty() {
        merge_into(left, right, &mut out[..total]);
        return;
    }
    // Cut the larger run at its midpoint and the smaller one by binary search.
    let (l_split, r_split) = if left.len() >= right.len() {
        let lm = left.len() / 2;
        (lm, right.partition_point(|x| *x < left[lm]))
    } else {
        let rm = right.len() / 2;
        (left.partition_point(|x| *x <= right[rm]), rm)
    };
    let cut = l_split + r_split;
    let (left_lo, left_hi) = left.split_at(l_split);
    let (right_lo, right_hi) = right.split_at(r_split);
    let (out_lo, out_hi) = out.split_at_mut(cut);
    exec.join(
        || merge_parallel(exec, left_lo, right_lo, out_lo, grain),
        || merge_parallel(exec, left_hi, right_hi, out_hi, grain),
    );
}

fn insertion_sort<T: Ord + Copy>(data: &mut [T]) {
    for i in 1..data.len() {
        let key = data[i];
        let mut j = i;
        while j > 0 && data[j - 1] > key {
            data[j] = data[j - 1];
            j -= 1;
        }
        data[j] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(-1_000_000..1_000_000))
            .collect()
    }

    #[test]
    fn sequential_sorts() {
        let mut v = random_vec(1000, 1);
        let mut expected = v.clone();
        expected.sort();
        merge_sort_seq(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn parallel_sorts_match_std_sort() {
        let pool = PalPool::new(4).unwrap();
        for n in [0usize, 1, 2, 17, 128, 1000, 4097] {
            let mut v = random_vec(n, n as u64);
            let mut expected = v.clone();
            expected.sort();
            merge_sort(&pool, &mut v);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    #[test]
    fn sorts_on_both_sides_of_the_sequential_cutoff() {
        // One short of the cutoff is a purely sequential sort (no fork);
        // at the cutoff the top call forks once into two sequential halves;
        // 4·SEQ_CUTOFF + 3 forks two levels deep with odd splits.
        for p in [1usize, 2, 4] {
            let pool = PalPool::new(p).unwrap();
            let mut forks = Vec::new();
            for n in [
                SEQ_CUTOFF - 1,
                SEQ_CUTOFF,
                SEQ_CUTOFF + 1,
                4 * SEQ_CUTOFF + 3,
            ] {
                let mut v = random_vec(n, n as u64);
                let mut expected = v.clone();
                expected.sort();
                let before = pool.metrics().forks();
                merge_sort(&pool, &mut v);
                assert_eq!(v, expected, "n = {n}, p = {p}");
                forks.push(pool.metrics().forks() - before);
            }
            assert_eq!(forks, [0, 1, 1, 7], "p = {p}");
        }
    }

    #[test]
    fn parallel_merge_variant_sorts() {
        let pool = PalPool::new(4).unwrap();
        let mut v = random_vec(10_000, 99);
        let mut expected = v.clone();
        expected.sort();
        merge_sort_parallel_merge(&pool, &mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn works_on_sequential_executor() {
        let mut v = random_vec(500, 7);
        let mut expected = v.clone();
        expected.sort();
        merge_sort(&SeqExecutor, &mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_already_sorted_and_reversed_inputs() {
        let pool = PalPool::new(2).unwrap();
        let mut asc: Vec<i64> = (0..2000).collect();
        let expected = asc.clone();
        merge_sort(&pool, &mut asc);
        assert_eq!(asc, expected);

        let mut desc: Vec<i64> = (0..2000).rev().collect();
        merge_sort(&pool, &mut desc);
        assert_eq!(desc, expected);
    }

    #[test]
    fn sorts_with_duplicates() {
        let pool = PalPool::new(4).unwrap();
        let mut v: Vec<i64> = (0..5000).map(|i| i % 7).collect();
        let mut expected = v.clone();
        expected.sort();
        merge_sort(&pool, &mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn merge_into_handles_empty_sides() {
        let mut out = vec![0; 3];
        merge_into(&[], &[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        merge_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn merge_parallel_equals_sequential_merge() {
        let pool = PalPool::new(4).unwrap();
        let left: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        let right: Vec<i64> = (0..800).map(|i| i * 3 + 1).collect();
        let mut out_seq = vec![0i64; 1800];
        let mut out_par = vec![0i64; 1800];
        merge_into(&left, &right, &mut out_seq);
        merge_parallel(&pool, &left, &right, &mut out_par, 32);
        assert_eq!(out_seq, out_par);
    }

    /// A record ordered by `key` alone; `tag` tells equal keys apart.
    #[derive(Clone, Copy, Debug)]
    struct Rec {
        key: u8,
        tag: u32,
    }

    impl PartialEq for Rec {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Rec {}

    impl PartialOrd for Rec {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Rec {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    fn random_records(n: usize, seed: u64) -> Vec<Rec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|tag| Rec {
                key: rng.gen_range(0..64u8),
                tag,
            })
            .collect()
    }

    /// `(key, tag)` pairs: equality that sees the tags.
    fn pairs(v: &[Rec]) -> Vec<(u8, u32)> {
        v.iter().map(|r| (r.key, r.tag)).collect()
    }

    #[test]
    fn every_sort_and_merge_is_stable() {
        for n in [SEQ_CUTOFF - 1, SEQ_CUTOFF + 1, 4 * SEQ_CUTOFF + 3] {
            let input = random_records(n, n as u64);
            let mut expected = input.clone();
            expected.sort_by_key(|r| r.key);
            let expected = pairs(&expected);

            // Two stably sorted runs merge into the stable sort of both.
            let (mut left, mut right) = (input[..n / 2].to_vec(), input[n / 2..].to_vec());
            left.sort_by_key(|r| r.key);
            right.sort_by_key(|r| r.key);
            let mut out = input.clone();
            merge_into(&left, &right, &mut out);
            assert_eq!(pairs(&out), expected, "merge_into, n = {n}");

            let mut v = input.clone();
            merge_sort_seq(&mut v);
            assert_eq!(pairs(&v), expected, "merge_sort_seq, n = {n}");

            for p in [1usize, 2, 4] {
                let pool = PalPool::new(p).unwrap();
                let (mut a, mut b, mut c) = (input.clone(), input.clone(), input.clone());
                merge_sort(&pool, &mut a);
                merge_sort_with_grain(&pool, &mut b, 8);
                merge_sort_parallel_merge(&pool, &mut c);
                for (name, v) in [
                    ("merge_sort", a),
                    ("merge_sort_with_grain(8)", b),
                    ("merge_sort_parallel_merge", c),
                ] {
                    assert_eq!(pairs(&v), expected, "{name}, n = {n}, p = {p}");
                }
            }
        }
    }

    #[test]
    fn results_identical_for_any_p() {
        let reference = {
            let mut v = random_vec(3000, 42);
            v.sort();
            v
        };
        for p in [1usize, 2, 3, 5, 8] {
            let pool = PalPool::new(p).unwrap();
            let mut v = random_vec(3000, 42);
            merge_sort(&pool, &mut v);
            assert_eq!(v, reference, "p = {p}");
        }
    }

    proptest! {
        #[test]
        fn prop_parallel_sort_is_a_sorted_permutation(mut v in proptest::collection::vec(-1000i64..1000, 0..500)) {
            let pool = PalPool::new(3).unwrap();
            let mut expected = v.clone();
            expected.sort();
            merge_sort_with_grain(&pool, &mut v, 8);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn prop_parallel_merge_merges(mut a in proptest::collection::vec(-500i64..500, 0..300),
                                      mut b in proptest::collection::vec(-500i64..500, 0..300)) {
            a.sort();
            b.sort();
            let mut expected: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
            expected.sort();
            let mut out = vec![0i64; a.len() + b.len()];
            merge_parallel(&SeqExecutor, &a, &b, &mut out, 4);
            prop_assert_eq!(out, expected);
        }
    }
}
