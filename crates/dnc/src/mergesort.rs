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
//!
//! Two sequential merges serve them.  Every sort but
//! `merge_sort_parallel_merge` — the sequential twin `merge_sort_seq`
//! included, which is the very code the kernel runs below the cutoff —
//! splits at `n / 2`, sorts leaves of at most four elements (four with a
//! stable sorting network, fewer by insertion), and merges each level with
//! a private bidirectional merge that fills the output from both ends at
//! once.  [`merge_into`] merges runs of any lengths from the front only;
//! [`merge_parallel`] cuts its runs unevenly and merges its pieces with it.
//! Both merges are branch-free and stable.

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
/// (≈ 47 µs on a 2-CPU Xeon when this cutoff was sized; re-read at a
/// median of 16 µs on 2026-10-17, see `lopram_core::policy::WAKE_GRAIN`);
/// sorting 8192 random `i64`s sequentially takes 0.17–0.20 ms ≈ 4 wakes
/// (0.31–0.34 ms with a front-only merge and 16-element insertion-sort
/// leaves, 0.41–0.50 ms before the merge went branch-free, same machine),
/// still a piece for which handing half of it to another processor wins.
/// Measured on the benchmark's `batch-fine-pN` (p = 2): each sort of 2048
/// paid ≈ 50 µs of wake on ≈ 90 µs of sorting, `dnc.mergesort_vs_seq`
/// 1.69 → 1.00 with the cutoff.
pub const SEQ_CUTOFF: usize = 8192;

/// Sequential mergesort (the `T_1` baseline).
pub fn merge_sort_seq<T: Ord + Copy>(data: &mut [T]) {
    let mut temp = data.to_vec();
    msort_seq(data, &mut temp, false);
}

/// Sorts the contents of `data` into `temp` (`into_temp`) or back into
/// `data`.  The buffers ping-pong: the children leave their runs in the
/// buffer this level merges *from*, so no level copies back.  The
/// recursion splits at `n / 2` down to leaves of at most four elements,
/// which is what [`merge_halves`] needs.
fn msort_seq<T: Ord + Copy>(data: &mut [T], temp: &mut [T], into_temp: bool) {
    let n = data.len();
    if n <= 4 {
        sort_leaf(data, temp, into_temp);
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
    merge_halves(src, dst);
}

/// Sorts a leaf of at most four elements into the buffer the ping-pong
/// asks for: four go through [`sort4`] on the stack and are written once,
/// fewer are insertion-sorted in place (and copied if they must end in
/// `temp`).
fn sort_leaf<T: Ord + Copy>(data: &mut [T], temp: &mut [T], into_temp: bool) {
    if let Ok(&four) = <&[T; 4]>::try_from(&*data) {
        let dst = if into_temp { temp } else { data };
        dst.copy_from_slice(&sort4(four));
    } else {
        insertion_sort(data);
        if into_temp {
            temp.copy_from_slice(data);
        }
    }
}

/// Stable branch-free sorting network for four elements: five
/// comparisons, each feeding index selects rather than branches.
///
/// Sort the pairs `(v[0], v[1])` and `(v[2], v[3])`; the smaller of their
/// minima is the minimum and the larger of their maxima the maximum.  The
/// two elements left over are ordered by one last comparison, and a tie
/// keeps them in input order because the left one always came from the
/// earlier position.
fn sort4<T: Ord + Copy>(v: [T; 4]) -> [T; 4] {
    let c1 = v[1] < v[0];
    let c2 = v[3] < v[2];
    let (a, b) = (usize::from(c1), usize::from(!c1));
    let (c, d) = (2 + usize::from(c2), 2 + usize::from(!c2));
    // a ≤ b and c ≤ d, stably.  Of the minima a and c the left one wins a
    // tie, of the maxima b and d the right one.
    let c3 = v[c] < v[a];
    let c4 = v[d] < v[b];
    let min = select(c3, c, a);
    let max = select(c4, b, d);
    // The two elements that are neither, in input order:
    //   c3 c4 | min max left right
    //    0  0 |  a   d   b    c
    //    0  1 |  a   b   c    d
    //    1  0 |  c   d   a    b
    //    1  1 |  c   b   a    d
    let left = select(c3, a, select(c4, c, b));
    let right = select(c4, d, select(c3, b, c));
    let c5 = v[right] < v[left];
    let lo = select(c5, right, left);
    let hi = select(c5, left, right);
    [v[min], v[lo], v[hi], v[max]]
}

/// `if c { t } else { f }` on indices, which compiles to a select.
fn select(c: bool, t: usize, f: usize) -> usize {
    if c {
        t
    } else {
        f
    }
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
    if parallel_merge {
        let (left, right) = src.split_at(mid);
        merge_parallel(exec, left, right, dst, grain);
    } else {
        merge_halves(src, dst);
    }
}

/// Merge two sorted runs into `out` (sequentially).  Stable: on equal
/// keys the left run's element comes first.
///
/// Branch-free: the comparison becomes an index increment and a select,
/// so random keys cost no mispredicted branch per element.  It takes runs
/// of any lengths: [`merge_parallel`] cuts them unevenly and merges its
/// pieces here, so [`merge_sort_parallel_merge`] uses it at every level.
/// The other sorts split at `n / 2` and merge with a private bidirectional
/// merge that needs that split and runs two dependency chains at once.
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

/// Merge the sorted runs `src[..n / 2]` and `src[n / 2..]` into `dst`
/// from both ends at once.  Stable, branch-free, and `dst.len()` must be
/// `n = src.len()`.
///
/// Each of the `n / 2` iterations makes a front step, which writes the
/// smaller head to `dst[k]` (a tie takes the left run), and a back step,
/// which writes the larger tail to `dst[n − 1 − k]` (a tie takes the right
/// run).  The two steps are independent dependency chains, and for odd `n`
/// the one element left over is the middle one.
///
/// The caller's split at `n / 2` is the condition this needs: the left
/// run then holds `n / 2` elements and the right run at least as many, so
/// after `k < n / 2` steps from one end neither run is used up from that
/// end, and the loop needs no exhaustion test and no tail copy.  Every
/// read stays inside its run whatever `Ord` does; only sorted runs and a
/// consistent total order make the two ends meet in a sorted permutation.
fn merge_halves<T: Ord + Copy>(src: &[T], dst: &mut [T]) {
    debug_assert_eq!(src.len(), dst.len());
    let (left, right) = src.split_at(src.len() / 2);
    debug_assert!(left.is_sorted() && right.is_sorted(), "runs split at n / 2");
    let (mut l, mut r) = (0, 0);
    // One past the last element of each run not yet taken from the back.
    let (mut le, mut re) = (left.len(), right.len());
    let (front, back) = dst.split_at_mut(left.len());
    for (f, b) in front.iter_mut().zip(back.iter_mut().rev()) {
        // Strictly less: a front tie takes the left run.
        let (x, y) = (left[l], right[r]);
        let take_right = y < x;
        *f = if take_right { y } else { x };
        r += usize::from(take_right);
        l += usize::from(!take_right);

        // Strictly less: a back tie takes the right run.
        let (x, y) = (left[le - 1], right[re - 1]);
        let take_left = y < x;
        *b = if take_left { x } else { y };
        le -= usize::from(take_left);
        re -= usize::from(!take_left);
    }
    if back.len() > front.len() {
        back[0] = if l < le { left[l] } else { right[r] };
    }
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

/// Sorts a short slice in place; stable.
pub(crate) fn insertion_sort<T: Ord + Copy>(data: &mut [T]) {
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

    /// `n` records with random keys below `keys`, tagged by position.
    fn random_records(n: usize, seed: u64, keys: u8) -> Vec<Rec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|tag| Rec {
                key: rng.gen_range(0..keys),
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
        let leaves = 1..=9;
        let large = [16, 17, SEQ_CUTOFF - 1, SEQ_CUTOFF + 1, 4 * SEQ_CUTOFF + 3];
        for n in leaves.chain(large) {
            let input = random_records(n, n as u64, 64);
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
    fn sort4_is_a_stable_sort_of_every_key_pattern() {
        for pattern in 0..4u32.pow(4) {
            let v: [Rec; 4] = std::array::from_fn(|tag| Rec {
                key: (pattern >> (2 * tag) & 3) as u8,
                tag: tag as u32,
            });
            let mut expected = v;
            expected.sort_by_key(|r| r.key);
            assert_eq!(pairs(&sort4(v)), pairs(&expected), "{:?}", pairs(&v));
        }
    }

    #[test]
    fn merge_halves_equals_merge_into_at_every_length() {
        for n in 0..=600 {
            let mut src = random_records(n, n as u64, 7);
            src[..n / 2].sort_by_key(|r| r.key);
            src[n / 2..].sort_by_key(|r| r.key);
            let (left, right) = src.split_at(n / 2);
            let mut expected = src.clone();
            merge_into(left, right, &mut expected);
            let mut out = src.clone();
            merge_halves(&src, &mut out);
            assert_eq!(pairs(&out), pairs(&expected), "n = {n}");
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
