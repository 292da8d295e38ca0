//! Quicksort with pal-thread recursion.
//!
//! The two recursive calls after partitioning become pal-threads; the
//! partition itself (the `f(n) = Θ(n)` driving cost) stays sequential, so in
//! expectation the algorithm follows the case-2 recurrence
//! `T(n) = 2T(n/2) + n` and Theorem 1 promises `O(T(n)/p)`.

use lopram_core::Executor;

use crate::mergesort::insertion_sort;

/// Size below which recursion switches to insertion sort.
pub const DEFAULT_GRAIN: usize = 64;

/// Sequential quicksort baseline.
pub fn quick_sort_seq<T: Ord + Copy>(data: &mut [T]) {
    if data.len() <= DEFAULT_GRAIN {
        insertion_sort(data);
        return;
    }
    let (lt, gt) = partition(data);
    let (left, rest) = data.split_at_mut(lt);
    quick_sort_seq(left);
    quick_sort_seq(&mut rest[gt - lt..]);
}

/// Pal-thread quicksort.
pub fn quick_sort<T, E>(exec: &E, data: &mut [T])
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    qsort(exec, data, DEFAULT_GRAIN);
}

/// Pal-thread quicksort with an explicit sequential-cutoff grain.
pub fn quick_sort_with_grain<T, E>(exec: &E, data: &mut [T], grain: usize)
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    qsort(exec, data, grain.max(2));
}

fn qsort<T, E>(exec: &E, data: &mut [T], grain: usize)
where
    T: Ord + Copy + Send + Sync,
    E: Executor,
{
    if data.len() <= grain {
        insertion_sort(data);
        return;
    }
    let (lt, gt) = partition(data);
    let (left, rest) = data.split_at_mut(lt);
    let right = &mut rest[gt - lt..];
    exec.join(|| qsort(exec, left, grain), || qsort(exec, right, grain));
}

/// Three-way (Dutch national flag) partition around a median-of-three pivot.
///
/// Returns `(lt, gt)` such that `data[..lt] < pivot`,
/// `data[lt..gt] == pivot` and `data[gt..] > pivot`.  Grouping the equal
/// elements keeps the recursion depth `O(log n)` in expectation even for
/// inputs with many duplicates.
fn partition<T: Ord + Copy>(data: &mut [T]) -> (usize, usize) {
    let len = data.len();
    let mid = len / 2;
    // Median-of-three pivot selection guards against sorted inputs.
    if data[0] > data[mid] {
        data.swap(0, mid);
    }
    if data[0] > data[len - 1] {
        data.swap(0, len - 1);
    }
    if data[mid] > data[len - 1] {
        data.swap(mid, len - 1);
    }
    let pivot = data[mid];
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = len;
    while i < gt {
        if data[i] < pivot {
            data.swap(i, lt);
            lt += 1;
            i += 1;
        } else if data[i] > pivot {
            gt -= 1;
            data.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
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
    fn sequential_quicksort_sorts() {
        let mut v = random_vec(2000, 3);
        let mut expected = v.clone();
        expected.sort();
        quick_sort_seq(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn parallel_quicksort_matches_std_sort() {
        let pool = PalPool::new(4).unwrap();
        for n in [0usize, 1, 2, 63, 64, 65, 1000, 5000] {
            let mut v = random_vec(n, n as u64 + 17);
            let mut expected = v.clone();
            expected.sort();
            quick_sort(&pool, &mut v);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    #[test]
    fn handles_adversarial_inputs() {
        let pool = PalPool::new(4).unwrap();
        let mut sorted: Vec<i64> = (0..4000).collect();
        let expected = sorted.clone();
        quick_sort(&pool, &mut sorted);
        assert_eq!(sorted, expected);

        let mut reversed: Vec<i64> = (0..4000).rev().collect();
        quick_sort(&pool, &mut reversed);
        assert_eq!(reversed, expected);

        let mut constant: Vec<i64> = vec![7; 4000];
        quick_sort(&pool, &mut constant);
        assert_eq!(constant, vec![7; 4000]);
    }

    #[test]
    fn partition_places_pivot_correctly() {
        let mut v = vec![5i64, 3, 8, 1, 9, 2, 7];
        let (lt, gt) = partition(&mut v);
        assert!(lt < gt, "the pivot class is never empty");
        let pivot = v[lt];
        assert!(v[..lt].iter().all(|&x| x < pivot));
        assert!(v[lt..gt].iter().all(|&x| x == pivot));
        assert!(v[gt..].iter().all(|&x| x > pivot));
    }

    #[test]
    fn partition_groups_duplicates() {
        let mut v = vec![4i64; 100];
        let (lt, gt) = partition(&mut v);
        assert_eq!((lt, gt), (0, 100));
        let mut mixed = vec![2i64, 9, 2, 2, 9, 2, 5, 5, 5];
        let (lt, gt) = partition(&mut mixed);
        assert!(mixed[lt..gt].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn works_on_sequential_executor_with_small_grain() {
        let mut v = random_vec(777, 5);
        let mut expected = v.clone();
        expected.sort();
        quick_sort_with_grain(&SeqExecutor, &mut v, 4);
        assert_eq!(v, expected);
    }

    #[test]
    fn results_identical_for_any_p() {
        let reference = {
            let mut v = random_vec(3000, 11);
            v.sort();
            v
        };
        for p in [1usize, 2, 4, 6] {
            let pool = PalPool::new(p).unwrap();
            let mut v = random_vec(3000, 11);
            quick_sort(&pool, &mut v);
            assert_eq!(v, reference, "p = {p}");
        }
    }

    proptest! {
        #[test]
        fn prop_quicksort_sorts(mut v in proptest::collection::vec(-1000i64..1000, 0..600)) {
            let pool = PalPool::new(3).unwrap();
            let mut expected = v.clone();
            expected.sort();
            quick_sort_with_grain(&pool, &mut v, 8);
            prop_assert_eq!(v, expected);
        }
    }
}
