//! The harness's own arithmetic: medians, the capped percentile, geometric
//! mean, quartile spread, and the fixed-memory latency histogram.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile by nearest rank.  The cost estimate behind `time_vs_seq`:
/// on this container interference only ever adds time (sibling hyperthreads,
/// host stalls), and rarely a round lands in a faster scheduling mode, so
/// the lower quartile tracks the program's own cost where the median moved
/// ±9% between identical runs and the minimum ±30% (README, "Noise findings").
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The quantile actually reported when `q` is asked of `n` samples: a
/// percentile above the median is only reported when at least ten samples
/// lie beyond it, so `q` is capped at `(n − 10) / n`, but not below the median.
pub fn effective_q(q: f64, n: u64) -> f64 {
    if q <= 0.5 {
        return q;
    }
    let cap = (n.saturating_sub(10)) as f64 / n.max(1) as f64;
    q.min(cap).max(0.5)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// rule the driver applies to ten runs).  Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of `u64` samples (nanoseconds): 1024 linear
/// sub-buckets per power of two, so every quantile is within 0.1% of the
/// exact order statistic while memory stays fixed however many millions of
/// jobs a run completes (sample storage would make `peak_rss_mb` a function
/// of the job count).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        ((u64::from(shift + 1) << SUB_BITS) + ((value >> shift) & (SUB - 1))) as usize
    }

    /// Inclusive lower bound and width of bucket `b`.
    fn bounds(b: usize) -> (u64, u64) {
        let b = b as u64;
        if b < SUB {
            return (b, 1);
        }
        let shift = (b >> SUB_BITS) - 1;
        ((SUB + (b & (SUB - 1))) << shift, 1 << shift)
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile by nearest rank, interpolated inside its bucket;
    /// `q` is first capped by [`effective_q`].  0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = effective_q(q, self.total);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = Self::bounds(b);
                let inside = (rank - seen) as f64 / c as f64;
                return lo as f64 + (width - 1) as f64 * inside;
            }
            seen += c;
        }
        unreachable!("rank {rank} lies within total {}", self.total)
    }

    /// [`quantile`](Self::quantile) of nanosecond samples, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1e6
    }

    /// [`quantile`](Self::quantile) of nanosecond samples, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[9.0]), 9.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p90 has 100 beyond, p99.9 only one, so it is
        // reported as p99 (ten beyond).
        assert_eq!(effective_q(0.9, 1000), 0.9);
        assert_eq!(effective_q(0.999, 1000), 0.99);
        // 40 samples support p75 at most; 12 samples only the median.
        assert_eq!(effective_q(0.9, 40), 0.75);
        assert_eq!(effective_q(0.9, 12), 0.5);
        assert_eq!(effective_q(0.9, 0), 0.5);
        assert_eq!(effective_q(0.25, 12), 0.25);

        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.9), 900.0);
        assert_eq!(h.quantile(0.999), 990.0);
        let mut few = Histogram::default();
        for v in 1..=40u64 {
            few.record(v * 10);
        }
        assert_eq!(few.quantile(0.9), 300.0);
    }

    #[test]
    fn histogram_is_within_a_thousandth_on_large_values() {
        let mut h = Histogram::default();
        let samples: Vec<u64> = (0..5000u64).map(|i| 1_000_000 + i * 7919).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[(q * 5000.0_f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for v in [0u64, 1, 1023, 1024, 1025, 4096, 123_456_789, u64::MAX] {
            let (lo, width) = Histogram::bounds(Histogram::bucket(v));
            assert!(lo <= v && v - lo < width, "{v} outside [{lo}, +{width})");
        }
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
    }
}
