//! Log-scaled histograms.
//!
//! Polling-vector lengths, poll latencies and slot durations are
//! long-tailed: a linear-bucket histogram either truncates the tail or
//! wastes thousands of empty buckets. [`Log2Histogram`] uses one bucket per
//! power of two (plus a dedicated zero bucket): 65 fixed buckets cover the
//! full `u64` range with ≤ 2× relative error on percentile queries, and
//! merging two histograms is elementwise addition — the property that makes
//! per-round and per-protocol aggregation exact.

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-size power-of-two histogram over `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`. Alongside the buckets it tracks exact count, sum, min
/// and max, so means are exact and only percentiles are quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The `[low, high]` value range of bucket `idx`.
    pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < BUCKETS, "bucket index out of range");
        if idx == 0 {
            (0, 0)
        } else {
            let low = 1u64 << (idx - 1);
            let high = if idx == 64 {
                u64::MAX
            } else {
                (1u64 << idx) - 1
            };
            (low, high)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The quantile `q ∈ [0, 1]` as an upper bound: the smallest bucket
    /// ceiling covering at least `⌈q·count⌉` samples, clamped to the exact
    /// observed maximum. `None` when empty. Quantization error is bounded
    /// by the bucket width (< 2× the true value).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bounds(idx).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates the non-empty buckets as `(low, high, count)`.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let (lo, hi) = Self::bucket_bounds(idx);
                (lo, hi, c)
            })
    }
}

rfid_system::impl_json_struct!(Log2Histogram {
    counts,
    total,
    sum,
    min,
    max
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Log2Histogram::bucket_bounds(3), (4, 7));
        assert_eq!(Log2Histogram::bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [3, 5, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 6.0);
        assert_eq!(h.min, 3);
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn percentile_is_a_clamped_upper_bound() {
        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 of 1..=100 is 50; its bucket [32, 63] caps at 63.
        let p50 = h.percentile(0.5).unwrap();
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        // p100 is clamped to the exact max, not the bucket ceiling 127.
        assert_eq!(h.percentile(1.0), Some(100));
        // p0 resolves to the first non-empty bucket.
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn empty_histogram_percentiles_are_none_at_every_quantile() {
        let h = Log2Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(h.percentile(q), None, "q = {q}");
        }
    }

    #[test]
    fn single_sample_statistics_all_equal_the_sample() {
        for v in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let mut h = Log2Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.min, v, "v = {v}");
            assert_eq!(h.max(), Some(v), "v = {v}");
            assert_eq!(h.mean(), v as f64, "v = {v}");
            // Every quantile of a one-sample distribution is the sample
            // (the bucket ceiling clamps to the exact observed max).
            for q in [0.0, 0.5, 1.0] {
                assert_eq!(h.percentile(q), Some(v), "v = {v}, q = {q}");
            }
        }
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1 << 63);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_index(1 << 63), 64);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min, 1 << 63);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, [(1 << 63, u64::MAX, 3)]);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 3, 3, 900] {
            h.record(v);
        }
        let text = rfid_system::json::to_json_string(&h);
        let back: Log2Histogram = rfid_system::json::from_json_str(&text).unwrap();
        assert_eq!(back, h);
    }
}
