//! Fixed-width bucketed histograms for distance distributions.

/// A histogram over `u64` samples in fixed-width buckets, e.g.
/// predicate-definition to branch distances in instructions.
///
/// Samples past the last bucket accumulate in an overflow bucket so the
/// total count is always exact.
///
/// # Examples
///
/// ```
/// use predbranch_stats::Histogram;
///
/// let mut h = Histogram::linear(4, 10); // buckets [0,10) [10,20) [20,30) [30,40) + overflow
/// for d in [3, 12, 14, 35, 99] {
///     h.record(d);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.bucket_count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` fixed-width buckets of `width`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `width` is zero.
    pub fn linear(buckets: usize, width: u64) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(width > 0, "bucket width must be positive");
        Histogram {
            width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(&self, sample: u64) -> Option<usize> {
        // Index math stays in u64 until the range check: casting first
        // would let a huge `sample / width` wrap on 32-bit targets and
        // land in a bogus small bucket.
        let idx = sample / self.width;
        if idx < self.buckets.len() as u64 {
            Some(idx as usize)
        } else {
            None
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        match self.bucket_index(sample) {
            Some(idx) => self.buckets[idx] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += u128::from(sample);
        self.max = self.max.max(sample);
    }

    /// Total number of recorded samples (including overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples in bucket `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// Samples that fell past the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all recorded samples, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample, or `0` if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The inclusive-exclusive `[lo, hi)` range of bucket `idx`.
    ///
    /// Edges saturate at `u64::MAX` instead of overflowing, so a bucket
    /// whose nominal upper edge exceeds `u64::MAX` reports `u64::MAX`
    /// and is the one place the `[lo, hi)` convention bends: it also
    /// holds samples equal to `u64::MAX` itself.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket_range(&self, idx: usize) -> (u64, u64) {
        assert!(idx < self.buckets.len(), "bucket index out of range");
        (
            (idx as u64).saturating_mul(self.width),
            (idx as u64).saturating_add(1).saturating_mul(self.width),
        )
    }

    /// The fraction of samples at or below the upper edge of bucket `idx`
    /// (treating overflow as above every bucket).
    pub fn cumulative_fraction(&self, idx: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let below: u64 = self.buckets.iter().take(idx + 1).sum();
        below as f64 / self.count as f64
    }

    /// The (exclusive) upper edge of the first bucket whose cumulative
    /// fraction reaches `p` (`0.0..=1.0`) — an upper bound on the
    /// p-quantile at bucket resolution. Returns `None` if the histogram
    /// is empty or the quantile falls in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn percentile_upper_bound(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in 0..=1");
        if self.count == 0 {
            return None;
        }
        for idx in 0..self.buckets.len() {
            if self.cumulative_fraction(idx) >= p {
                return Some(self.bucket_range(idx).1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_place_samples() {
        let mut h = Histogram::linear(3, 5);
        h.record(0);
        h.record(4);
        h.record(5);
        h.record(14);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn linear_overflow_catches_large_samples() {
        let mut h = Histogram::linear(2, 10);
        h.record(20);
        h.record(1_000_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn linear_bucket_ranges_saturate_instead_of_overflowing() {
        let h = Histogram::linear(4, u64::MAX / 2);
        assert_eq!(h.bucket_range(0), (0, u64::MAX / 2));
        // nominal edges 2·(u64::MAX/2) and beyond clamp to u64::MAX
        assert_eq!(h.bucket_range(2).1, u64::MAX);
        assert_eq!(h.bucket_range(3), (u64::MAX, u64::MAX));
        let mut h = Histogram::linear(2, u64::MAX);
        h.record(u64::MAX); // u64::MAX / u64::MAX == 1: second bucket
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn mean_and_max_track_samples() {
        let mut h = Histogram::linear(4, 100);
        for s in [10, 20, 30] {
            h.record(s);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::linear(3, 1);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.cumulative_fraction(2), 0.0);
    }

    #[test]
    fn cumulative_fraction_counts_buckets_up_to_index() {
        let mut h = Histogram::linear(4, 1);
        for s in [0, 1, 2, 3] {
            h.record(s);
        }
        assert_eq!(h.cumulative_fraction(0), 0.25);
        assert_eq!(h.cumulative_fraction(3), 1.0);
    }

    #[test]
    fn percentile_upper_bound_brackets_quantiles() {
        let mut h = Histogram::linear(10, 10);
        for s in 0..100u64 {
            h.record(s);
        }
        assert_eq!(h.percentile_upper_bound(0.5), Some(50));
        assert_eq!(h.percentile_upper_bound(0.05), Some(10));
        assert_eq!(h.percentile_upper_bound(1.0), Some(100));
        assert_eq!(Histogram::linear(2, 1).percentile_upper_bound(0.5), None);
        let mut over = Histogram::linear(1, 1);
        over.record(100);
        assert_eq!(over.percentile_upper_bound(0.5), None);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = Histogram::linear(2, 1).percentile_upper_bound(1.5);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = Histogram::linear(0, 1);
    }
}
