//! Running summaries and suite-level aggregation.

use std::fmt;

/// A running accumulator for mean, variance, min, and max of `f64` samples.
///
/// Uses Welford's online algorithm so long experiment runs stay numerically
/// stable.
///
/// # Examples
///
/// ```
/// use predbranch_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.to_string(), "mean=5.0000 sd=2.0000 min=2.0000 max=9.0000 n=8");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = sample - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (dividing by `n`), or `0.0` if empty.
    pub(crate) fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (dividing by `n - 1`), or `0.0` with fewer than two
    /// samples.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample, or `0.0` if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or `0.0` if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Half-width of an approximate 95% confidence interval on the mean
    /// (`1.96 · s/√n`), or `0.0` with fewer than two samples.
    pub fn confidence95(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * (self.sample_variance() / self.count as f64).sqrt()
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} sd={:.4} min={:.4} max={:.4} n={}",
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max(),
            self.count
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

/// Arithmetic mean of `samples`, or `0.0` if empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of `samples`, or `0.0` if empty.
///
/// The conventional aggregate for per-benchmark speedups. Non-positive
/// samples are clamped to a tiny positive value so a single degenerate
/// benchmark cannot produce `NaN`.
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = samples.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_sample_statistics() {
        let mut s = Summary::new();
        s.record(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn welford_matches_textbook_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_track_extremes() {
        let s: Summary = [3.0, -1.0, 10.0].into_iter().collect();
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let small: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let large: Summary = std::iter::repeat_n([1.0, 2.0, 3.0], 100)
            .flatten()
            .collect();
        assert!(large.confidence95() < small.confidence95());
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn geometric_mean_of_speedups() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // a zero sample must not poison the aggregate into NaN
        assert!(geometric_mean(&[0.0, 4.0]).is_finite());
    }

    #[test]
    fn extend_appends_samples() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s: Summary = [1.0, 2.0].into_iter().collect();
        let text = s.to_string();
        for key in ["mean=", "sd=", "min=", "max=", "n="] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
