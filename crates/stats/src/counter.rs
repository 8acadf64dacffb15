//! Event counters and derived ratios.

use std::fmt;
use std::ops::AddAssign;

/// A saturating `u64` event counter.
///
/// Counters deliberately saturate instead of wrapping: an experiment that
/// somehow exceeds `u64::MAX` events should report a pegged counter, not a
/// small bogus value.
///
/// # Examples
///
/// ```
/// use predbranch_stats::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.increment();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Creates a counter starting at `value`.
    pub fn with_value(value: u64) -> Self {
        Counter(value)
    }

    /// Adds `n` to the counter, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one to the counter.
    pub fn increment(&mut self) {
        self.add(1);
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

impl From<u64> for Counter {
    fn from(value: u64) -> Self {
        Counter(value)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A numerator/denominator pair with convenience accessors.
///
/// `Ratio` keeps the raw integers so tables can print both the rate and the
/// underlying event counts; `0/0` is defined as a rate of `0.0` so that
/// empty benchmarks render cleanly rather than as `NaN`.
///
/// # Examples
///
/// ```
/// use predbranch_stats::Ratio;
///
/// let r = Ratio::of(7, 200);
/// assert_eq!(r.value(), 0.035);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Ratio {
    numerator: u64,
    denominator: u64,
}

impl Ratio {
    /// Creates the ratio `numerator / denominator`.
    pub fn of(numerator: u64, denominator: u64) -> Self {
        Ratio {
            numerator,
            denominator,
        }
    }

    /// The numerator (event count).
    pub fn numerator(&self) -> u64 {
        self.numerator
    }

    /// The denominator (population count).
    pub fn denominator(&self) -> u64 {
        self.denominator
    }

    /// The ratio as a float; `0.0` when the denominator is zero.
    ///
    /// The zero-denominator rule applies to *any* numerator — `5/0` is
    /// `0.0`, not infinity: a rate over an empty population is reported
    /// as "no events", never as a NaN/∞ that would poison downstream
    /// means. Counts at `u64::MAX` convert through `f64` (53-bit
    /// mantissa), so extreme ratios are correct to within one part in
    /// 2⁵³ — `Ratio::of(u64::MAX, u64::MAX).value()` is exactly `1.0`.
    pub fn value(&self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            self.numerator as f64 / self.denominator as f64
        }
    }

    /// The ratio scaled to percent; `0.0` when the denominator is zero
    /// (see [`Ratio::value`] for the exact degenerate-case contract).
    pub fn percent(&self) -> f64 {
        self.value() * 100.0
    }

    /// The complement ratio `(denominator - numerator) / denominator`.
    ///
    /// Useful for flipping a misprediction rate into an accuracy.
    pub fn complement(&self) -> Ratio {
        Ratio {
            numerator: self.denominator.saturating_sub(self.numerator),
            denominator: self.denominator,
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3}% ({}/{})",
            self.percent(),
            self.numerator,
            self.denominator
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero() {
        assert_eq!(Counter::new().get(), 0);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn counter_adds_and_increments() {
        let mut c = Counter::new();
        c.add(10);
        c.increment();
        c += 4;
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::with_value(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let r = Ratio::of(5, 0);
        assert_eq!(r.value(), 0.0);
        assert_eq!(r.percent(), 0.0);
        // a pegged numerator over an empty population is still "no events"
        assert_eq!(Ratio::of(u64::MAX, 0).percent(), 0.0);
        assert_eq!(Ratio::of(0, 0).percent(), 0.0);
    }

    #[test]
    fn ratio_extreme_counts_stay_finite_and_ordered() {
        assert_eq!(Ratio::of(u64::MAX, u64::MAX).value(), 1.0);
        assert_eq!(Ratio::of(u64::MAX, u64::MAX).percent(), 100.0);
        let tiny = Ratio::of(1, u64::MAX).value();
        assert!(tiny > 0.0 && tiny < 1e-18);
        let huge = Ratio::of(u64::MAX, 1).percent();
        assert!(huge.is_finite() && huge > 1e21);
    }

    #[test]
    fn ratio_percent() {
        assert_eq!(Ratio::of(1, 8).percent(), 12.5);
    }

    #[test]
    fn ratio_complement_flips_numerator() {
        let r = Ratio::of(30, 100);
        assert_eq!(r.complement(), Ratio::of(70, 100));
    }

    #[test]
    fn ratio_complement_saturates_if_numerator_exceeds_denominator() {
        let r = Ratio::of(150, 100);
        assert_eq!(r.complement().numerator(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Counter::with_value(7).to_string(), "7");
        assert_eq!(Ratio::of(1, 4).to_string(), "25.000% (1/4)");
    }
}
