//! Shannon entropy and mutual-information accumulators.
//!
//! The characterization layer asks, per static branch, "how random is
//! this branch?" and "how much of that randomness does a given context
//! (outcome history, predicate state) explain?". Both questions reduce
//! to empirical entropies over observed counts:
//!
//! * [`entropy_bits`] — the marginal Shannon entropy of a discrete
//!   distribution given as raw counts;
//! * [`JointDistribution`] — a streaming `(context, binary outcome)`
//!   joint-count table exposing the outcome entropy `H(Y)`, the
//!   conditional entropy `H(Y | X)`, and the mutual information
//!   `I(X; Y) = H(Y) − H(Y | X)`.
//!
//! All quantities are in bits. Degenerate inputs are well-defined and
//! never NaN: an empty distribution (or one with a single non-zero
//! outcome) has entropy `0.0`, and mutual information is clamped to
//! `>= 0.0` so floating-point rounding can never report a (physically
//! impossible) negative information gain.

use std::collections::BTreeMap;

/// The Shannon entropy, in bits, of the empirical distribution given by
/// `counts` (one entry per outcome; zero entries are ignored).
///
/// Empty and all-zero inputs return `0.0` — a distribution with no
/// observations carries no uncertainty worth reporting, and callers
/// feeding per-branch counts must not have to special-case branches
/// that never executed.
///
/// # Examples
///
/// ```
/// use predbranch_stats::entropy_bits;
///
/// assert_eq!(entropy_bits(&[]), 0.0);          // no observations
/// assert_eq!(entropy_bits(&[7]), 0.0);         // a certainty
/// assert_eq!(entropy_bits(&[50, 50]), 1.0);    // a fair coin
/// assert!(entropy_bits(&[95, 5]) < 0.3);       // a biased coin
/// ```
pub fn entropy_bits(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

/// A streaming joint-count table over `(context, binary outcome)`
/// pairs.
///
/// Contexts are opaque `u64` keys (packed history bits, predicate-state
/// codes, ...); outcomes are branch directions. Counts are stored in a
/// `BTreeMap` so every derived quantity — and any iteration a renderer
/// performs — is deterministic regardless of insertion order.
///
/// # Examples
///
/// ```
/// use predbranch_stats::JointDistribution;
///
/// let mut j = JointDistribution::new();
/// for i in 0..100u64 {
///     // outcome strictly alternates: fully determined by the
///     // previous outcome used as context
///     j.record(i % 2, i % 2 == 0);
/// }
/// assert_eq!(j.conditional_entropy(), 0.0); // context explains it
/// assert_eq!(j.mutual_information(), 1.0);  // all of a fair coin's bit
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JointDistribution {
    cells: BTreeMap<u64, [u64; 2]>,
    totals: [u64; 2],
}

impl JointDistribution {
    /// Creates an empty joint distribution.
    pub fn new() -> Self {
        JointDistribution::default()
    }

    /// Records one `(context, outcome)` observation.
    pub fn record(&mut self, context: u64, outcome: bool) {
        let cell = self.cells.entry(context).or_default();
        cell[usize::from(outcome)] += 1;
        self.totals[usize::from(outcome)] += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.totals[0] + self.totals[1]
    }

    /// Number of distinct contexts observed.
    pub fn contexts(&self) -> usize {
        self.cells.len()
    }

    /// The marginal outcome entropy `H(Y)` in bits.
    pub(crate) fn outcome_entropy(&self) -> f64 {
        entropy_bits(&self.totals)
    }

    /// The conditional outcome entropy `H(Y | X)` in bits: the
    /// count-weighted average of the per-context outcome entropies.
    /// `0.0` when empty.
    pub fn conditional_entropy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        let mut h = 0.0;
        for counts in self.cells.values() {
            let n = counts[0] + counts[1];
            h += (n as f64 / total) * entropy_bits(counts);
        }
        h
    }

    /// The mutual information `I(X; Y) = H(Y) − H(Y | X)` in bits,
    /// clamped at `0.0` so floating-point rounding never reports a
    /// negative gain. `0.0` when empty or when context and outcome are
    /// empirically independent.
    pub fn mutual_information(&self) -> f64 {
        (self.outcome_entropy() - self.conditional_entropy()).max(0.0)
    }

    /// Whether the table holds enough observations to trust its
    /// empirical conditional entropy: at least `per_context`
    /// observations per *distinct observed context*, on average.
    ///
    /// Empirical conditional entropy is biased towards zero when
    /// contexts are many and samples per context few (each sparsely
    /// seen context looks deterministic); callers use this rule to
    /// discard depths a trace cannot support. An empty table is never
    /// supported.
    pub fn supported(&self, per_context: u64) -> bool {
        !self.cells.is_empty()
            && self.total() >= per_context.saturating_mul(self.cells.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_degenerate_distributions_is_zero() {
        assert_eq!(entropy_bits(&[]), 0.0);
        assert_eq!(entropy_bits(&[0, 0, 0]), 0.0);
        assert_eq!(entropy_bits(&[42]), 0.0);
        assert_eq!(entropy_bits(&[42, 0, 0]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_distributions() {
        assert_eq!(entropy_bits(&[1, 1]), 1.0);
        assert_eq!(entropy_bits(&[10, 10, 10, 10]), 2.0);
    }

    #[test]
    fn entropy_is_scale_invariant_and_bounded() {
        let a = entropy_bits(&[3, 7]);
        let b = entropy_bits(&[300, 700]);
        assert!((a - b).abs() < 1e-12);
        assert!(a > 0.0 && a < 1.0);
    }

    #[test]
    fn empty_joint_is_fully_degenerate() {
        let j = JointDistribution::new();
        assert_eq!(j.total(), 0);
        assert_eq!(j.contexts(), 0);
        assert_eq!(j.outcome_entropy(), 0.0);
        assert_eq!(j.conditional_entropy(), 0.0);
        assert_eq!(j.mutual_information(), 0.0);
        assert!(!j.supported(1));
    }

    #[test]
    fn single_outcome_joint_has_zero_entropy() {
        let mut j = JointDistribution::new();
        for ctx in 0..4 {
            j.record(ctx, true);
        }
        assert_eq!(j.outcome_entropy(), 0.0);
        assert_eq!(j.conditional_entropy(), 0.0);
        assert_eq!(j.mutual_information(), 0.0);
    }

    #[test]
    fn independent_context_carries_no_information() {
        let mut j = JointDistribution::new();
        for ctx in 0..8 {
            for outcome in [false, true] {
                for _ in 0..5 {
                    j.record(ctx, outcome);
                }
            }
        }
        assert_eq!(j.outcome_entropy(), 1.0);
        assert!((j.conditional_entropy() - 1.0).abs() < 1e-12);
        assert_eq!(j.mutual_information(), 0.0);
    }

    #[test]
    fn deterministic_context_explains_everything() {
        let mut j = JointDistribution::new();
        for i in 0..100u64 {
            j.record(i % 2, i % 2 == 1);
        }
        assert_eq!(j.outcome_entropy(), 1.0);
        assert_eq!(j.conditional_entropy(), 0.0);
        assert_eq!(j.mutual_information(), 1.0);
    }

    #[test]
    fn partial_correlation_falls_in_between() {
        let mut j = JointDistribution::new();
        // context 0: 90/10 taken; context 1: 10/90 taken
        for _ in 0..90 {
            j.record(0, true);
            j.record(1, false);
        }
        for _ in 0..10 {
            j.record(0, false);
            j.record(1, true);
        }
        let mi = j.mutual_information();
        assert!(mi > 0.4 && mi < 1.0, "{mi}");
    }

    #[test]
    fn support_rule_counts_observed_contexts() {
        let mut j = JointDistribution::new();
        for i in 0..32u64 {
            j.record(i % 4, true); // 4 contexts × 8 samples
        }
        assert!(j.supported(8));
        assert!(!j.supported(9));
    }

    #[test]
    fn totals_and_contexts_track_records() {
        let mut j = JointDistribution::new();
        j.record(7, true);
        j.record(7, false);
        j.record(9, true);
        assert_eq!(j.total(), 3);
        assert_eq!(j.contexts(), 2);
    }
}
