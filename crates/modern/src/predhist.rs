//! A dedicated predicate-outcome history register.

use predbranch_sim::{PendingDefinitions, PredWriteEvent};

/// Width of the predicate-history register, in bits.
pub(crate) const PREDICATE_HISTORY_BITS: u32 = 12;

/// A shift register of recently resolved predicate-definition outcomes,
/// the feature the predicate-aware modern predictors (`ptage`, `pmpp`)
/// read.
///
/// This is the paper's PGU idea expressed natively: instead of splicing
/// predicate bits into the *branch-outcome* history (which perturbs
/// every history-indexed structure), the predictor keeps predicate
/// outcomes in their own register and hashes it into its index (TAGE)
/// or reads it as one more feature view (the perceptron).
///
/// Timing is [`predbranch_core::Pgu`]'s, through the same
/// [`PendingDefinitions`] queue: a definition becomes visible `delay`
/// fetch slots after the defining compare executes, modeling
/// commit-time availability of the predicate value. Drains are driven by
/// fetch index and are idempotent at the same index, so both `predict`
/// and `speculate` may drain.
///
/// The register is *architectural*: predicate definitions come from the
/// executed instruction stream, never from branch speculation, so a
/// branch squash does not roll it back. Branches instead checkpoint the
/// fetch-time *indices they derived from it*, so commit-time training
/// never reads the register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PredicateHistory {
    bits: u64,
    pending: PendingDefinitions,
}

impl PredicateHistory {
    /// Creates an empty register whose insertions become visible
    /// `delay` fetch slots after the defining compare.
    pub(crate) fn new(delay: u64) -> Self {
        PredicateHistory {
            bits: 0,
            pending: PendingDefinitions::new(delay),
        }
    }

    /// Observes a predicate definition (called from `on_pred_write`).
    pub(crate) fn observe(&mut self, write: &PredWriteEvent) {
        self.pending
            .observe(write, |value| shift_in(&mut self.bits, value));
    }

    /// Drains pending definitions that have become visible by
    /// `fetch_index`. Idempotent at the same index.
    pub(crate) fn drain_visible(&mut self, fetch_index: u64) {
        self.pending
            .drain_visible(fetch_index, |value| shift_in(&mut self.bits, value));
    }

    /// The current register value (most recent outcome at bit 0).
    pub(crate) fn value(&self) -> u64 {
        self.bits
    }

    /// Storage cost in bits (the register itself; the pending queue is
    /// bookkeeping the hardware gets from the pipeline for free).
    pub(crate) fn storage_bits(&self) -> usize {
        PREDICATE_HISTORY_BITS as usize
    }
}

fn shift_in(bits: &mut u64, value: bool) {
    *bits = ((*bits << 1) | u64::from(value)) & ((1 << PREDICATE_HISTORY_BITS) - 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;

    fn write(index: u64, value: bool) -> PredWriteEvent {
        PredWriteEvent {
            pc: 0,
            preg: PredReg::new(1).unwrap(),
            value,
            index,
            guard: PredReg::TRUE,
            guard_value: true,
        }
    }

    #[test]
    fn immediate_observation_shifts() {
        let mut h = PredicateHistory::new(0);
        h.observe(&write(0, true));
        h.observe(&write(1, false));
        assert_eq!(h.value(), 0b10);
    }

    #[test]
    fn delayed_observation_waits_for_fetch_distance() {
        let mut h = PredicateHistory::new(5);
        h.observe(&write(10, true));
        h.drain_visible(13);
        assert_eq!(h.value(), 0, "3 slots later: not yet visible");
        h.drain_visible(15);
        assert_eq!(h.value(), 1, "5 slots later: visible");
        // idempotent at the same index
        h.drain_visible(15);
        assert_eq!(h.value(), 1);
    }

    #[test]
    fn register_is_bounded() {
        let mut h = PredicateHistory::new(0);
        for _ in 0..100 {
            h.observe(&write(0, true));
        }
        assert_eq!(h.value(), (1 << PREDICATE_HISTORY_BITS) - 1);
        assert_eq!(h.storage_bits(), 12);
    }
}
