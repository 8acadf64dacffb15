//! The squash false-path filter (SFPF).

use predbranch_sim::PredWriteEvent;

use crate::predictor::{BranchInfo, BranchPredictor};
use crate::ring::Checkpoints;

/// The paper's first technique: a fetch-stage filter that recognizes
/// branches *known to be guarded by a false predicate* and predicts them
/// not-taken with 100% accuracy, bypassing the dynamic predictor.
///
/// In this ISA a branch guarded by a false predicate is architecturally
/// not-taken, so whenever the guard's defining compare has resolved by
/// fetch time (the scoreboard's answer in
/// [`BranchInfo::guard_knowledge`]), the filter's prediction cannot be
/// wrong. Everything else falls through to the wrapped
/// predictor.
///
/// Two policy knobs reproduce the design space around the basic filter:
///
/// * [`SquashFilter::with_known_true`] — also predict *taken* when the
///   guard is known **true** (the symmetric case; a guarded branch with a
///   true guard is architecturally taken).
/// * [`SquashFilter::with_update_filtered`] — whether filtered branches
///   still train the underlying predictor (default) or are fully hidden
///   from it (which frees its tables from easy branches but loses their
///   history bits).
///
/// Under the speculate/commit/squash lifecycle the filter latches its
/// train-the-inner-predictor decision per branch at `speculate` time
/// (when a learned guard table still holds its fetch-time state) and
/// replays it at `commit`/`squash`, so a retire-delayed commit gates the inner
/// predictor exactly as the fetch-time filter decision did. Filtered
/// predictions are architecturally exact and are never squashed.
///
/// # Examples
///
/// ```
/// use predbranch_core::{Gshare, SquashFilter, BranchPredictor};
///
/// let filter = SquashFilter::new(Gshare::new(12, 10)).with_known_true(true);
/// assert!(filter.name().contains("sfpf"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquashFilter<P> {
    inner: P,
    use_known_true: bool,
    update_filtered: bool,
    filtered: u64,
    /// Learned pc → guard table, when guard identification is modelled
    /// (None = decode information assumed available at fetch).
    guard_table: Option<Vec<Option<predbranch_isa::PredReg>>>,
    /// Per-in-flight-branch gate, latched at `speculate`: whether the
    /// inner predictor sees this branch's speculate/commit/squash.
    inflight: Checkpoints<bool>,
}

impl<P> SquashFilter<P> {
    /// Wraps `inner` with the false-path filter (known-true handling off,
    /// filtered branches still train the inner predictor).
    pub fn new(inner: P) -> Self {
        SquashFilter {
            inner,
            use_known_true: false,
            update_filtered: true,
            filtered: 0,
            guard_table: None,
            inflight: Checkpoints::new(),
        }
    }

    /// Enables/disables the symmetric known-true → predict-taken rule.
    pub fn with_known_true(mut self, enabled: bool) -> Self {
        self.use_known_true = enabled;
        self
    }

    /// Controls whether filtered branches still train the wrapped
    /// predictor.
    pub fn with_update_filtered(mut self, enabled: bool) -> Self {
        self.update_filtered = enabled;
        self
    }

    /// Models *guard identification*: real hardware only knows a fetched
    /// branch's guard register after decoding it once, so the filter
    /// keeps a `2^index_bits`-entry pc → guard table learned when the
    /// branch commits, and passes first encounters (and aliased entries
    /// with a stale guard) through to the inner predictor. Without this,
    /// decode information is assumed available at fetch (the default,
    /// which models a decoded-instruction cache carrying the guard
    /// specifier).
    pub fn with_learned_guards(mut self, index_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&index_bits),
            "guard table index bits must be 1..=24"
        );
        self.guard_table = Some(vec![None; 1 << index_bits]);
        self
    }

    /// Number of predictions the filter has short-circuited.
    pub fn filtered_count(&self) -> u64 {
        self.filtered
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn guard_slot(table: &[Option<predbranch_isa::PredReg>], pc: u32) -> usize {
        (pc as usize) & (table.len() - 1)
    }

    /// Whether fetch can tell which predicate guards the branch: always
    /// when decode info is assumed, otherwise only when the learned table
    /// entry matches the real guard (aliased stale entries are unusable).
    fn guard_identified(&self, branch: &BranchInfo) -> bool {
        match &self.guard_table {
            None => true,
            Some(table) => table[Self::guard_slot(table, branch.pc)] == Some(branch.guard),
        }
    }

    fn filter_decision(&self, branch: &BranchInfo) -> Option<bool> {
        if !self.guard_identified(branch) {
            return None;
        }
        match branch.guard_knowledge.value() {
            Some(false) => Some(false),
            Some(true) if self.use_known_true => Some(true),
            _ => None,
        }
    }
}

impl<P: BranchPredictor> BranchPredictor for SquashFilter<P> {
    fn name(&self) -> String {
        let mode = if self.use_known_true {
            "sfpf±"
        } else {
            "sfpf"
        };
        format!("{mode}+{}", self.inner.name())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        match self.filter_decision(branch) {
            Some(direction) => {
                self.filtered += 1;
                direction
            }
            None => self.inner.predict(branch),
        }
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        // Latch the gate with the fetch-time guard table — the same state
        // `predict` just saw — so a delayed commit reproduces the
        // fetch-time filtering decision even after older commits have
        // taught the table new guards.
        let inner_sees = self.update_filtered || self.filter_decision(branch).is_none();
        self.inflight.push_back(inner_sees);
        if inner_sees {
            self.inner.speculate(branch, predicted);
        }
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let inner_sees = self
            .inflight
            .pop_front()
            .expect("sfpf commit without a matching speculate");
        if inner_sees {
            self.inner.commit(branch, taken);
        }
        if let Some(table) = &mut self.guard_table {
            let slot = Self::guard_slot(table, branch.pc);
            table[slot] = Some(branch.guard);
        }
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        // Filtered predictions are architecturally exact, so a squash can
        // only belong to a branch the inner predictor speculated on.
        if self.inflight.front().copied().unwrap_or(false) {
            self.inner.squash(branch, taken);
        }
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        self.inner.on_pred_write(write);
    }

    fn wants_pred_writes(&self) -> bool {
        self.inner.wants_pred_writes()
    }

    fn storage_bits(&self) -> usize {
        // The filter consults the predicate register file and scoreboard,
        // which the machine already has; only a learned guard table adds
        // storage (6 guard bits + 1 valid bit per entry).
        let table = self.guard_table.as_ref().map_or(0, |t| t.len() * 7);
        self.inner.storage_bits() + table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::StaticPredictor;
    use predbranch_isa::PredReg;
    use predbranch_sim::PredicateScoreboard;

    fn p(i: u8) -> PredReg {
        PredReg::new(i).unwrap()
    }

    /// A branch at pc 10 fetched at `index`, with what `sb` knows about
    /// its guard then.
    fn info(guard: PredReg, index: u64, sb: &PredicateScoreboard) -> BranchInfo {
        BranchInfo {
            pc: 10,
            target: 0,
            guard,
            region: Some(0),
            index,
            guard_knowledge: sb.query(guard, index),
        }
    }

    #[test]
    fn known_false_predicts_not_taken_even_if_inner_says_taken() {
        let mut sb = PredicateScoreboard::new(4);
        sb.record_write(p(1), false, 0);
        // inner always predicts taken; the filter must override
        let mut f = SquashFilter::new(StaticPredictor::Taken);
        assert!(!f.predict(&info(p(1), 100, &sb)));
        assert_eq!(f.filtered_count(), 1);
    }

    #[test]
    fn unresolved_guard_falls_through() {
        let mut sb = PredicateScoreboard::new(8);
        sb.record_write(p(1), false, 98);
        let mut f = SquashFilter::new(StaticPredictor::Taken);
        // distance 2 < 8: unknown, inner decides
        assert!(f.predict(&info(p(1), 100, &sb)));
        assert_eq!(f.filtered_count(), 0);
    }

    #[test]
    fn known_true_ignored_by_default() {
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(1), true, 0);
        let mut f = SquashFilter::new(StaticPredictor::NotTaken);
        assert!(!f.predict(&info(p(1), 10, &sb)));
    }

    #[test]
    fn known_true_extension_predicts_taken() {
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(1), true, 0);
        let mut f = SquashFilter::new(StaticPredictor::NotTaken).with_known_true(true);
        assert!(f.predict(&info(p(1), 10, &sb)));
        assert_eq!(f.filtered_count(), 1);
    }

    #[test]
    fn update_filtering_policy() {
        use crate::bimodal::Bimodal;
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(1), false, 0);
        // hidden updates: inner never sees the filtered branch
        let mut f = SquashFilter::new(Bimodal::new(6)).with_update_filtered(false);
        for _ in 0..4 {
            f.update(&info(p(1), 10, &sb), false);
        }
        // inner still predicts its initial weakly-not-taken... train the
        // OTHER direction through an unknown guard to see it move.
        let mut sb_unknown = PredicateScoreboard::new(8);
        sb_unknown.record_write(p(1), false, 9);
        for _ in 0..4 {
            f.update(&info(p(1), 10, &sb_unknown), true);
        }
        assert!(f.predict(&info(p(1), 10, &sb_unknown)));
    }

    #[test]
    fn learned_guards_pass_first_encounter_through() {
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(1), false, 0);
        let mut f = SquashFilter::new(StaticPredictor::Taken).with_learned_guards(6);
        // first fetch: guard unknown to the table → inner predicts taken
        assert!(f.predict(&info(p(1), 10, &sb)));
        assert_eq!(f.filtered_count(), 0);
        f.update(&info(p(1), 10, &sb), false);
        // second fetch: guard learned → filter fires
        assert!(!f.predict(&info(p(1), 11, &sb)));
        assert_eq!(f.filtered_count(), 1);
    }

    #[test]
    fn aliased_guard_entries_do_not_misfire() {
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(1), false, 0);
        sb.record_write(p(2), true, 0);
        let mut f = SquashFilter::new(StaticPredictor::Taken).with_learned_guards(1);
        // two branches aliasing the same table slot with different guards
        let a = BranchInfo {
            pc: 0,
            target: 0,
            guard: p(1),
            region: None,
            index: 10,
            guard_knowledge: sb.query(p(1), 10),
        };
        let b = BranchInfo {
            pc: 2,
            target: 0,
            guard: p(2),
            region: None,
            index: 11,
            guard_knowledge: sb.query(p(2), 11),
        };
        f.update(&a, false); // slot learns p1
                             // b aliases the slot but its real guard is p2: the stale entry
                             // must not be used (no filter fire, no wrong squash)
        assert!(f.predict(&b), "inner decides");
        assert_eq!(f.filtered_count(), 0);
    }

    #[test]
    fn learned_guard_table_costs_storage() {
        let idealized = SquashFilter::new(StaticPredictor::NotTaken);
        let learned = SquashFilter::new(StaticPredictor::NotTaken).with_learned_guards(10);
        assert_eq!(idealized.storage_bits(), 0);
        assert_eq!(learned.storage_bits(), 1024 * 7);
    }

    #[test]
    fn name_reflects_mode() {
        let f = SquashFilter::new(StaticPredictor::NotTaken);
        assert_eq!(f.name(), "sfpf+static-nt");
        let f = f.with_known_true(true);
        assert_eq!(f.name(), "sfpf±+static-nt");
    }

    #[test]
    fn storage_is_pass_through() {
        let f = SquashFilter::new(StaticPredictor::NotTaken);
        assert_eq!(f.storage_bits(), 0);
    }
}
