//! The gshare global-history predictor.

use crate::history::GlobalHistory;
use crate::predictor::{BranchInfo, BranchPredictor, HistoryInsert};
use crate::ring::Checkpoints;
use crate::tables::CounterTable;

/// McFarling's gshare: a 2-bit counter table indexed by `PC ⊕ global
/// history`.
///
/// This is the baseline predictor of the study. Its global history
/// register takes external bits through [`HistoryInsert`], so the
/// predicate global-update mechanism ([`crate::Pgu`]) can shift predicate
/// outcomes into it.
///
/// The history is updated speculatively: `speculate` snapshots the
/// fetch-time history register and shifts in the predicted direction;
/// `commit` trains the counter table at the checkpointed index; `squash`
/// restores the checkpoint and shifts in the resolved outcome.
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, Gshare};
///
/// let p = Gshare::new(14, 12); // 16K entries, 12 bits of history
/// assert_eq!(p.storage_bits(), 2 * (1 << 14) + 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    table: CounterTable,
    history: GlobalHistory,
    checkpoints: Checkpoints<GlobalHistory>,
}

impl Gshare {
    /// Creates a gshare with `2^index_bits` counters and `history_bits`
    /// of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28` or `history_bits`
    /// outside `1..=64`.
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        Gshare {
            table: CounterTable::new(index_bits),
            history: GlobalHistory::new(history_bits),
            checkpoints: Checkpoints::new(),
        }
    }

    fn index(&self, pc: u32) -> u64 {
        self.index_with(pc, &self.history)
    }

    fn index_with(&self, pc: u32, history: &GlobalHistory) -> u64 {
        u64::from(pc) ^ history.folded(self.table.index_bits())
    }

    /// The current global history (for inspection).
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }
}

impl BranchPredictor for Gshare {
    fn name(&self) -> String {
        format!("gshare-{}/{}", self.table.index_bits(), self.history.len())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.table.predict(self.index(branch.pc))
    }

    fn speculate(&mut self, _branch: &BranchInfo, predicted: bool) {
        self.checkpoints.push_back(self.history);
        self.history.shift_in(predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let checkpoint = self
            .checkpoints
            .pop_front()
            .expect("gshare commit without a matching speculate");
        let index = self.index_with(branch.pc, &checkpoint);
        self.table.update(index, taken);
    }

    fn squash(&mut self, _branch: &BranchInfo, taken: bool) {
        let checkpoint = *self
            .checkpoints
            .front()
            .expect("gshare squash without a matching speculate");
        self.history = checkpoint;
        self.history.shift_in(taken);
    }

    fn storage_bits(&self) -> usize {
        self.table.storage_bits() + self.history.storage_bits()
    }
}

impl HistoryInsert for Gshare {
    fn insert_history_bit(&mut self, outcome: bool) {
        self.history.shift_in(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;
    use predbranch_sim::PredKnowledge;

    fn info(pc: u32) -> BranchInfo {
        BranchInfo {
            pc,
            target: 0,
            guard: PredReg::new(1).unwrap(),
            region: None,
            index: 0,
            guard_knowledge: PredKnowledge::Unknown,
        }
    }

    #[test]
    fn learns_alternating_pattern() {
        // gshare's defining advantage over bimodal
        let mut p = Gshare::new(10, 8);
        let mut outcome = false;
        let mut wrong_tail = 0;
        for i in 0..200 {
            outcome = !outcome;
            let predicted = p.predict(&info(7));
            if i >= 100 && predicted != outcome {
                wrong_tail += 1;
            }
            p.update(&info(7), outcome);
        }
        assert_eq!(wrong_tail, 0, "gshare must lock onto alternation");
    }

    #[test]
    fn learns_correlated_branches() {
        // branch B repeats branch A's outcome; pattern of A is period-3.
        let mut p = Gshare::new(12, 10);
        let pattern = [true, true, false];
        let mut wrong_tail = 0;
        for i in 0..300 {
            let a = pattern[i % 3];
            let pa = p.predict(&info(100));
            p.update(&info(100), a);
            let pb = p.predict(&info(200));
            p.update(&info(200), a);
            if i >= 150 {
                if pa != a {
                    wrong_tail += 1;
                }
                if pb != a {
                    wrong_tail += 1;
                }
            }
        }
        assert_eq!(wrong_tail, 0, "periodic correlated pattern must be learned");
    }

    #[test]
    fn history_updates_on_outcome() {
        let mut p = Gshare::new(8, 8);
        p.update(&info(0), true);
        p.update(&info(0), false);
        assert_eq!(p.history().value(), 0b10);
    }

    #[test]
    fn storage_accounts_table_plus_history() {
        let p = Gshare::new(10, 16);
        assert_eq!(p.storage_bits(), 2048 + 16);
    }

    #[test]
    fn global_history_access_for_pgu() {
        let mut p = Gshare::new(8, 8);
        p.insert_history_bit(true);
        assert_eq!(p.history().value(), 1);
    }
}
