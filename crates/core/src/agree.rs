//! The agree predictor (Sprangle et al., ISCA 1997).
//!
//! Region-based branches are heavily biased (side exits fire rarely), so
//! a predictor that stores each branch's *bias* once and predicts
//! agreement with it converts destructive pattern-table aliasing into
//! constructive aliasing — two biased branches sharing a counter now
//! reinforce instead of fight. Included as an extension baseline: it is
//! the other 1990s technique aimed at exactly the branch population this
//! study targets.

use crate::history::GlobalHistory;
use crate::predictor::{BranchInfo, BranchPredictor, HasGlobalHistory, HistoryInsert};
use crate::ring::Checkpoints;
use crate::tables::{CounterTable, TwoBitCounter};

/// An agree predictor: a per-branch bias bit (latched at the branch's
/// first execution) plus a gshare-indexed table of 2-bit *agree*
/// counters initialized to weakly-agree.
///
/// # Examples
///
/// ```
/// use predbranch_core::{Agree, BranchPredictor};
///
/// let p = Agree::new(12, 10);
/// assert_eq!(p.name(), "agree-12/10");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agree {
    bias: Vec<Option<bool>>,
    table: CounterTable,
    history: GlobalHistory,
    bias_bits: u32,
    checkpoints: Checkpoints<GlobalHistory>,
}

impl Agree {
    /// Creates an agree predictor with `2^index_bits` agree counters and
    /// an equally sized bias table, over `history_bits` of history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28` or `history_bits`
    /// outside `1..=64`.
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        Agree {
            bias: vec![None; 1 << index_bits],
            table: CounterTable::with_initial(index_bits, TwoBitCounter::weakly_taken()),
            history: GlobalHistory::new(history_bits),
            bias_bits: index_bits,
            checkpoints: Checkpoints::new(),
        }
    }

    fn bias_slot(&self, pc: u32) -> usize {
        (pc as usize) & (self.bias.len() - 1)
    }

    fn index(&self, pc: u32) -> u64 {
        u64::from(pc) ^ self.history.folded(self.table.index_bits())
    }

    /// The latched bias for a branch, if it has executed.
    pub fn bias_of(&self, pc: u32) -> Option<bool> {
        self.bias[self.bias_slot(pc)]
    }
}

impl BranchPredictor for Agree {
    fn name(&self) -> String {
        format!("agree-{}/{}", self.bias_bits, self.history.len())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        // first encounter: BTFN until the bias latches
        let bias = self.bias[self.bias_slot(branch.pc)].unwrap_or(branch.is_backward());
        let agree = self.table.predict(self.index(branch.pc));
        if agree {
            bias
        } else {
            !bias
        }
    }

    fn speculate(&mut self, _branch: &BranchInfo, predicted: bool) {
        self.checkpoints.push_back(self.history);
        self.history.shift_in(predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let checkpoint = self
            .checkpoints
            .pop_front()
            .expect("agree commit without a matching speculate");
        let slot = self.bias_slot(branch.pc);
        let bias = *self.bias[slot].get_or_insert(taken);
        let index = u64::from(branch.pc) ^ checkpoint.folded(self.table.index_bits());
        self.table.update(index, taken == bias);
    }

    fn squash(&mut self, _branch: &BranchInfo, taken: bool) {
        let checkpoint = *self
            .checkpoints
            .front()
            .expect("agree squash without a matching speculate");
        self.history = checkpoint;
        self.history.shift_in(taken);
    }

    fn storage_bits(&self) -> usize {
        // bias bit + valid bit per entry, plus counters and history
        self.bias.len() * 2 + self.table.storage_bits() + self.history.storage_bits()
    }
}

impl HasGlobalHistory for Agree {
    fn global_history_mut(&mut self) -> &mut GlobalHistory {
        &mut self.history
    }
}

impl HistoryInsert for Agree {
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
            region: Some(0),
            index: 0,
            guard_knowledge: PredKnowledge::Unknown,
        }
    }

    #[test]
    fn bias_latches_on_first_outcome() {
        let mut p = Agree::new(8, 8);
        assert_eq!(p.bias_of(5), None);
        p.update(&info(5), true);
        assert_eq!(p.bias_of(5), Some(true));
        // later contrary outcomes do not relatch
        p.update(&info(5), false);
        assert_eq!(p.bias_of(5), Some(true));
    }

    #[test]
    fn biased_branch_predicted_from_the_start() {
        // a 95%-taken branch: after the bias latches taken, the
        // weakly-agree initial counters predict taken immediately
        let mut p = Agree::new(10, 8);
        p.update(&info(9), true);
        assert!(p.predict(&info(9)));
    }

    #[test]
    fn aliased_biased_branches_reinforce() {
        // two branches, opposite biases, deliberately aliasing the same
        // counters (same pc modulo table, tiny table): agree encoding
        // keeps both accurate where raw gshare would fight
        let mut p = Agree::new(2, 1); // 4 counters and bias slots: heavy aliasing
        let mut wrong = 0;
        for i in 0..400 {
            for (pc, outcome) in [(1u32, true), (3u32, false)] {
                let predicted = p.predict(&info(pc));
                if i >= 50 && predicted != outcome {
                    wrong += 1;
                }
                p.update(&info(pc), outcome);
            }
        }
        assert_eq!(
            wrong, 0,
            "agree must neutralize aliasing of biased branches"
        );
    }

    #[test]
    fn unbiased_branch_still_learns_patterns() {
        let mut p = Agree::new(10, 8);
        let mut outcome = false;
        let mut wrong_tail = 0;
        for i in 0..300 {
            outcome = !outcome;
            if i >= 150 && p.predict(&info(7)) != outcome {
                wrong_tail += 1;
            }
            p.update(&info(7), outcome);
        }
        assert_eq!(wrong_tail, 0, "alternation is learnable through agree bits");
    }

    #[test]
    fn pgu_hook_reaches_history() {
        let mut p = Agree::new(6, 6);
        p.global_history_mut().shift_in(true);
        assert_eq!(p.history.value(), 1);
    }

    #[test]
    fn storage_accounting() {
        let p = Agree::new(10, 12);
        assert_eq!(p.storage_bits(), 1024 * 2 + 2048 + 12);
    }
}
