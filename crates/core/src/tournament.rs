//! The McFarling tournament (combining) predictor.

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::predictor::{BranchInfo, BranchPredictor, HistoryInsert};
use crate::ring::Checkpoints;
use crate::tables::CounterTable;

/// A tournament predictor: gshare and bimodal components with a per-PC
/// chooser trained toward whichever component was right.
///
/// Routes [`HistoryInsert`] bits into its gshare component's global
/// history, so the PGU mechanism applies to it the same way it applies to
/// plain gshare.
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, Tournament};
///
/// let p = Tournament::new(12, 10, 12, 12);
/// assert!(p.storage_bits() > 0);
/// assert!(p.name().starts_with("tournament"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tournament {
    gshare: Gshare,
    bimodal: Bimodal,
    chooser: CounterTable,
    /// Per-in-flight-branch fetch-time component predictions `(g, b)`,
    /// needed at commit to train the chooser on disagreement.
    checkpoints: Checkpoints<(bool, bool)>,
}

impl Tournament {
    /// Creates a tournament from gshare (`gshare_bits` table,
    /// `history_bits` history), bimodal (`bimodal_bits` table), and a
    /// `chooser_bits` chooser table.
    ///
    /// # Panics
    ///
    /// Panics if any table size is outside `1..=28` or the history is
    /// outside `1..=64`.
    pub fn new(gshare_bits: u32, history_bits: u32, bimodal_bits: u32, chooser_bits: u32) -> Self {
        Tournament {
            gshare: Gshare::new(gshare_bits, history_bits),
            bimodal: Bimodal::new(bimodal_bits),
            chooser: CounterTable::new(chooser_bits),
            checkpoints: Checkpoints::new(),
        }
    }
}

impl BranchPredictor for Tournament {
    fn name(&self) -> String {
        format!("tournament-{}", self.chooser.index_bits())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        let g = self.gshare.predict(branch);
        let b = self.bimodal.predict(branch);
        // chooser counter: taken-side (>=2) means "trust gshare"
        if self.chooser.predict(branch.pc as u64) {
            g
        } else {
            b
        }
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        // Latch the fetch-time component predictions before the
        // components speculate (their speculative shifts would change
        // what the gshare component predicts).
        let g = self.gshare.predict(branch);
        let b = self.bimodal.predict(branch);
        self.checkpoints.push_back((g, b));
        self.gshare.speculate(branch, predicted);
        self.bimodal.speculate(branch, predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let (g, b) = self
            .checkpoints
            .pop_front()
            .expect("tournament commit without a matching speculate");
        if g != b {
            self.chooser.update(branch.pc as u64, g == taken);
        }
        self.gshare.commit(branch, taken);
        self.bimodal.commit(branch, taken);
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        self.gshare.squash(branch, taken);
        self.bimodal.squash(branch, taken);
    }

    fn storage_bits(&self) -> usize {
        self.gshare.storage_bits() + self.bimodal.storage_bits() + self.chooser.storage_bits()
    }
}

impl HistoryInsert for Tournament {
    fn insert_history_bit(&mut self, outcome: bool) {
        self.gshare.insert_history_bit(outcome);
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

    fn accuracy<P: BranchPredictor>(
        p: &mut P,
        outcomes: impl Iterator<Item = (u32, bool)>,
        warmup: usize,
    ) -> f64 {
        let mut total = 0u64;
        let mut right = 0u64;
        for (i, (pc, outcome)) in outcomes.enumerate() {
            let predicted = p.predict(&info(pc));
            if i >= warmup {
                total += 1;
                if predicted == outcome {
                    right += 1;
                }
            }
            p.update(&info(pc), outcome);
        }
        right as f64 / total as f64
    }

    #[test]
    fn beats_or_matches_both_components_on_mixed_workload() {
        // pc 1: biased taken (bimodal-friendly); pc 2: alternating
        // (gshare-friendly). The tournament should do well on both.
        let stream = || {
            (0..2000).map(|i| {
                if i % 2 == 0 {
                    (1u32, i % 10 != 0) // 90% taken
                } else {
                    (2u32, (i / 2) % 2 == 0) // alternating
                }
            })
        };
        let t_acc = accuracy(&mut Tournament::new(10, 8, 10, 10), stream(), 500);
        assert!(t_acc > 0.90, "tournament accuracy {t_acc}");
    }

    #[test]
    fn chooser_only_trains_on_disagreement() {
        let mut t = Tournament::new(6, 6, 6, 6);
        let before = t.chooser.counter(5).state();
        // both components agree (both predict not-taken initially)
        t.update(&info(5), false);
        assert_eq!(t.chooser.counter(5).state(), before);
    }

    #[test]
    fn pgu_hook_reaches_gshare_history() {
        let mut t = Tournament::new(6, 8, 6, 6);
        t.insert_history_bit(true);
        assert_eq!(t.gshare.history().value(), 1);
    }

    #[test]
    fn storage_sums_components() {
        let t = Tournament::new(6, 8, 7, 5);
        let expected = (2 * 64 + 8) + (2 * 128) + (2 * 32);
        assert_eq!(t.storage_bits(), expected);
    }
}
