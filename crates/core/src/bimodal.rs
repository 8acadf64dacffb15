//! The bimodal (per-PC 2-bit counter) predictor.

use crate::predictor::{BranchInfo, BranchPredictor};
use crate::tables::CounterTable;

/// A bimodal predictor: one 2-bit counter per (hashed) branch PC.
///
/// The classic Smith predictor — captures per-branch bias but no
/// correlation, making it the natural floor for the history-based
/// predictors in this study.
///
/// # Examples
///
/// ```
/// use predbranch_core::{Bimodal, BranchPredictor};
///
/// let p = Bimodal::new(12);
/// assert_eq!(p.storage_bits(), 8192);
/// assert_eq!(p.name(), "bimodal-12");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    table: CounterTable,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28`.
    pub fn new(index_bits: u32) -> Self {
        Bimodal {
            table: CounterTable::new(index_bits),
        }
    }
}

impl BranchPredictor for Bimodal {
    fn name(&self) -> String {
        format!("bimodal-{}", self.table.index_bits())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.table.predict(branch.pc as u64)
    }

    // No speculative state: the counter index depends only on the PC, so
    // the default no-op `speculate`/`squash` are exact.
    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        self.table.update(branch.pc as u64, taken);
    }

    fn storage_bits(&self) -> usize {
        self.table.storage_bits()
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
    fn learns_per_branch_bias() {
        let mut p = Bimodal::new(10);
        for _ in 0..4 {
            p.update(&info(100), true);
            p.update(&info(200), false);
        }
        assert!(p.predict(&info(100)));
        assert!(!p.predict(&info(200)));
    }

    #[test]
    fn alternating_branch_stays_wrong_half_the_time() {
        let mut p = Bimodal::new(10);
        let mut wrong = 0;
        let mut outcome = false;
        for _ in 0..100 {
            outcome = !outcome;
            if p.predict(&info(7)) != outcome {
                wrong += 1;
            }
            p.update(&info(7), outcome);
        }
        // bimodal cannot learn alternation
        assert!(wrong >= 50, "wrong = {wrong}");
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = Bimodal::new(4);
        p.update(&info(1), true);
        p.update(&info(1), true);
        assert!(p.predict(&info(1)));
        assert!(!p.predict(&info(2)));
    }
}
