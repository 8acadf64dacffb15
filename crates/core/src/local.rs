//! The two-level local-history predictor (PAg-style).

use crate::history::MAX_HISTORY_BITS;
use crate::predictor::{BranchInfo, BranchPredictor};
use crate::ring::Checkpoints;
use crate::tables::{CounterTable, MAX_TABLE_INDEX_BITS};

/// A two-level local predictor: a per-branch history table feeding a
/// shared pattern table of 2-bit counters (Yeh & Patt's PAg).
///
/// Captures per-branch periodic patterns without global correlation —
/// the complementary baseline to [`crate::Gshare`] and one half of
/// [`crate::Tournament`].
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, Local};
///
/// let p = Local::new(10, 10, 12);
/// assert_eq!(p.storage_bits(), 1024 * 10 + 2 * 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Local {
    histories: Vec<u64>,
    bht_bits: u32,
    history_bits: u32,
    pattern: CounterTable,
    /// Per-in-flight-branch checkpoints: the branch's BHT slot and the
    /// slot's pre-shift local history.
    checkpoints: Checkpoints<(usize, u64)>,
}

impl Local {
    /// Creates a local predictor with `2^bht_bits` per-branch histories
    /// of `history_bits` each, and a `2^pattern_bits`-entry pattern
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `bht_bits`/`pattern_bits` are outside
    /// `1..=`[`MAX_TABLE_INDEX_BITS`] or `history_bits` outside
    /// `1..=`[`MAX_HISTORY_BITS`].
    pub fn new(bht_bits: u32, history_bits: u32, pattern_bits: u32) -> Self {
        assert!(
            (1..=MAX_TABLE_INDEX_BITS).contains(&bht_bits),
            "bht bits must be 1..={MAX_TABLE_INDEX_BITS}"
        );
        assert!(
            (1..=MAX_HISTORY_BITS).contains(&history_bits),
            "history bits must be 1..={MAX_HISTORY_BITS}"
        );
        Local {
            histories: vec![0; 1 << bht_bits],
            bht_bits,
            history_bits,
            pattern: CounterTable::new(pattern_bits),
            checkpoints: Checkpoints::new(),
        }
    }

    fn bht_slot(&self, pc: u32) -> usize {
        (pc as usize) & (self.histories.len() - 1)
    }

    fn history_mask(&self) -> u64 {
        if self.history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.history_bits) - 1
        }
    }

    fn pattern_index(&self, pc: u32) -> u64 {
        // classic PAg: the local history selects the pattern counter;
        // xor in the pc to reduce destructive aliasing between branches
        self.histories[self.bht_slot(pc)] ^ (u64::from(pc) << 1)
    }
}

impl BranchPredictor for Local {
    fn name(&self) -> String {
        format!(
            "local-{}/{}/{}",
            self.bht_bits,
            self.history_bits,
            self.pattern.index_bits()
        )
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.pattern.predict(self.pattern_index(branch.pc))
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        let slot = self.bht_slot(branch.pc);
        self.checkpoints.push_back((slot, self.histories[slot]));
        self.histories[slot] =
            ((self.histories[slot] << 1) | u64::from(predicted)) & self.history_mask();
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let (_, fetch_history) = self
            .checkpoints
            .pop_front()
            .expect("local commit without a matching speculate");
        self.pattern
            .update(fetch_history ^ (u64::from(branch.pc) << 1), taken);
    }

    fn squash(&mut self, _branch: &BranchInfo, taken: bool) {
        let (slot, fetch_history) = *self
            .checkpoints
            .front()
            .expect("local squash without a matching speculate");
        self.histories[slot] = ((fetch_history << 1) | u64::from(taken)) & self.history_mask();
    }

    fn storage_bits(&self) -> usize {
        self.histories.len() * self.history_bits as usize + self.pattern.storage_bits()
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
    fn learns_periodic_pattern() {
        let mut p = Local::new(8, 10, 12);
        let pattern = [true, true, true, false]; // period 4
        let mut wrong_tail = 0;
        for i in 0..400 {
            let outcome = pattern[i % 4];
            if i >= 200 && p.predict(&info(9)) != outcome {
                wrong_tail += 1;
            }
            p.update(&info(9), outcome);
        }
        assert_eq!(wrong_tail, 0, "period-4 pattern must be learned");
    }

    #[test]
    fn branches_have_independent_histories() {
        let mut p = Local::new(8, 8, 12);
        for _ in 0..50 {
            p.update(&info(1), true);
            p.update(&info(2), false);
        }
        assert!(p.predict(&info(1)));
        assert!(!p.predict(&info(2)));
    }

    #[test]
    fn storage_accounting() {
        let p = Local::new(4, 8, 6);
        assert_eq!(p.storage_bits(), 16 * 8 + 2 * 64);
    }

    #[test]
    #[should_panic(expected = "bht bits")]
    fn bad_bht_bits_rejected() {
        let _ = Local::new(0, 8, 6);
    }
}
