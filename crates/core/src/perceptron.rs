//! A perceptron branch predictor (Jiménez & Lin, HPCA 2001) — included
//! as the study's "future work" extension: because it weighs individual
//! global-history bits, it is a natural consumer of PGU's predicate
//! bits, rewarding informative predicates and zeroing out diluting ones.

use crate::history::GlobalHistory;
use crate::predictor::{BranchInfo, BranchPredictor, HasGlobalHistory, HistoryInsert};
use crate::ring::Checkpoints;

const WEIGHT_MAX: i32 = 127;
const WEIGHT_MIN: i32 = -128;

/// The largest `index_bits` a [`Perceptron`] accepts: `2^20` weight
/// vectors.
pub const MAX_PERCEPTRON_INDEX_BITS: u32 = 20;

/// A perceptron predictor over global history.
///
/// Each (hashed) branch PC owns a weight vector `w0..wh`; the prediction
/// is `sign(w0 + Σ wi·xi)` with `xi = ±1` for history bit `i`. Training
/// follows the standard rule: adjust on a misprediction or whenever the
/// output magnitude is below the threshold `θ = ⌊1.93·h + 14⌋`.
///
/// Exposes its history through [`HasGlobalHistory`], so
/// [`crate::Pgu`] applies unchanged — the extension result this
/// repository adds to the original study.
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, Perceptron};
///
/// let p = Perceptron::new(8, 16);
/// assert_eq!(p.name(), "perceptron-8/16");
/// assert_eq!(p.storage_bits(), 256 * 17 * 8 + 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perceptron {
    weights: Vec<Vec<i32>>,
    history: GlobalHistory,
    index_bits: u32,
    theta: i32,
    checkpoints: Checkpoints<GlobalHistory>,
}

impl Perceptron {
    /// Creates a perceptron table with `2^index_bits` weight vectors over
    /// `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside
    /// `1..=`[`MAX_PERCEPTRON_INDEX_BITS`] or `history_bits` outside
    /// `1..=`[`crate::MAX_HISTORY_BITS`].
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        assert!(
            (1..=MAX_PERCEPTRON_INDEX_BITS).contains(&index_bits),
            "perceptron index bits must be 1..={MAX_PERCEPTRON_INDEX_BITS}"
        );
        Perceptron {
            weights: vec![vec![0; history_bits as usize + 1]; 1 << index_bits],
            history: GlobalHistory::new(history_bits),
            index_bits,
            theta: (1.93 * history_bits as f64 + 14.0) as i32,
            checkpoints: Checkpoints::new(),
        }
    }

    fn slot(&self, pc: u32) -> usize {
        (pc as usize) & (self.weights.len() - 1)
    }

    fn output(&self, pc: u32) -> i32 {
        self.output_with(pc, &self.history)
    }

    fn output_with(&self, pc: u32, history: &GlobalHistory) -> i32 {
        let w = &self.weights[self.slot(pc)];
        let h = history.value();
        let mut sum = w[0]; // bias weight
        for (i, &wi) in w.iter().enumerate().skip(1) {
            let x = if (h >> (i - 1)) & 1 == 1 { 1 } else { -1 };
            sum += wi * x;
        }
        sum
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }
}

impl BranchPredictor for Perceptron {
    fn name(&self) -> String {
        format!("perceptron-{}/{}", self.index_bits, self.history.len())
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.output(branch.pc) >= 0
    }

    fn speculate(&mut self, _branch: &BranchInfo, predicted: bool) {
        self.checkpoints.push_back(self.history);
        self.history.shift_in(predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        let checkpoint = self
            .checkpoints
            .pop_front()
            .expect("perceptron commit without a matching speculate");
        let sum = self.output_with(branch.pc, &checkpoint);
        let predicted = sum >= 0;
        if predicted != taken || sum.abs() <= self.theta {
            let h = checkpoint.value();
            let t = if taken { 1 } else { -1 };
            let slot = self.slot(branch.pc);
            let w = &mut self.weights[slot];
            w[0] = (w[0] + t).clamp(WEIGHT_MIN, WEIGHT_MAX);
            for (i, wi) in w.iter_mut().enumerate().skip(1) {
                let x = if (h >> (i - 1)) & 1 == 1 { 1 } else { -1 };
                *wi = (*wi + t * x).clamp(WEIGHT_MIN, WEIGHT_MAX);
            }
        }
    }

    fn squash(&mut self, _branch: &BranchInfo, taken: bool) {
        let checkpoint = *self
            .checkpoints
            .front()
            .expect("perceptron squash without a matching speculate");
        self.history = checkpoint;
        self.history.shift_in(taken);
    }

    fn storage_bits(&self) -> usize {
        // 8-bit weights (clamped to i8 range) plus the history register
        self.weights.len() * self.weights[0].len() * 8 + self.history.storage_bits()
    }
}

impl HasGlobalHistory for Perceptron {
    fn global_history_mut(&mut self) -> &mut GlobalHistory {
        &mut self.history
    }
}

impl HistoryInsert for Perceptron {
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
    fn learns_single_history_bit_function() {
        // outcome == history bit 3 (the outcome four branches ago)
        let mut p = Perceptron::new(8, 16);
        let mut outcomes = std::collections::VecDeque::from(vec![false; 4]);
        let mut wrong_tail = 0;
        for i in 0..2000u32 {
            let outcome = outcomes[0] ^ (i % 7 == 0); // mostly bit-3 history
            let target = *outcomes.front().unwrap();
            let _ = target;
            let predicted = p.predict(&info(5));
            if i >= 1000 && predicted != outcome {
                wrong_tail += 1;
            }
            p.update(&info(5), outcome);
            outcomes.pop_front();
            outcomes.push_back(outcome);
        }
        // the 1/7 noise bounds achievable accuracy; the perceptron should
        // approach it
        assert!(wrong_tail < 300, "wrong_tail = {wrong_tail}");
    }

    #[test]
    fn learns_majority_function_counters_cannot() {
        // taken iff at least 2 of the last 3 outcomes were taken — linearly
        // separable, so the perceptron nails it
        let mut p = Perceptron::new(8, 12);
        let mut last = [false; 3];
        let mut wrong_tail = 0;
        let pattern = [true, true, false, true, false, false, true];
        for i in 0..3000usize {
            let raw = pattern[i % 7];
            let outcome = (last.iter().filter(|&&b| b).count() >= 2) ^ !raw; // mix
            let predicted = p.predict(&info(9));
            if i >= 2000 && predicted != outcome {
                wrong_tail += 1;
            }
            p.update(&info(9), outcome);
            last = [last[1], last[2], outcome];
        }
        // the stream is a deterministic function of the last few outcomes
        // plus a period-7 pattern: near-perfect for a perceptron
        assert!(wrong_tail <= 20, "wrong_tail = {wrong_tail}");
    }

    #[test]
    fn weights_saturate() {
        let mut p = Perceptron::new(4, 4);
        for _ in 0..10_000 {
            p.update(&info(1), true);
        }
        let w = &p.weights[p.slot(1)];
        assert!(w.iter().all(|&wi| (WEIGHT_MIN..=WEIGHT_MAX).contains(&wi)));
        assert!(p.predict(&info(1)));
    }

    #[test]
    fn pgu_hook_reaches_history() {
        let mut p = Perceptron::new(4, 8);
        p.global_history_mut().shift_in(true);
        assert_eq!(p.history.value(), 1);
    }

    #[test]
    fn theta_formula() {
        assert_eq!(Perceptron::new(4, 16).theta(), (1.93 * 16.0 + 14.0) as i32);
    }
}
