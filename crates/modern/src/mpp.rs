//! A multiperspective perceptron predictor.

use predbranch_core::{BranchInfo, BranchPredictor, Checkpoints, GlobalHistory, HistoryInsert};
use predbranch_sim::{PredWriteEvent, DEFAULT_RESOLVE_LATENCY};

use crate::predhist::PredicateHistory;

/// Maximum number of feature views (7 baseline + the predicate view).
const MAX_VIEWS: usize = 8;

/// The largest `index_bits` an [`Mpp`] accepts: weight-table indices
/// are stored as `u16` in checkpoints.
pub(crate) const MAX_MPP_INDEX_BITS: u32 = u16::BITS;

/// Index bits of the per-PC local-history table.
const LOCAL_TABLE_BITS: u32 = 10;

/// Bits of local history kept per PC.
const LOCAL_HISTORY_BITS: u32 = 10;

/// Weight saturation bound (6-bit signed weights).
const WEIGHT_MAX: i8 = 31;

/// How many of the newest predicate outcomes the predicate view hashes.
const PRED_VIEW_OUTCOMES: u32 = 8;

/// Adaptive-threshold training-counter saturation (Seznec's O-GEHL
/// style dynamic threshold fitting).
const THRESHOLD_COUNTER_MAX: i32 = 64;

/// One way of looking at a branch's context — each view contributes an
/// independently indexed weight to the prediction sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    /// Per-PC bias weight.
    Bias,
    /// A slice `lo..hi` (in outcomes-ago) of the global history.
    GlobalSlice(u32, u32),
    /// Hashed path of recently fetched branch PCs.
    Path,
    /// The branch's own per-PC local history.
    Local,
    /// The newest resolved predicate-definition outcomes.
    Predicate,
}

/// Per-branch checkpoint: the weight indices and the sum derived at
/// fetch (training replays them at commit), plus the speculative state
/// a squash must restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MppCheckpoint {
    indices: [u16; MAX_VIEWS],
    sum: i32,
    ghist: GlobalHistory,
    local_slot: u32,
    local_val: u16,
}

/// A multiperspective perceptron: several *feature views* of the
/// branch's context — global-history slices at multiple ranges, a
/// hashed PC path, a per-PC local history, and a bias — each hash into
/// their own small table of 6-bit weights, and the branch is predicted
/// taken when the weights' sum is non-negative. Training bumps every
/// contributing weight toward the outcome when the prediction was wrong
/// or the sum's magnitude fell below an adaptively fitted threshold.
///
/// Speculation is first-class: the global history shifts the predicted
/// outcome at `speculate` and is checkpointed for `squash` repair; the
/// local-history slot likewise saves its pre-shift value. The path
/// register is *not* rolled back: every branch in the trace is
/// architectural (squashes here repair outcome speculation, not
/// wrong-path fetch) and path bits derive from PCs, which direction
/// speculation cannot corrupt.
///
/// The predicate-aware variant (`pmpp`, [`Mpp::predicate_aware`]) adds
/// one more view over a dedicated predicate-history register: the
/// paper's predicate correlation as just another perspective, weighed
/// against the rest by ordinary perceptron training.
///
/// # Examples
///
/// ```
/// use predbranch_core::BranchPredictor;
/// use predbranch_modern::Mpp;
///
/// let m = Mpp::new(12);
/// assert_eq!(m.name(), "mpp-12");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mpp {
    index_bits: u32,
    views: Vec<View>,
    /// One weight table per view, each `2^index_bits` 6-bit weights.
    weights: Vec<Vec<i8>>,
    ghist: GlobalHistory,
    path: u64,
    local: Vec<u16>,
    /// Adaptive training threshold.
    theta: i32,
    /// Saturating counter driving threshold adaptation.
    threshold_counter: i32,
    predicate: bool,
    pred_hist: PredicateHistory,
    checkpoints: Checkpoints<MppCheckpoint>,
}

impl Mpp {
    /// Creates a multiperspective perceptron whose per-view weight
    /// tables have `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=16` (indices are stored
    /// as `u16` in checkpoints).
    pub fn new(index_bits: u32) -> Self {
        assert!(
            (1..=MAX_MPP_INDEX_BITS).contains(&index_bits),
            "mpp index bits must be 1..={MAX_MPP_INDEX_BITS}"
        );
        let views = vec![
            View::Bias,
            View::GlobalSlice(0, 8),
            View::GlobalSlice(8, 16),
            View::GlobalSlice(16, 32),
            View::GlobalSlice(32, 64),
            View::Path,
            View::Local,
        ];
        let weights = vec![vec![0i8; 1 << index_bits]; views.len()];
        Mpp {
            index_bits,
            views,
            weights,
            ghist: GlobalHistory::new(64),
            path: 0,
            local: vec![0; 1 << LOCAL_TABLE_BITS],
            theta: 24,
            threshold_counter: 0,
            predicate: false,
            // predicates become visible at PGU's commit-time delay: one
            // resolve latency after the defining compare
            pred_hist: PredicateHistory::new(DEFAULT_RESOLVE_LATENCY),
            checkpoints: Checkpoints::new(),
        }
    }

    /// Enables the predicate-history feature view.
    pub fn predicate_aware(mut self) -> Self {
        self.predicate = true;
        self.views.push(View::Predicate);
        self.weights.push(vec![0i8; 1 << self.index_bits]);
        self
    }

    fn local_slot(&self, pc: u32) -> u32 {
        pc & ((1 << LOCAL_TABLE_BITS) - 1)
    }

    fn feature(&self, view: View, pc: u32) -> u64 {
        match view {
            View::Bias => 0,
            View::GlobalSlice(lo, hi) => {
                let width = hi - lo;
                let mask = if width == 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
                (self.ghist.value() >> lo) & mask
            }
            View::Path => self.path,
            View::Local => u64::from(self.local[self.local_slot(pc) as usize]),
            View::Predicate => self.pred_hist.value() & ((1 << PRED_VIEW_OUTCOMES) - 1),
        }
    }

    /// FNV-style hash of (view, pc, feature) into a table index —
    /// different views with identical features land on unrelated
    /// weights.
    fn hash_index(&self, view_id: usize, pc: u32, feature: u64) -> u16 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in [view_id as u64 + 1, u64::from(pc), feature] {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 32;
        h ^= h >> self.index_bits.max(8);
        (h & ((1 << self.index_bits) - 1)) as u16
    }

    /// Fetch-time derivation: each view's weight index and the summed
    /// dot product. Pure — called by `predict` and `speculate`.
    fn derive(&self, pc: u32) -> ([u16; MAX_VIEWS], i32) {
        let mut indices = [0u16; MAX_VIEWS];
        let mut sum = 0i32;
        for (v, &view) in self.views.iter().enumerate() {
            let idx = self.hash_index(v, pc, self.feature(view, pc));
            indices[v] = idx;
            sum += i32::from(self.weights[v][idx as usize]);
        }
        (indices, sum)
    }

    fn train(&mut self, cp: &MppCheckpoint, taken: bool) {
        let predicted = cp.sum >= 0;
        let correct = predicted == taken;
        let low_confidence = cp.sum.abs() <= self.theta;

        // dynamic threshold fitting: grow theta while mispredicting,
        // shrink it while confidently correct
        if !correct {
            self.threshold_counter += 1;
            if self.threshold_counter >= THRESHOLD_COUNTER_MAX {
                self.theta += 1;
                self.threshold_counter = 0;
            }
        } else if low_confidence {
            self.threshold_counter -= 1;
            if self.threshold_counter <= -THRESHOLD_COUNTER_MAX {
                self.theta = (self.theta - 1).max(1);
                self.threshold_counter = 0;
            }
        }

        if !correct || low_confidence {
            for v in 0..self.views.len() {
                let w = &mut self.weights[v][cp.indices[v] as usize];
                *w = if taken {
                    (*w + 1).min(WEIGHT_MAX)
                } else {
                    (*w - 1).max(-WEIGHT_MAX)
                };
            }
        }
    }

    /// Applies one outcome to the speculative per-branch histories
    /// (global + local); the path register advances separately since it
    /// depends on the PC, not the direction.
    fn shift_histories(&mut self, pc: u32, outcome: bool) {
        self.ghist.shift_in(outcome);
        let slot = self.local_slot(pc) as usize;
        self.local[slot] =
            ((self.local[slot] << 1) | u16::from(outcome)) & ((1 << LOCAL_HISTORY_BITS) - 1);
    }
}

impl BranchPredictor for Mpp {
    fn name(&self) -> String {
        format!(
            "{}mpp-{}",
            if self.predicate { "p" } else { "" },
            self.index_bits
        )
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        if self.predicate {
            self.pred_hist.drain_visible(branch.index);
        }
        self.derive(branch.pc).1 >= 0
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        if self.predicate {
            // idempotent re-drain: predict already ran at this index
            self.pred_hist.drain_visible(branch.index);
        }
        let (indices, sum) = self.derive(branch.pc);
        let slot = self.local_slot(branch.pc);
        self.checkpoints.push_back(MppCheckpoint {
            indices,
            sum,
            ghist: self.ghist,
            local_slot: slot,
            local_val: self.local[slot as usize],
        });
        self.shift_histories(branch.pc, predicted);
        self.path = (self.path << 4) ^ u64::from(branch.pc >> 2);
    }

    fn commit(&mut self, _branch: &BranchInfo, taken: bool) {
        let cp = self
            .checkpoints
            .pop_front()
            .expect("mpp commit without a matching speculate");
        self.train(&cp, taken);
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        let cp = *self
            .checkpoints
            .front()
            .expect("mpp squash without a matching speculate");
        self.ghist = cp.ghist;
        self.local[cp.local_slot as usize] = cp.local_val;
        self.shift_histories(branch.pc, taken);
        // the path register is not restored: its speculative update used
        // the branch's PC, which the squash does not change
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        if self.predicate {
            self.pred_hist.observe(write);
        }
    }

    fn wants_pred_writes(&self) -> bool {
        self.predicate
    }

    fn storage_bits(&self) -> usize {
        let weight_bits: usize = self.weights.iter().map(|t| t.len() * 6).sum();
        weight_bits
            + self.ghist.storage_bits()
            + 64 // path register
            + self.local.len() * LOCAL_HISTORY_BITS as usize
            + 16 // theta + threshold counter
            + if self.predicate {
                self.pred_hist.storage_bits()
            } else {
                0
            }
    }
}

impl HistoryInsert for Mpp {
    fn insert_history_bit(&mut self, outcome: bool) {
        // external (PGU) bits are visible to the global-history views;
        // path and local histories are per-branch structures a
        // pseudo-outcome has no analogue in
        self.ghist.shift_in(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;
    use predbranch_sim::PredKnowledge;

    fn info(pc: u32, index: u64) -> BranchInfo {
        BranchInfo {
            pc,
            target: 0,
            guard: PredReg::new(1).unwrap(),
            region: None,
            index,
            guard_knowledge: PredKnowledge::Unknown,
        }
    }

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
    fn name_encodes_table_size() {
        assert_eq!(Mpp::new(12).name(), "mpp-12");
        assert_eq!(Mpp::new(10).predicate_aware().name(), "pmpp-10");
    }

    #[test]
    fn learns_a_local_pattern_global_noise_cannot_hide() {
        // two interleaved branches: one random (noise in global
        // history), one with a short per-PC period the local view nails
        let mut mpp = Mpp::new(12);
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut wrong_tail = 0;
        for i in 0..6000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = info(0x80, i * 2);
            let noise_taken = x >> 63 == 1;
            let p = mpp.predict(&noise);
            let _ = p;
            mpp.update(&noise, noise_taken);

            let b = info(0x40, i * 2 + 1);
            let taken = matches!(i % 5, 0 | 2 | 3);
            let predicted = mpp.predict(&b);
            if i >= 5000 && predicted != taken {
                wrong_tail += 1;
            }
            mpp.update(&b, taken);
        }
        assert!(
            wrong_tail <= 20,
            "local view should carry a period-5 pattern, {wrong_tail}/1000 wrong"
        );
    }

    #[test]
    fn squash_repair_equals_correct_speculation() {
        let mut a = Mpp::new(10);
        for i in 0..300u64 {
            let b = info(0x10 + (i % 5) as u32 * 4, i);
            a.update(&b, i % 3 != 1);
        }
        let mut b = a.clone();

        let branch = info(0x77, 900);
        let taken = false;
        a.speculate(&branch, !taken);
        a.squash(&branch, taken);
        a.commit(&branch, taken);
        b.update(&branch, taken);
        assert_eq!(a, b, "squash repair must fully erase the wrong-path shift");
    }

    #[test]
    fn predict_is_pure() {
        let mut m = Mpp::new(10);
        for i in 0..100u64 {
            m.update(&info(0x20, i), i % 2 == 0);
        }
        let before = m.clone();
        let p1 = m.predict(&info(0x20, 200));
        let p2 = m.predict(&info(0x20, 200));
        assert_eq!(p1, p2);
        assert_eq!(m, before);
    }

    #[test]
    fn predicate_view_reads_predicate_context() {
        // outcome = most recent predicate value, predicate stream
        // pseudo-random: only the predicate view carries signal
        let run = |predicate: bool| -> u32 {
            let mut m = Mpp::new(12);
            if predicate {
                m = m.predicate_aware();
            }
            let mut x = 0x0123_4567_89AB_CDEFu64;
            let mut wrong_tail = 0;
            for i in 0..8000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let value = x >> 63 == 1;
                m.on_pred_write(&write(i * 20, value));
                let b = info(0x40, i * 20 + DEFAULT_RESOLVE_LATENCY + 2);
                let predicted = m.predict(&b);
                if i >= 6000 && predicted != value {
                    wrong_tail += 1;
                }
                m.update(&b, value);
            }
            wrong_tail
        };
        let pmpp = run(true);
        let plain = run(false);
        assert!(
            pmpp * 2 < plain,
            "pmpp ({pmpp}/2000 wrong) should beat mpp ({plain}/2000) decisively"
        );
    }

    #[test]
    fn storage_accounts_for_views() {
        let plain = Mpp::new(12);
        let pred = Mpp::new(12).predicate_aware();
        // the predicate variant adds one weight table + the register
        assert_eq!(
            pred.storage_bits(),
            plain.storage_bits() + (1 << 12) * 6 + PredicateHistory::new(0).storage_bits()
        );
    }

    #[test]
    #[should_panic(expected = "commit without a matching speculate")]
    fn unbalanced_commit_rejected() {
        Mpp::new(8).commit(&info(0, 0), true);
    }
}
