//! A TAGE (TAgged GEometric history length) predictor.

use std::ops::RangeInclusive;

use predbranch_core::{
    checkpoint_capacity, BranchInfo, BranchPredictor, CounterTable, FoldedHistory, HistoryInsert,
    LongHistory, Ring, MAX_LONG_HISTORY, WINDOW_CAPACITY,
};
use predbranch_sim::{PredWriteEvent, DEFAULT_RESOLVE_LATENCY};

use crate::predhist::PredicateHistory;

/// Maximum number of tagged tables a [`Tage`] instance may have.
pub(crate) const MAX_TAGE_TABLES: usize = 8;

/// The largest `index_bits` a [`Tage`] accepts: `2^20` entries per
/// tagged table.
pub(crate) const MAX_TAGE_INDEX_BITS: u32 = 20;

/// History length of the shortest tagged table.
const MIN_HISTORY: u32 = 5;

/// Tag width of every tagged entry, in bits.
const TAG_BITS: u32 = 11;

const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

/// How many of the newest predicate outcomes the predicate-aware
/// variant hashes into its table indices. Kept short so a recurring
/// (history, predicate) context maps to a stable entry instead of being
/// scattered by stale predicate bits.
const PRED_INDEX_OUTCOMES: u32 = 4;

/// Sentinel for "no tagged table" in provider/alternate fields.
const NO_TABLE: u8 = u8::MAX;

/// Capacity of the TAGE snapshot ring, derived from the harness's
/// in-flight window bound. TAGE checkpoints are an order of magnitude
/// larger than a gshare history, so the ring is sized here once instead
/// of hard-coding a number that could fall behind the window.
const TAGE_SNAPSHOTS: usize = checkpoint_capacity(WINDOW_CAPACITY);

/// One tagged entry: a 3-bit signed prediction counter, a partial tag,
/// and a 2-bit usefulness counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TageEntry {
    /// Prediction counter in `-4..=3`; `ctr >= 0` predicts taken.
    ctr: i8,
    /// Partial tag ([`TAG_BITS`] bits).
    tag: u16,
    /// Usefulness counter in `0..=3`; 0 marks the entry replaceable.
    useful: u8,
}

impl TageEntry {
    fn empty() -> Self {
        TageEntry {
            ctr: -1,
            tag: 0,
            useful: 0,
        }
    }

    fn predict(&self) -> bool {
        self.ctr >= 0
    }

    /// A weak counter on a never-yet-useful entry: likely newly
    /// allocated, so its prediction is not yet trustworthy.
    fn is_weak_new(&self) -> bool {
        (self.ctr == 0 || self.ctr == -1) && self.useful == 0
    }

    fn train(&mut self, taken: bool) {
        self.ctr = if taken {
            (self.ctr + 1).min(3)
        } else {
            (self.ctr - 1).max(-4)
        };
    }
}

/// Everything a branch derives from the predictor's state at fetch:
/// per-table indices and tags, the provider/alternate match, and the
/// resulting prediction. Checkpointed whole so commit-time training
/// replays the fetch-time view exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lookup {
    base_index: u64,
    indices: [u32; MAX_TAGE_TABLES],
    tags: [u16; MAX_TAGE_TABLES],
    /// Longest matching table, or [`NO_TABLE`].
    provider: u8,
    /// Next-longest matching table below the provider, or [`NO_TABLE`]
    /// (= the bimodal base).
    alt_table: u8,
    provider_pred: bool,
    alt_pred: bool,
    prediction: bool,
}

/// Per-branch speculative checkpoint: the full history/fold state to
/// restore on a squash, plus the fetch-time [`Lookup`] to train from at
/// commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TageCheckpoint {
    hist: LongHistory,
    idx_folds: [FoldedHistory; MAX_TAGE_TABLES],
    tag_folds: [[FoldedHistory; 2]; MAX_TAGE_TABLES],
    lookup: Lookup,
}

/// A TAGE predictor: a bimodal base table plus a geometric series of
/// partially tagged tables indexed by folds of ever-longer global
/// history, the canonical post-2006 conditional branch predictor.
///
/// Prediction comes from the longest-history table whose tag matches
/// (the *provider*), falling back to the next match (*altpred*) or the
/// base. Newly allocated entries are distrusted until they prove
/// themselves (`use_alt_on_na`). On a misprediction, an entry is
/// allocated in a longer-history table; failed allocations decay the
/// usefulness counters blocking them.
///
/// The speculative lifecycle is first-class: `speculate` checkpoints
/// the long history and every folded register and shifts the predicted
/// outcome in; `squash` restores and re-shifts the correct outcome;
/// `commit` trains from the checkpointed fetch-time indices and tags in
/// fetch order. The allocation LFSR advances only at commit, so state
/// evolution is a pure function of the committed stream.
///
/// The predicate-aware variant (`ptage`, [`Tage::predicate_aware`])
/// additionally hashes the newest few outcomes of a dedicated
/// predicate-history register into every table index, letting
/// entries specialize on the resolved predicate context the paper's PGU
/// mechanism targets — without perturbing the branch-outcome history.
///
/// # Examples
///
/// ```
/// use predbranch_core::BranchPredictor;
/// use predbranch_modern::Tage;
///
/// let t = Tage::new(4, 10, 64);
/// assert_eq!(t.name(), "tage-4/10/64");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tage {
    num_tables: usize,
    index_bits: u32,
    max_history: u32,
    lens: [u32; MAX_TAGE_TABLES],
    base: CounterTable,
    /// Tagged entries, all tables flattened: table `t` occupies
    /// `t << index_bits ..`.
    entries: Vec<TageEntry>,
    hist: LongHistory,
    idx_folds: [FoldedHistory; MAX_TAGE_TABLES],
    tag_folds: [[FoldedHistory; 2]; MAX_TAGE_TABLES],
    /// Chooser in `-8..=7`: non-negative trusts the alternate
    /// prediction when the provider entry is weak and new.
    use_alt_on_na: i8,
    /// Allocation-randomizing LFSR; stepped only at commit.
    lfsr: u16,
    predicate: bool,
    pred_hist: PredicateHistory,
    checkpoints: Ring<TageCheckpoint, TAGE_SNAPSHOTS>,
}

impl Tage {
    /// Creates a TAGE predictor with `tables` tagged tables of
    /// `2^index_bits` entries each, over history lengths growing
    /// geometrically from `MIN_HISTORY` to `max_history`.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is outside `1..=8`, `index_bits` is outside
    /// `1..=20`, or `max_history` leaves no room for a strictly
    /// increasing series (`MIN_HISTORY + tables - 1 ..= 256`).
    pub fn new(tables: u32, index_bits: u32, max_history: u32) -> Self {
        assert!(
            (1..=MAX_TAGE_TABLES as u32).contains(&tables),
            "tage table count must be 1..={MAX_TAGE_TABLES}"
        );
        assert!(
            (1..=MAX_TAGE_INDEX_BITS).contains(&index_bits),
            "tage index bits must be 1..={MAX_TAGE_INDEX_BITS}"
        );
        let histories = Tage::max_history_range(tables);
        assert!(
            histories.contains(&max_history),
            "tage max history must be {}..={} for {tables} tables",
            histories.start(),
            histories.end(),
        );

        let num_tables = tables as usize;
        let mut lens = [0u32; MAX_TAGE_TABLES];
        for (t, len) in lens.iter_mut().enumerate().take(num_tables) {
            *len = geometric_length(t as u32, tables, max_history);
        }
        // enforce strict monotonicity after rounding
        for t in 1..num_tables {
            lens[t] = lens[t].max(lens[t - 1] + 1);
        }

        let dummy = FoldedHistory::new(1, 1);
        let mut idx_folds = [dummy; MAX_TAGE_TABLES];
        let mut tag_folds = [[dummy; 2]; MAX_TAGE_TABLES];
        for t in 0..num_tables {
            idx_folds[t] = FoldedHistory::new(lens[t], index_bits.min(32));
            tag_folds[t] = [
                FoldedHistory::new(lens[t], TAG_BITS),
                FoldedHistory::new(lens[t], TAG_BITS - 1),
            ];
        }

        Tage {
            num_tables,
            index_bits,
            max_history,
            lens,
            base: CounterTable::new(index_bits.min(28)),
            entries: vec![TageEntry::empty(); num_tables << index_bits],
            hist: LongHistory::new(max_history),
            idx_folds,
            tag_folds,
            use_alt_on_na: 0,
            lfsr: 0xACE1,
            predicate: false,
            // predicates become visible at PGU's commit-time delay: one
            // resolve latency after the defining compare
            pred_hist: PredicateHistory::new(DEFAULT_RESOLVE_LATENCY),
            checkpoints: Ring::new(),
        }
    }

    /// The `max_history` values [`Tage::new`] accepts for `tables`
    /// tagged tables: a geometric series from `MIN_HISTORY` needs one
    /// more bit per table to stay strictly increasing, and the register
    /// holds at most [`MAX_LONG_HISTORY`] bits.
    pub(crate) fn max_history_range(tables: u32) -> RangeInclusive<u32> {
        MIN_HISTORY + tables.saturating_sub(1)..=MAX_LONG_HISTORY
    }

    /// Enables the predicate-history feature: the newest
    /// `PRED_INDEX_OUTCOMES` resolved predicate-definition outcomes
    /// are hashed into every table index.
    pub fn predicate_aware(mut self) -> Self {
        self.predicate = true;
        self
    }

    fn index_mask(&self) -> u64 {
        (1u64 << self.index_bits) - 1
    }

    fn entry(&self, table: usize, index: u32) -> &TageEntry {
        &self.entries[(table << self.index_bits) | index as usize]
    }

    fn entry_mut(&mut self, table: usize, index: u32) -> &mut TageEntry {
        &mut self.entries[(table << self.index_bits) | index as usize]
    }

    fn table_index(&self, table: usize, pc: u32) -> u32 {
        let pc = u64::from(pc);
        let mut h = pc ^ (pc >> self.index_bits.min(16)) ^ self.idx_folds[table].value();
        h ^= (table as u64) << 2;
        if self.predicate {
            h ^= self.pred_hist.value() & ((1 << PRED_INDEX_OUTCOMES) - 1);
        }
        (h & self.index_mask()) as u32
    }

    fn table_tag(&self, table: usize, pc: u32) -> u16 {
        let h = u64::from(pc)
            ^ self.tag_folds[table][0].value()
            ^ (self.tag_folds[table][1].value() << 1);
        (h & TAG_MASK) as u16
    }

    /// The complete fetch-time derivation for `pc`: indices, tags,
    /// provider/alternate selection and the prediction. Pure — called
    /// by both `predict` and `speculate` (which checkpoints it).
    fn lookup(&self, pc: u32) -> Lookup {
        let mut indices = [0u32; MAX_TAGE_TABLES];
        let mut tags = [0u16; MAX_TAGE_TABLES];
        for t in 0..self.num_tables {
            indices[t] = self.table_index(t, pc);
            tags[t] = self.table_tag(t, pc);
        }
        let base_index = u64::from(pc);
        let base_pred = self.base.predict(base_index);

        let mut provider = NO_TABLE;
        let mut alt_table = NO_TABLE;
        for t in (0..self.num_tables).rev() {
            if self.entry(t, indices[t]).tag == tags[t] {
                if provider == NO_TABLE {
                    provider = t as u8;
                } else {
                    alt_table = t as u8;
                    break;
                }
            }
        }

        let alt_pred = if alt_table == NO_TABLE {
            base_pred
        } else {
            self.entry(alt_table as usize, indices[alt_table as usize])
                .predict()
        };
        let (provider_pred, prediction) = if provider == NO_TABLE {
            (base_pred, base_pred)
        } else {
            let e = self.entry(provider as usize, indices[provider as usize]);
            let use_alt = e.is_weak_new() && self.use_alt_on_na >= 0;
            (e.predict(), if use_alt { alt_pred } else { e.predict() })
        };

        Lookup {
            base_index,
            indices,
            tags,
            provider,
            alt_table,
            provider_pred,
            alt_pred,
            prediction,
        }
    }

    /// Shifts one outcome into the long history, updating every folded
    /// register first (they must see the pre-shift state).
    fn shift_outcome(&mut self, outcome: bool) {
        for t in 0..self.num_tables {
            self.idx_folds[t].update(&self.hist, outcome);
            self.tag_folds[t][0].update(&self.hist, outcome);
            self.tag_folds[t][1].update(&self.hist, outcome);
        }
        self.hist.shift_in(outcome);
    }

    fn next_lfsr(&mut self) -> u16 {
        self.lfsr = (self.lfsr >> 1) ^ (0xB400 * (self.lfsr & 1));
        self.lfsr
    }

    fn train(&mut self, cp: &TageCheckpoint, taken: bool) {
        let l = cp.lookup;
        if l.provider != NO_TABLE {
            let p = l.provider as usize;
            let pi = l.indices[p];
            let weak_new = self.entry(p, pi).is_weak_new();

            // chooser: when a weak new provider disagreed with its
            // alternate, learn which of the two to trust next time
            if weak_new && l.provider_pred != l.alt_pred {
                self.use_alt_on_na = if l.alt_pred == taken {
                    (self.use_alt_on_na + 1).min(7)
                } else {
                    (self.use_alt_on_na - 1).max(-8)
                };
            }

            // usefulness tracks whether the provider beat its alternate
            if l.provider_pred != l.alt_pred {
                let e = self.entry_mut(p, pi);
                if l.provider_pred == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }

            self.entry_mut(p, pi).train(taken);

            // keep the fallback fresh while the provider establishes
            // itself, so a failed allocation degrades gracefully
            if weak_new {
                if l.alt_table == NO_TABLE {
                    self.base.update(l.base_index, taken);
                } else {
                    let a = l.alt_table as usize;
                    self.entry_mut(a, l.indices[a]).train(taken);
                }
            }
        } else {
            self.base.update(l.base_index, taken);
        }

        // allocate a longer-history entry on a TAGE misprediction
        if l.prediction != taken {
            let above = if l.provider == NO_TABLE {
                0
            } else {
                l.provider as usize + 1
            };
            if above < self.num_tables {
                // randomize the first candidate so one hot slot doesn't
                // monopolize allocations
                let skip = usize::from(self.next_lfsr() & 1 == 1);
                let start = (above + skip).min(self.num_tables - 1);
                let mut allocated = false;
                for t in start..self.num_tables {
                    let e = self.entry_mut(t, l.indices[t]);
                    if e.useful == 0 {
                        *e = TageEntry {
                            ctr: if taken { 0 } else { -1 },
                            tag: l.tags[t],
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // every candidate defended itself: decay them so a
                    // future allocation can succeed
                    for t in start..self.num_tables {
                        let e = self.entry_mut(t, l.indices[t]);
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
    }
}

/// History length of table `t` in a geometric series from
/// `MIN_HISTORY` to `max_history` across `tables` tables.
fn geometric_length(t: u32, tables: u32, max_history: u32) -> u32 {
    if tables == 1 {
        return max_history;
    }
    let ratio = (f64::from(max_history) / f64::from(MIN_HISTORY)).powf(1.0 / f64::from(tables - 1));
    let len = f64::from(MIN_HISTORY) * ratio.powi(t as i32);
    (len + 0.5) as u32
}

impl BranchPredictor for Tage {
    fn name(&self) -> String {
        format!(
            "{}tage-{}/{}/{}",
            if self.predicate { "p" } else { "" },
            self.num_tables,
            self.index_bits,
            self.max_history
        )
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        if self.predicate {
            self.pred_hist.drain_visible(branch.index);
        }
        self.lookup(branch.pc).prediction
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        if self.predicate {
            // idempotent re-drain: predict already ran at this index
            self.pred_hist.drain_visible(branch.index);
        }
        let lookup = self.lookup(branch.pc);
        self.checkpoints.push_back(TageCheckpoint {
            hist: self.hist,
            idx_folds: self.idx_folds,
            tag_folds: self.tag_folds,
            lookup,
        });
        self.shift_outcome(predicted);
    }

    fn commit(&mut self, _branch: &BranchInfo, taken: bool) {
        let cp = self
            .checkpoints
            .pop_front()
            .expect("tage commit without a matching speculate");
        self.train(&cp, taken);
    }

    fn squash(&mut self, _branch: &BranchInfo, taken: bool) {
        let cp = *self
            .checkpoints
            .front()
            .expect("tage squash without a matching speculate");
        self.hist = cp.hist;
        self.idx_folds = cp.idx_folds;
        self.tag_folds = cp.tag_folds;
        self.shift_outcome(taken);
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
        let entry_bits = 3 + TAG_BITS as usize + 2;
        self.base.storage_bits()
            + self.entries.len() * entry_bits
            + self.hist.storage_bits()
            + 4 // use_alt_on_na
            + 16 // lfsr
            + if self.predicate {
                self.pred_hist.storage_bits()
            } else {
                0
            }
    }
}

impl HistoryInsert for Tage {
    fn insert_history_bit(&mut self, outcome: bool) {
        self.shift_outcome(outcome);
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
    fn name_encodes_geometry() {
        assert_eq!(Tage::new(4, 10, 64).name(), "tage-4/10/64");
        assert_eq!(
            Tage::new(6, 11, 128).predicate_aware().name(),
            "ptage-6/11/128"
        );
    }

    #[test]
    fn geometric_series_spans_min_to_max() {
        let t = Tage::new(4, 10, 64);
        assert_eq!(t.lens[0], MIN_HISTORY);
        assert_eq!(t.lens[3], 64);
        assert!(t.lens.windows(2).take(3).all(|w| w[0] < w[1]));
        // single table degenerates to the full history
        assert_eq!(Tage::new(1, 8, 32).lens[0], 32);
    }

    #[test]
    #[should_panic(expected = "tage max history")]
    fn history_too_short_for_series_rejected() {
        let _ = Tage::new(8, 10, 8);
    }

    #[test]
    fn learns_a_long_irregular_period() {
        // period-23 pattern: beyond a bimodal, learnable from history
        let pattern: Vec<bool> = (0..23).map(|i| (0x5A_F3F2u32 >> i) & 1 == 1).collect();
        let mut tage = Tage::new(4, 10, 64);
        let mut wrong_tail = 0;
        for i in 0..4000usize {
            let taken = pattern[i % 23];
            let b = info(0x40, i as u64);
            let predicted = tage.predict(&b);
            if i >= 3000 && predicted != taken {
                wrong_tail += 1;
            }
            tage.update(&b, taken);
        }
        assert!(
            wrong_tail <= 10,
            "tage should lock onto a period-23 pattern, {wrong_tail}/1000 wrong"
        );
    }

    #[test]
    fn squash_repair_equals_correct_speculation() {
        let mut a = Tage::new(4, 8, 48);
        // warm up with some state so the test isn't on a blank predictor
        for i in 0..200u64 {
            let b = info(0x10 + (i % 7) as u32 * 4, i);
            a.update(&b, i % 3 == 0);
        }
        let mut b = a.clone();

        let branch = info(0x99, 1000);
        let taken = true;
        // a: mispredicted path — speculate wrong, squash, commit
        a.speculate(&branch, !taken);
        a.squash(&branch, taken);
        a.commit(&branch, taken);
        // b: correct path — speculate right, commit
        b.update(&branch, taken);
        assert_eq!(a, b, "squash repair must fully erase the wrong-path shift");
    }

    #[test]
    fn predict_is_pure() {
        let mut t = Tage::new(4, 8, 48);
        for i in 0..100u64 {
            t.update(&info(0x20, i), i % 2 == 0);
        }
        let before = t.clone();
        let p1 = t.predict(&info(0x20, 200));
        let p2 = t.predict(&info(0x20, 200));
        assert_eq!(p1, p2);
        assert_eq!(t, before);
    }

    #[test]
    fn predicate_variant_reads_predicate_context() {
        // The branch outcome equals the most recent predicate value, and
        // the predicate stream is pseudo-random: the outcome history is
        // then uninformative noise (plain TAGE hovers near 50%), while
        // ptage sees the deciding bit in its predicate-history feature.
        let run = |predicate: bool| -> u32 {
            let mut t = Tage::new(4, 10, 64);
            if predicate {
                t = t.predicate_aware();
            }
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut wrong_tail = 0;
            for i in 0..6000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let value = x >> 63 == 1;
                t.on_pred_write(&write(i * 20, value));
                let b = info(0x40, i * 20 + DEFAULT_RESOLVE_LATENCY + 2);
                let predicted = t.predict(&b);
                if i >= 4000 && predicted != value {
                    wrong_tail += 1;
                }
                t.update(&b, value);
            }
            wrong_tail
        };
        let ptage = run(true);
        let plain = run(false);
        assert!(
            ptage * 2 < plain,
            "ptage ({ptage}/2000 wrong) should beat tage ({plain}/2000) decisively"
        );
    }

    #[test]
    fn storage_accounts_for_predicate_register() {
        let plain = Tage::new(4, 10, 64);
        let pred = Tage::new(4, 10, 64).predicate_aware();
        assert_eq!(
            pred.storage_bits(),
            plain.storage_bits() + PredicateHistory::new(0).storage_bits()
        );
        // 4 tables * 1024 entries * 16 bits + 2048-bit base + history &c.
        assert!(plain.storage_bits() > 4 * 1024 * 16);
    }

    #[test]
    #[should_panic(expected = "commit without a matching speculate")]
    fn unbalanced_commit_rejected() {
        Tage::new(2, 6, 16).commit(&info(0, 0), true);
    }
}
