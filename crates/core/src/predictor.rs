//! The predictor interface and prediction metrics.

use predbranch_sim::{BranchEvent, PredKnowledge, PredWriteEvent, PredicateScoreboard};
use predbranch_stats::{Counter, Ratio};

/// The fetch-time view of a conditional branch presented to a predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Static location of the branch.
    pub pc: u32,
    /// Branch target (for static direction heuristics).
    pub target: u32,
    /// The guard predicate register.
    pub guard: predbranch_isa::PredReg,
    /// The if-converted region the branch belongs to, if region-based.
    pub region: Option<u16>,
    /// Dynamic fetch index, used for timing (delayed insertions).
    pub index: u64,
    /// What the fetch stage knows about the guard's value: the predicate
    /// scoreboard's answer for `guard` at `index`. It is the only
    /// scoreboard fact a predictor reads (the squash filter's trigger).
    pub guard_knowledge: PredKnowledge,
}

impl BranchInfo {
    /// Builds the fetch-time view of a dynamic branch event, reading the
    /// guard's knowledge from `scoreboard` as it stands at the branch's
    /// fetch.
    pub fn from_event(event: &BranchEvent, scoreboard: &PredicateScoreboard) -> Self {
        BranchInfo {
            pc: event.pc,
            target: event.target,
            guard: event.guard,
            region: event.region,
            index: event.index,
            guard_knowledge: scoreboard.query(event.guard, event.index),
        }
    }

    /// Whether the branch jumps backwards (loop-shaped).
    pub(crate) fn is_backward(&self) -> bool {
        self.target <= self.pc
    }
}

/// A dynamic branch-direction predictor with a speculative-update
/// lifecycle.
///
/// Predictors are driven by [`crate::PredictionHarness`] and
/// [`crate::GangHarness`] through four phases, mirroring what real front
/// ends do (speculative history update with checkpoint/repair) instead of
/// the older idealized train-at-predict loop:
///
/// 1. **`predict`** — called at fetch. Must not change predictor state.
///    No method takes the predicate scoreboard: what fetch knows about
///    the branch's guard travels in [`BranchInfo::guard_knowledge`], and
///    a predictor that needs more predicate state (PGU's delayed
///    insertions, the oracle's architectural values) builds it from
///    [`BranchPredictor::on_pred_write`].
/// 2. **`speculate`** — called immediately after `predict` with the
///    *predicted* direction. The predictor checkpoints whatever state the
///    branch will later need to train or repair (history registers, BHT
///    entries, component predictions) and shifts the predicted outcome
///    into its speculative history, so younger branches predict against
///    the speculated path.
/// 3. **`commit`** — called once per speculated branch, in fetch order,
///    after the harness's retire latency elapses. Pops the oldest
///    checkpoint and trains the tables with the *fetch-time* state it
///    recorded; the speculative history is left alone (it already holds
///    the outcome — correct speculation, or the repair made by
///    `squash`).
/// 4. **`squash`** — called instead of nothing, right before `commit`,
///    when the branch was mispredicted: rolls the speculative state back
///    to the oldest checkpoint and shifts in the correct outcome. The
///    harness flushes all younger in-flight branches before a squash, so
///    at squash time the squashed branch holds the oldest (and only)
///    outstanding checkpoint. `squash` must not pop the checkpoint — the
///    `commit` that follows does.
///
/// Every `speculate` is balanced by exactly one `commit`, in the same
/// order — commit order equals fetch order.
///
/// The provided [`BranchPredictor::update`] runs `speculate` + `commit`
/// back to back, which *is* the idealized immediate-update methodology;
/// a harness with retire latency 0 is equivalent to it event for event
/// (the latency-0 equivalence guarantee the golden parity tests pin
/// down).
///
/// Predicate-definition events are forwarded through
/// [`BranchPredictor::on_pred_write`] for predictors (like
/// [`crate::Pgu`]) that consume them; such a predictor says so through
/// [`BranchPredictor::wants_pred_writes`], and a gang delivers writes to
/// no other lane.
pub trait BranchPredictor {
    /// A short human-readable name (used in table rows).
    fn name(&self) -> String;

    /// Predicts the branch direction: `true` = taken.
    fn predict(&mut self, branch: &BranchInfo) -> bool;

    /// Checkpoints repair state for the fetched branch and speculatively
    /// applies the predicted direction to the predictor's history.
    ///
    /// The default is for predictors with no speculative state (static,
    /// oracle, per-PC counters): nothing to checkpoint, nothing to
    /// shift.
    fn speculate(&mut self, _branch: &BranchInfo, _predicted: bool) {}

    /// Retires the oldest speculated branch: trains the tables on the
    /// resolved outcome using the checkpointed fetch-time state.
    fn commit(&mut self, branch: &BranchInfo, taken: bool);

    /// Repairs a misprediction: restores the speculative state to the
    /// oldest checkpoint and shifts in the correct outcome. Always
    /// followed by the branch's `commit`.
    ///
    /// The default is for predictors whose `speculate` is a no-op.
    fn squash(&mut self, _branch: &BranchInfo, _taken: bool) {}

    /// Trains on the resolved outcome with zero retire latency:
    /// `speculate` + `commit` back to back. This is the idealized
    /// immediate-update convenience for drivers that don't model an
    /// in-flight window (unit and property tests).
    fn update(&mut self, branch: &BranchInfo, taken: bool) {
        self.speculate(branch, taken);
        self.commit(branch, taken);
    }

    /// Observes a predicate definition (default: ignored).
    fn on_pred_write(&mut self, _write: &PredWriteEvent) {}

    /// Whether [`BranchPredictor::on_pred_write`] can change what this
    /// predictor does. A predictor answering `false` must ignore every
    /// write, so a gang may leave writes out of its lane entirely.
    /// Wrappers answer for their inner predictor.
    fn wants_pred_writes(&self) -> bool {
        false
    }

    /// Hardware budget of the prediction state, in bits.
    fn storage_bits(&self) -> usize;

    /// Runs `visitor` against this predictor's concrete type. The default
    /// visits `self`; a predictor that dispatches to one of several
    /// payloads (an enum) visits the payload instead, so a harness loop
    /// handed over as a visitor pays the dispatch once per loop rather
    /// than once per call.
    fn accept<V: PredictorVisitor>(&mut self, visitor: V) -> V::Output
    where
        Self: Sized,
    {
        visitor.visit(self)
    }
}

/// Code that runs against a predictor's concrete type, through
/// [`BranchPredictor::accept`].
pub trait PredictorVisitor {
    /// What the visit returns.
    type Output;

    /// Runs against `predictor`.
    fn visit<P: BranchPredictor>(self, predictor: &mut P) -> Self::Output;
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        (**self).predict(branch)
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        (**self).speculate(branch, predicted)
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).commit(branch, taken)
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).squash(branch, taken)
    }

    fn update(&mut self, branch: &BranchInfo, taken: bool) {
        (**self).update(branch, taken)
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        (**self).on_pred_write(write)
    }

    fn wants_pred_writes(&self) -> bool {
        (**self).wants_pred_writes()
    }

    fn storage_bits(&self) -> usize {
        (**self).storage_bits()
    }
}

/// Predictors that can accept an externally supplied history bit — the
/// insertion point the PGU mechanism uses to shift predicate outcomes
/// into a predictor's notion of "recent history".
///
/// For the classic single-register predictors this shifts the bit into
/// their [`GlobalHistory`](crate::GlobalHistory) register; predictors
/// with richer history state (TAGE's folded geometric histories, the
/// multiperspective perceptron's several views) implement it by threading
/// the bit through every structure that tracks the global outcome stream.
pub trait HistoryInsert {
    /// Shifts `outcome` into the predictor's speculative global history,
    /// exactly as if a branch with that outcome had been fetched.
    fn insert_history_bit(&mut self, outcome: bool);
}

/// A static (no-state) predictor, the weakest baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticPredictor {
    /// Always predict not-taken.
    NotTaken,
    /// Always predict taken.
    Taken,
    /// Backward-taken, forward-not-taken.
    Btfn,
}

impl BranchPredictor for StaticPredictor {
    fn name(&self) -> String {
        match self {
            StaticPredictor::NotTaken => "static-nt".to_string(),
            StaticPredictor::Taken => "static-t".to_string(),
            StaticPredictor::Btfn => "static-btfn".to_string(),
        }
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        match self {
            StaticPredictor::NotTaken => false,
            StaticPredictor::Taken => true,
            StaticPredictor::Btfn => branch.is_backward(),
        }
    }

    fn commit(&mut self, _: &BranchInfo, _: bool) {}

    fn storage_bits(&self) -> usize {
        0
    }
}

/// Branch/misprediction counters for one branch class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Dynamic branches in the class.
    pub branches: Counter,
    /// Mispredicted branches in the class.
    pub mispredictions: Counter,
}

impl ClassCounts {
    /// Misprediction rate for the class.
    pub fn misp_rate(&self) -> Ratio {
        Ratio::of(self.mispredictions.get(), self.branches.get())
    }

    /// Prediction accuracy for the class.
    pub fn accuracy(&self) -> Ratio {
        self.misp_rate().complement()
    }
}

/// Per-run prediction metrics split by branch class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionMetrics {
    /// All conditional branches.
    pub all: ClassCounts,
    /// Region-based conditional branches.
    pub region: ClassCounts,
    /// Conditional branches outside regions.
    pub non_region: ClassCounts,
    /// Branches fetched with a known-false guard (squash-filter
    /// opportunities), regardless of the predictor used.
    pub known_false_guard: Counter,
    /// Of those, how many the predictor got wrong (0 whenever the squash
    /// filter is active — its defining guarantee).
    pub known_false_mispredicted: Counter,
    /// Dynamic predicate definitions observed.
    pub pred_writes: Counter,
}

impl PredictionMetrics {
    /// Mispredictions per 1000 dynamic instructions (caller supplies the
    /// instruction count from [`predbranch_sim::RunSummary`]).
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.all.mispredictions.get() as f64 * 1000.0 / instructions as f64
        }
    }

    /// Fraction of conditional branches covered by the squash filter.
    pub fn filter_coverage(&self) -> Ratio {
        Ratio::of(self.known_false_guard.get(), self.all.branches.get())
    }

    /// Counts a fetched conditional branch in its classes, whatever the
    /// prediction: the counts every lane over one stream shares.
    pub(crate) fn count_fetch(&mut self, branch: &BranchInfo) {
        self.all.branches.increment();
        if branch.region.is_some() {
            self.region.branches.increment();
        } else {
            self.non_region.branches.increment();
        }
        if branch.guard_knowledge.is_known_false() {
            self.known_false_guard.increment();
        }
    }

    /// Counts a mispredicted branch in its classes: the counts that are
    /// a lane's own.
    pub(crate) fn count_miss(&mut self, branch: &BranchInfo) {
        self.all.mispredictions.increment();
        if branch.region.is_some() {
            self.region.mispredictions.increment();
        } else {
            self.non_region.mispredictions.increment();
        }
        if branch.guard_knowledge.is_known_false() {
            self.known_false_mispredicted.increment();
        }
    }

    /// A lane's misprediction counts completed with the counts its stream
    /// shares with every other lane: branches per class, known-false
    /// fetches and predicate writes, taken from `stream`.
    pub(crate) fn with_stream(self, stream: &PredictionMetrics) -> PredictionMetrics {
        let class = |own: ClassCounts, shared: ClassCounts| ClassCounts {
            branches: shared.branches,
            mispredictions: own.mispredictions,
        };
        PredictionMetrics {
            all: class(self.all, stream.all),
            region: class(self.region, stream.region),
            non_region: class(self.non_region, stream.non_region),
            known_false_guard: stream.known_false_guard,
            known_false_mispredicted: self.known_false_mispredicted,
            pred_writes: stream.pred_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;

    fn info(pc: u32, target: u32) -> BranchInfo {
        BranchInfo {
            pc,
            target,
            guard: PredReg::new(1).unwrap(),
            region: None,
            index: 0,
            guard_knowledge: PredKnowledge::Unknown,
        }
    }

    #[test]
    fn branch_info_backwardness() {
        assert!(info(10, 5).is_backward());
        assert!(info(10, 10).is_backward());
        assert!(!info(10, 11).is_backward());
    }

    #[test]
    fn static_predictors() {
        assert!(!StaticPredictor::NotTaken.predict(&info(0, 5)));
        assert!(StaticPredictor::Taken.predict(&info(0, 5)));
        assert!(StaticPredictor::Btfn.predict(&info(10, 0)));
        assert!(!StaticPredictor::Btfn.predict(&info(0, 10)));
        assert_eq!(StaticPredictor::Btfn.storage_bits(), 0);
    }

    #[test]
    fn class_counts_rates() {
        let c = ClassCounts {
            branches: Counter::with_value(4),
            mispredictions: Counter::with_value(2),
        };
        assert_eq!(c.misp_rate().percent(), 50.0);
        assert_eq!(c.accuracy().percent(), 50.0);
    }

    #[test]
    fn metrics_mpki() {
        let mut m = PredictionMetrics::default();
        m.all.mispredictions.add(2);
        assert_eq!(m.mpki(1000), 2.0);
        assert_eq!(m.mpki(0), 0.0);
    }

    #[test]
    fn boxed_predictor_delegates() {
        let mut boxed: Box<dyn BranchPredictor> = Box::new(StaticPredictor::Taken);
        assert_eq!(boxed.name(), "static-t");
        assert!(boxed.predict(&info(0, 1)));
        boxed.update(&info(0, 1), true);
        assert_eq!(boxed.storage_bits(), 0);
    }
}
