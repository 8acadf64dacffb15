//! The streaming event sink that accumulates per-branch joint counts.

use std::collections::BTreeMap;

use predbranch_sim::{
    BranchEvent, EventSink, PendingDefinitions, PredWriteEvent, PredicateScoreboard,
    DEFAULT_RESOLVE_LATENCY,
};
use predbranch_stats::JointDistribution;

use crate::report::{profile, Characterization};
use crate::{GLOBAL_DEPTHS, LOCAL_DEPTHS, PRED_HISTORY_BITS, PRED_VISIBILITY_DELAY};

/// Per-static-branch accumulation state.
#[derive(Debug, Default)]
pub(crate) struct BranchState {
    pub(crate) taken: u64,
    pub(crate) total: u64,
    pub(crate) region: bool,
    /// This branch's own direction history (youngest outcome in bit 0).
    local: u64,
    /// `H(taken | global history)` joint, one per [`GLOBAL_DEPTHS`] entry.
    pub(crate) global_joints: [JointDistribution; GLOBAL_DEPTHS.len()],
    /// `H(taken | local history)` joint, one per [`LOCAL_DEPTHS`] entry.
    pub(crate) local_joints: [JointDistribution; LOCAL_DEPTHS.len()],
    /// `H(taken | fetch-visible predicate state)` joint.
    pub(crate) pred_joint: JointDistribution,
}

/// A streaming [`EventSink`] computing every characterization metric in
/// one pass over a decoded event stream (see the crate docs).
///
/// Feed it events — directly from the executor, through a trace
/// replay, or composed into a tuple sink next to other consumers —
/// then call [`Characterizer::finish`] for the report. Only
/// *conditional* branches are profiled: unconditional branches carry no
/// prediction problem.
#[derive(Debug)]
pub struct Characterizer {
    scoreboard: PredicateScoreboard,
    /// All-conditional-branches direction history (youngest in bit 0).
    global: u64,
    /// The delayed predicate-definition outcome register: the last
    /// [`PRED_HISTORY_BITS`] *fetch-visible* predicate values.
    pred_history: u64,
    /// Definitions not yet visible — the same queue the PGU uses.
    pending: PendingDefinitions,
    per_pc: BTreeMap<u32, BranchState>,
}

impl Characterizer {
    /// Creates a characterizer using the study's default resolve
    /// latency for the guard scoreboard and [`PRED_VISIBILITY_DELAY`]
    /// for the predicate-history register.
    pub fn new() -> Self {
        Characterizer {
            scoreboard: PredicateScoreboard::new(DEFAULT_RESOLVE_LATENCY),
            global: 0,
            pred_history: 0,
            pending: PendingDefinitions::new(PRED_VISIBILITY_DELAY),
            per_pc: BTreeMap::new(),
        }
    }

    /// Consumes the accumulated counts and produces the report. Static
    /// branches appear sorted by pc.
    pub fn finish(self) -> Characterization {
        Characterization::from_states(self.per_pc)
    }
}

impl Default for Characterizer {
    fn default() -> Self {
        Characterizer::new()
    }
}

impl EventSink for Characterizer {
    fn branch(&mut self, event: &BranchEvent) {
        if !event.conditional {
            return;
        }
        self.pending
            .drain_visible(event.index, |value| shift_in(&mut self.pred_history, value));
        // Fetch-visible predicate context: what the scoreboard knows
        // about the guard (known-false / known-true / in-flight), joined
        // with the delayed predicate-outcome register. Using the *raw*
        // architectural guard value here would be degenerate — in this
        // ISA `taken == guard` for conditional branches — so only
        // signals a real front end has at fetch enter the context.
        let know: u64 = match self.scoreboard.query(event.guard, event.index).value() {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        };
        let pred_context =
            (know << PRED_HISTORY_BITS) | (self.pred_history & ((1 << PRED_HISTORY_BITS) - 1));

        let state = self.per_pc.entry(event.pc).or_default();
        for (joint, depth) in state.global_joints.iter_mut().zip(GLOBAL_DEPTHS) {
            joint.record(self.global & ((1 << depth) - 1), event.taken);
        }
        for (joint, depth) in state.local_joints.iter_mut().zip(LOCAL_DEPTHS) {
            joint.record(state.local & ((1 << depth) - 1), event.taken);
        }
        state.pred_joint.record(pred_context, event.taken);
        state.total += 1;
        state.taken += u64::from(event.taken);
        state.region |= event.region.is_some();
        state.local = (state.local << 1) | u64::from(event.taken);
        self.global = (self.global << 1) | u64::from(event.taken);
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.scoreboard.observe(event);
        self.pending
            .observe(event, |value| shift_in(&mut self.pred_history, value));
    }
}

/// Shifts one visible predicate value into the predicate-history
/// register (youngest in bit 0).
fn shift_in(register: &mut u64, value: bool) {
    *register = (*register << 1) | u64::from(value);
}

impl BranchState {
    /// Finalizes this state into a profile (see `report::profile`).
    pub(crate) fn into_profile(self, pc: u32) -> crate::BranchProfile {
        profile(pc, self)
    }
}
