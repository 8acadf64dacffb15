//! The predicate scoreboard: what the front end knows at fetch time.

use std::collections::VecDeque;

use predbranch_isa::{PredReg, NUM_PREDS};

use crate::trace::PredWriteEvent;

/// The visibility rule every fetch-time consumer of predicate
/// definitions shares: the definition at dynamic index `def_index` is
/// visible to a branch fetched at `fetch_index` once `delay` fetch slots
/// separate them.
fn is_visible(def_index: u64, fetch_index: u64, delay: u64) -> bool {
    fetch_index.saturating_sub(def_index) >= delay
}

/// What the fetch stage knows about a predicate register's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredKnowledge {
    /// The last definition has resolved; the value is architecturally
    /// certain at fetch.
    Known(bool),
    /// A definition is still in flight: the value cannot be trusted.
    Unknown,
}

impl PredKnowledge {
    /// The value if known.
    pub fn value(&self) -> Option<bool> {
        match *self {
            PredKnowledge::Known(v) => Some(v),
            PredKnowledge::Unknown => None,
        }
    }

    /// Whether the value is known to be false — the squash false-path
    /// filter's trigger condition.
    pub fn is_known_false(&self) -> bool {
        matches!(self, PredKnowledge::Known(false))
    }
}

/// Models when predicate definitions become visible to the fetch stage.
///
/// A definition written by the compare at dynamic index `d` is considered
/// resolved for a branch fetched at dynamic index `f` when
/// `f - d >= resolve_latency` (in fetch slots). With `resolve_latency ==
/// 0` the scoreboard is an oracle (every value known instantly); larger
/// latencies model the pipeline depth between a compare's execute stage
/// and the fetch stage consuming its result.
///
/// Predicates never written are known-false (their architectural reset
/// value), and `p0` is always known-true.
///
/// # Examples
///
/// ```
/// use predbranch_sim::{PredKnowledge, PredicateScoreboard};
/// use predbranch_isa::PredReg;
///
/// let p1 = PredReg::new(1).unwrap();
/// let mut sb = PredicateScoreboard::new(4);
/// sb.record_write(p1, true, 10);
/// assert_eq!(sb.query(p1, 12), PredKnowledge::Unknown);   // 2 < 4
/// assert_eq!(sb.query(p1, 14), PredKnowledge::Known(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateScoreboard {
    resolve_latency: u64,
    last_write: [Option<Write>; NUM_PREDS],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Write {
    index: u64,
    value: bool,
    /// Resolved at write time (an `unc` clear under an already-known-false
    /// guard) — visible to fetch immediately, enabling false-path
    /// chaining.
    immediate: bool,
}

impl PredicateScoreboard {
    /// Creates a scoreboard with the given resolve latency (fetch slots
    /// between a compare and the first branch that can see its result).
    pub fn new(resolve_latency: u64) -> Self {
        PredicateScoreboard {
            resolve_latency,
            last_write: [None; NUM_PREDS],
        }
    }

    /// The configured resolve latency.
    pub fn resolve_latency(&self) -> u64 {
        self.resolve_latency
    }

    /// Records a predicate write at dynamic index `index`, resolving
    /// after the configured latency.
    pub fn record_write(&mut self, preg: PredReg, value: bool, index: u64) {
        self.record(preg, value, index, false);
    }

    /// Observes a full predicate-write event, applying **false-path
    /// chaining**: an `unc`-type clear performed under a guard that was
    /// *already known false* at the compare's fetch does not depend on the
    /// compare's data operands, so its result (false) is visible to fetch
    /// immediately instead of after the resolve latency. Because the
    /// cleared predicate is itself immediately known-false, a whole chain
    /// of guards along a predicated-off path resolves at once — which is
    /// what lets the squash false-path filter kill every branch on the
    /// false path, however close its own defining compare is.
    pub fn observe(&mut self, event: &PredWriteEvent) {
        let immediate = !event.guard_value && self.query(event.guard, event.index).is_known_false();
        debug_assert!(
            event.guard_value || !event.value,
            "false-guard writes clear"
        );
        self.record(event.preg, event.value, event.index, immediate);
    }

    fn record(&mut self, preg: PredReg, value: bool, index: u64, immediate: bool) {
        if !preg.is_always_true() {
            self.last_write[preg.index() as usize] = Some(Write {
                index,
                value,
                immediate,
            });
        }
    }

    /// Queries what fetch knows about `preg` at dynamic index
    /// `fetch_index`.
    pub fn query(&self, preg: PredReg, fetch_index: u64) -> PredKnowledge {
        if preg.is_always_true() {
            return PredKnowledge::Known(true);
        }
        match self.last_write[preg.index() as usize] {
            None => PredKnowledge::Known(false),
            Some(w) => {
                if w.immediate || is_visible(w.index, fetch_index, self.resolve_latency) {
                    PredKnowledge::Known(w.value)
                } else {
                    PredKnowledge::Unknown
                }
            }
        }
    }

    /// The dynamic distance from the last write of `preg` to
    /// `fetch_index`, if it was ever written.
    pub(crate) fn distance(&self, preg: PredReg, fetch_index: u64) -> Option<u64> {
        self.last_write[preg.index() as usize].map(|w| fetch_index.saturating_sub(w.index))
    }
}

/// Predicate definitions on their way to the front end, in program
/// order: the delay line that PGU's history insertion, the
/// predicate-history register of `ptage`/`pmpp` and the characterizer's
/// predicate context all read through.
///
/// Each definition's value is handed out, oldest first, once a branch is
/// fetched `delay` slots after the defining compare — the rule
/// [`PredicateScoreboard::query`] applies to a single register. With
/// `delay == 0` the value is handed out by [`PendingDefinitions::observe`]
/// itself, as the compare executes, so nothing is ever queued.
///
/// # Examples
///
/// ```
/// use predbranch_isa::PredReg;
/// use predbranch_sim::{PendingDefinitions, PredWriteEvent};
///
/// let write = PredWriteEvent {
///     pc: 0,
///     preg: PredReg::new(1).unwrap(),
///     value: true,
///     index: 10,
///     guard: PredReg::TRUE,
///     guard_value: true,
/// };
/// let mut seen = Vec::new();
/// let mut pending = PendingDefinitions::new(4);
/// pending.observe(&write, |v| seen.push(v));
/// pending.drain_visible(13, |v| seen.push(v)); // 3 < 4: still in flight
/// assert!(seen.is_empty());
/// pending.drain_visible(14, |v| seen.push(v));
/// assert_eq!(seen, [true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingDefinitions {
    delay: u64,
    /// `(definition index, value)`, oldest at the front.
    pending: VecDeque<(u64, bool)>,
}

impl PendingDefinitions {
    /// Creates an empty queue whose definitions become visible `delay`
    /// fetch slots after the defining compare.
    pub fn new(delay: u64) -> Self {
        PendingDefinitions {
            delay,
            pending: VecDeque::new(),
        }
    }

    /// The configured visibility delay, in fetch slots.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// Takes in one predicate definition. With no delay its value goes
    /// to `visible` at once; otherwise it waits for
    /// [`PendingDefinitions::drain_visible`].
    pub fn observe(&mut self, write: &PredWriteEvent, mut visible: impl FnMut(bool)) {
        if self.delay == 0 {
            visible(write.value);
        } else {
            self.pending.push_back((write.index, write.value));
        }
    }

    /// Hands every definition visible to a branch fetched at
    /// `fetch_index` to `visible`, oldest first. A second drain at the
    /// same index hands out nothing.
    pub fn drain_visible(&mut self, fetch_index: u64, mut visible: impl FnMut(bool)) {
        while let Some(&(def_index, value)) = self.pending.front() {
            if !is_visible(def_index, fetch_index, self.delay) {
                break;
            }
            self.pending.pop_front();
            visible(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u8) -> PredReg {
        PredReg::new(i).unwrap()
    }

    #[test]
    fn p0_always_known_true() {
        let sb = PredicateScoreboard::new(100);
        assert_eq!(sb.query(PredReg::TRUE, 0), PredKnowledge::Known(true));
    }

    #[test]
    fn unwritten_predicates_known_false() {
        let sb = PredicateScoreboard::new(8);
        assert_eq!(sb.query(p(5), 1000), PredKnowledge::Known(false));
        assert!(sb.query(p(5), 0).is_known_false());
    }

    #[test]
    fn in_flight_definition_is_unknown() {
        let mut sb = PredicateScoreboard::new(8);
        sb.record_write(p(1), true, 100);
        for fetch in 100..108 {
            assert_eq!(sb.query(p(1), fetch), PredKnowledge::Unknown);
        }
        assert_eq!(sb.query(p(1), 108), PredKnowledge::Known(true));
    }

    #[test]
    fn zero_latency_is_an_oracle() {
        let mut sb = PredicateScoreboard::new(0);
        sb.record_write(p(2), false, 7);
        assert_eq!(sb.query(p(2), 7), PredKnowledge::Known(false));
    }

    #[test]
    fn newer_write_shadows_older() {
        let mut sb = PredicateScoreboard::new(4);
        sb.record_write(p(1), true, 0);
        sb.record_write(p(1), false, 10);
        // the old resolved value must NOT leak: a def is in flight
        assert_eq!(sb.query(p(1), 12), PredKnowledge::Unknown);
        assert_eq!(sb.query(p(1), 14), PredKnowledge::Known(false));
    }

    #[test]
    fn writes_to_p0_ignored() {
        let mut sb = PredicateScoreboard::new(4);
        sb.record_write(PredReg::TRUE, false, 0);
        assert_eq!(sb.query(PredReg::TRUE, 100), PredKnowledge::Known(true));
    }

    #[test]
    fn distance_tracks_last_write() {
        let mut sb = PredicateScoreboard::new(4);
        assert_eq!(sb.distance(p(3), 50), None);
        sb.record_write(p(3), true, 40);
        assert_eq!(sb.distance(p(3), 50), Some(10));
    }

    #[test]
    fn unc_clear_under_known_false_guard_resolves_immediately() {
        let mut sb = PredicateScoreboard::new(8);
        // p1 written false long ago: resolved
        sb.record_write(p(1), false, 0);
        // (p1) cmp.unc clears p2 at index 100 with p1 known false
        sb.observe(&PredWriteEvent {
            pc: 5,
            preg: p(2),
            value: false,
            index: 100,
            guard: p(1),
            guard_value: false,
        });
        // a branch fetched one slot later already knows p2 is false
        assert_eq!(sb.query(p(2), 101), PredKnowledge::Known(false));
    }

    #[test]
    fn false_path_chaining_propagates() {
        let mut sb = PredicateScoreboard::new(8);
        sb.record_write(p(1), false, 0);
        // chain: p1 → p2 → p3, all unc clears one slot apart
        for (guard, target, index) in [(1u8, 2u8, 100u64), (2, 3, 101)] {
            sb.observe(&PredWriteEvent {
                pc: 0,
                preg: p(target),
                value: false,
                index,
                guard: p(guard),
                guard_value: false,
            });
        }
        assert_eq!(sb.query(p(3), 102), PredKnowledge::Known(false));
    }

    #[test]
    fn unc_clear_under_unresolved_guard_waits() {
        let mut sb = PredicateScoreboard::new(8);
        // p1 written just now: in flight
        sb.record_write(p(1), false, 99);
        sb.observe(&PredWriteEvent {
            pc: 0,
            preg: p(2),
            value: false,
            index: 100,
            guard: p(1),
            guard_value: false,
        });
        assert_eq!(sb.query(p(2), 101), PredKnowledge::Unknown);
        assert_eq!(sb.query(p(2), 108), PredKnowledge::Known(false));
    }

    #[test]
    fn true_guard_writes_never_resolve_early() {
        let mut sb = PredicateScoreboard::new(8);
        sb.observe(&PredWriteEvent {
            pc: 0,
            preg: p(2),
            value: true,
            index: 100,
            guard: PredReg::TRUE,
            guard_value: true,
        });
        assert_eq!(sb.query(p(2), 101), PredKnowledge::Unknown);
    }

    #[test]
    fn knowledge_value_accessor() {
        assert_eq!(PredKnowledge::Known(true).value(), Some(true));
        assert_eq!(PredKnowledge::Unknown.value(), None);
        assert!(!PredKnowledge::Known(true).is_known_false());
        assert!(!PredKnowledge::Unknown.is_known_false());
    }

    fn def(index: u64, value: bool) -> PredWriteEvent {
        PredWriteEvent {
            pc: 0,
            preg: p(1),
            value,
            index,
            guard: PredReg::TRUE,
            guard_value: true,
        }
    }

    #[test]
    fn pending_without_delay_hands_out_at_observe() {
        let mut pending = PendingDefinitions::new(0);
        let mut seen = Vec::new();
        pending.observe(&def(5, true), |v| seen.push(v));
        pending.observe(&def(6, false), |v| seen.push(v));
        assert_eq!(seen, [true, false]);
        pending.drain_visible(100, |v| seen.push(v));
        assert_eq!(seen, [true, false], "nothing was queued");
    }

    #[test]
    fn pending_definition_waits_for_its_delay() {
        let mut pending = PendingDefinitions::new(3);
        let mut seen = Vec::new();
        pending.observe(&def(20, true), |v| seen.push(v));
        assert!(seen.is_empty());
        for fetch in [0, 20, 21, 22] {
            pending.drain_visible(fetch, |v| seen.push(v));
            assert!(seen.is_empty(), "visible at {fetch}");
        }
        pending.drain_visible(23, |v| seen.push(v));
        assert_eq!(seen, [true]);
    }

    #[test]
    fn pending_drains_oldest_first_and_once() {
        let mut pending = PendingDefinitions::new(2);
        let mut seen = Vec::new();
        for (index, value) in [(0, true), (1, false), (2, true), (5, false)] {
            pending.observe(&def(index, value), |v| seen.push(v));
        }
        pending.drain_visible(4, |v| seen.push(v));
        assert_eq!(seen, [true, false, true], "defs 0, 1, 2 visible at 4");
        pending.drain_visible(4, |v| seen.push(v));
        assert_eq!(seen, [true, false, true], "second drain at 4");
        pending.drain_visible(7, |v| seen.push(v));
        assert_eq!(seen, [true, false, true, false]);
    }
}
