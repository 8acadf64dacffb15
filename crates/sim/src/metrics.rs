//! Event-stream metrics: fetch-time guard knowledge and per-region
//! activity.

use predbranch_stats::{Counter, Histogram, Ratio};

use crate::scoreboard::{PredKnowledge, PredicateScoreboard};
use crate::trace::{BranchEvent, EventSink, PredWriteEvent};

/// Classifies every conditional-branch fetch by what the scoreboard knows
/// about its guard predicate — the coverage data behind the squash
/// false-path filter (paper abstract: branches "known to be guarded with
/// a false predicate" are predicted not-taken with 100% accuracy) — and
/// records how far each branch is fetched from its guard's last
/// definition, the distance that decides whether the guard resolves in
/// time.
///
/// # Examples
///
/// ```
/// use predbranch_sim::GuardKnowledgeStats;
///
/// let g = GuardKnowledgeStats::new(8);
/// assert_eq!(g.known_false().percent(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardKnowledgeStats {
    scoreboard: PredicateScoreboard,
    conditional: Counter,
    known_false: Counter,
    known_true: Counter,
    unknown: Counter,
    /// Among known-false guards, how often the branch was indeed not
    /// taken (must be 100% — checked by tests as a simulator invariant).
    known_false_correct: Counter,
    /// Distance (fetch slots) from a conditional branch's last guard
    /// definition to the branch itself.
    guard_distance: Histogram,
}

impl GuardKnowledgeStats {
    /// Creates stats with the given scoreboard resolve latency.
    pub fn new(resolve_latency: u64) -> Self {
        GuardKnowledgeStats {
            scoreboard: PredicateScoreboard::new(resolve_latency),
            conditional: Counter::new(),
            known_false: Counter::new(),
            known_true: Counter::new(),
            unknown: Counter::new(),
            known_false_correct: Counter::new(),
            guard_distance: Histogram::linear(16, 4),
        }
    }

    /// Fraction of conditional branches fetched with a known-false guard.
    pub fn known_false(&self) -> Ratio {
        Ratio::of(self.known_false.get(), self.conditional.get())
    }

    /// Fraction fetched with a known-true guard.
    pub fn known_true(&self) -> Ratio {
        Ratio::of(self.known_true.get(), self.conditional.get())
    }

    /// Fraction fetched with an unresolved guard.
    pub fn unknown(&self) -> Ratio {
        Ratio::of(self.unknown.get(), self.conditional.get())
    }

    /// Accuracy of "known-false ⇒ not taken" (always 100%; exposed so
    /// tests can assert the invariant end-to-end).
    pub fn known_false_accuracy(&self) -> Ratio {
        Ratio::of(self.known_false_correct.get(), self.known_false.get())
    }

    /// Distribution of guard-definition-to-branch distances over the
    /// conditional branches whose guard was ever written, in fetch slots
    /// (16 buckets of width 4, overflow beyond 64). It does not depend
    /// on the resolve latency.
    pub fn guard_distance(&self) -> &Histogram {
        &self.guard_distance
    }
}

impl EventSink for GuardKnowledgeStats {
    fn branch(&mut self, event: &BranchEvent) {
        if !event.conditional {
            return;
        }
        self.conditional.increment();
        if let Some(d) = self.scoreboard.distance(event.guard, event.index) {
            self.guard_distance.record(d);
        }
        match self.scoreboard.query(event.guard, event.index) {
            PredKnowledge::Known(false) => {
                self.known_false.increment();
                if !event.taken {
                    self.known_false_correct.increment();
                }
            }
            PredKnowledge::Known(true) => self.known_true.increment(),
            PredKnowledge::Unknown => self.unknown.increment(),
        }
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.scoreboard.observe(event);
    }
}

/// Per-region dynamic activity: how often each if-converted region's
/// branches execute and fire — the data behind per-region breakdowns in
/// reports and the `region_branch_study` example.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionActivity {
    per_region: std::collections::BTreeMap<u16, (u64, u64)>, // (branches, taken)
}

impl RegionActivity {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates `(region id, dynamic branches, taken)` in region order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u64, u64)> + '_ {
        self.per_region.iter().map(|(&id, &(b, t))| (id, b, t))
    }

    /// Dynamic region-branch executions for one region.
    pub fn branches(&self, region: u16) -> u64 {
        self.per_region.get(&region).map_or(0, |&(b, _)| b)
    }

    /// Taken fraction of one region's branches.
    pub fn taken_fraction(&self, region: u16) -> Ratio {
        let (b, t) = self.per_region.get(&region).copied().unwrap_or((0, 0));
        Ratio::of(t, b)
    }
}

impl EventSink for RegionActivity {
    fn branch(&mut self, event: &BranchEvent) {
        if let Some(region) = event.region {
            let entry = self.per_region.entry(region).or_insert((0, 0));
            entry.0 += 1;
            if event.taken {
                entry.1 += 1;
            }
        }
    }

    fn pred_write(&mut self, _event: &PredWriteEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::memory::Memory;
    use predbranch_isa::assemble;

    fn run(src: &str, latency: u64) -> GuardKnowledgeStats {
        let program = assemble(src).unwrap();
        let mut exec = Executor::new(&program, Memory::new());
        let mut stats = GuardKnowledgeStats::new(latency);
        exec.run(&mut stats, 1_000_000);
        stats
    }

    const LOOP: &str = r#"
        mov r1 = 0
    loop:
        cmp.lt p1, p2 = r1, 50
        (p1) add r1 = r1, 1
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        (p1) br.region 0, loop
        halt
    "#;

    #[test]
    fn guard_distance_recorded() {
        // cmp at dynamic i, branch at i+10 → distance 10 every iteration,
        // whatever the resolve latency
        for latency in [0, 8] {
            let g = run(LOOP, latency);
            assert_eq!(g.guard_distance().count(), 51);
            assert_eq!(g.guard_distance().mean(), 10.0);
        }
    }

    #[test]
    fn oracle_scoreboard_knows_everything() {
        let g = run(LOOP, 0);
        assert_eq!(g.unknown().percent(), 0.0);
        // the final iteration fetches the branch with p1 known false
        assert_eq!(g.known_false().numerator(), 1);
        assert_eq!(g.known_true().numerator(), 50);
    }

    #[test]
    fn distant_defs_resolve_close_defs_do_not() {
        // def-to-branch distance is 10 slots
        let g = run(LOOP, 10);
        assert_eq!(g.unknown().numerator(), 0);
        let g = run(LOOP, 11);
        assert_eq!(g.unknown().numerator(), 51);
    }

    #[test]
    fn known_false_is_always_not_taken() {
        let g = run(LOOP, 4);
        assert_eq!(g.known_false_accuracy().percent(), 100.0);
    }

    #[test]
    fn region_activity_tracks_per_region_counts() {
        let program = assemble(
            "start: cmp.lt p1, p2 = r1, 3\n (p1) add r1 = r1, 1\n (p1) br.region 4, start\n (p2) br.region 7, end\nend: halt",
        )
        .unwrap();
        let mut activity = RegionActivity::new();
        Executor::new(&program, Memory::new()).run(&mut activity, 10_000);
        assert_eq!(activity.iter().count(), 2);
        assert_eq!(activity.branches(4), 4);
        assert_eq!(activity.taken_fraction(4).percent(), 75.0);
        assert_eq!(activity.branches(7), 1);
        assert_eq!(activity.taken_fraction(7).percent(), 100.0);
        assert_eq!(activity.branches(9), 0);
    }
}
