//! Per-branch misprediction attribution.

use std::collections::BTreeMap;

use predbranch_sim::{BranchEvent, EventSink, PredWriteEvent, PredicateScoreboard};

use crate::predictor::{BranchInfo, BranchPredictor, ClassCounts};

/// Attributes mispredictions to static branches: wraps a predictor like
/// [`crate::PredictionHarness`] but keeps per-PC counters, so analyses
/// can answer *which* branches the techniques fix.
///
/// # Examples
///
/// ```
/// use predbranch_core::{Gshare, HotBranches};
///
/// let hot = HotBranches::new(Gshare::new(10, 10), 8);
/// assert!(hot.ranked().is_empty());
/// ```
#[derive(Debug)]
pub struct HotBranches<P> {
    predictor: P,
    scoreboard: PredicateScoreboard,
    per_pc: BTreeMap<u32, ClassCounts>,
}

impl<P: BranchPredictor> HotBranches<P> {
    /// Creates the attribution harness with the given resolve latency.
    pub fn new(predictor: P, resolve_latency: u64) -> Self {
        HotBranches {
            predictor,
            scoreboard: PredicateScoreboard::new(resolve_latency),
            per_pc: BTreeMap::new(),
        }
    }

    /// Static branches ranked by misprediction count (descending), as
    /// `(pc, counts)` pairs.
    pub fn ranked(&self) -> Vec<(u32, ClassCounts)> {
        let mut v: Vec<(u32, ClassCounts)> = self.per_pc.iter().map(|(&pc, &c)| (pc, c)).collect();
        v.sort_by(|a, b| {
            b.1.mispredictions
                .get()
                .cmp(&a.1.mispredictions.get())
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// The counters for one static branch, if it executed.
    pub fn at(&self, pc: u32) -> Option<ClassCounts> {
        self.per_pc.get(&pc).copied()
    }

    /// Total mispredictions across all branches.
    pub fn total_mispredictions(&self) -> u64 {
        self.per_pc.values().map(|c| c.mispredictions.get()).sum()
    }
}

impl<P: BranchPredictor> EventSink for HotBranches<P> {
    fn branch(&mut self, event: &BranchEvent) {
        if !event.conditional {
            return;
        }
        let info = BranchInfo::from_event(event, &self.scoreboard);
        let predicted = self.predictor.predict(&info);
        self.per_pc
            .entry(event.pc)
            .or_default()
            .record(predicted == event.taken);
        // Attribution drives the lifecycle at retire latency 0: each
        // branch speculates on its real outcome and commits immediately.
        self.predictor.speculate(&info, event.taken);
        self.predictor.commit(&info, event.taken);
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.scoreboard.observe(event);
        self.predictor.on_pred_write(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::StaticPredictor;
    use predbranch_isa::assemble;
    use predbranch_sim::{Executor, Memory};

    #[test]
    fn attributes_mispredictions_to_the_right_pc() {
        let program = assemble(
            r#"
                mov r1 = 0
            loop:
                cmp.lt p1, p2 = r1, 20
                (p1) add r1 = r1, 1
                (p1) br loop        // pc 3: taken 20/21
                cmp.eq p3, p4 = r1, 99
                (p3) br loop        // pc 5: never taken
                halt
            "#,
        )
        .unwrap();
        let mut hot = HotBranches::new(StaticPredictor::NotTaken, 8);
        let summary = Executor::new(&program, Memory::new()).run(&mut hot, 100_000);
        assert!(summary.halted);
        // pc 3 mispredicts 20 times under static-not-taken; pc 5 never
        let ranked = hot.ranked();
        assert_eq!(ranked[0].0, 3);
        assert_eq!(ranked[0].1.mispredictions.get(), 20);
        assert_eq!(hot.at(5).unwrap().mispredictions.get(), 0);
        assert_eq!(hot.total_mispredictions(), 20);
        assert_eq!(hot.at(999), None);
    }

    #[test]
    fn ranking_is_stable_for_ties() {
        let program = assemble(
            r#"
                cmp.eq p1, p2 = r0, r0
                (p1) br a
            a:  (p1) br b
            b:  halt
            "#,
        )
        .unwrap();
        let mut hot = HotBranches::new(StaticPredictor::NotTaken, 8);
        Executor::new(&program, Memory::new()).run(&mut hot, 1_000);
        let ranked = hot.ranked();
        assert_eq!(ranked.len(), 2);
        // equal misprediction counts: ordered by pc
        assert!(ranked[0].0 < ranked[1].0);
    }
}
