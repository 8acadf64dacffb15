//! Per-branch misprediction attribution.

use std::collections::BTreeMap;

use predbranch_sim::PredWriteEvent;

use crate::predictor::{BranchInfo, BranchPredictor, ClassCounts};

/// Attributes mispredictions to static branches: wraps a predictor and
/// keeps per-PC counters, so analyses can answer *which* branches the
/// techniques fix.
///
/// Drive it like any predictor, in a [`crate::PredictionHarness`] or as
/// a [`crate::GangHarness`] lane. It counts a branch at each `commit`
/// and a misprediction at each `squash`, which a harness calls for
/// exactly the mispredicted branches at any retire latency, so the
/// per-PC counters sum to the lane's metrics.
///
/// # Examples
///
/// ```
/// use predbranch_core::{Gshare, HotBranches};
///
/// let hot = HotBranches::new(Gshare::new(10, 10));
/// assert!(hot.ranked().is_empty());
/// ```
#[derive(Debug)]
pub struct HotBranches<P> {
    predictor: P,
    per_pc: BTreeMap<u32, ClassCounts>,
}

impl<P> HotBranches<P> {
    /// Wraps `predictor` with empty counters.
    pub fn new(predictor: P) -> Self {
        HotBranches {
            predictor,
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

    fn counts(&mut self, pc: u32) -> &mut ClassCounts {
        self.per_pc.entry(pc).or_default()
    }
}

impl<P: BranchPredictor> BranchPredictor for HotBranches<P> {
    fn name(&self) -> String {
        self.predictor.name()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.predictor.predict(branch)
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        self.predictor.speculate(branch, predicted);
    }

    fn commit(&mut self, branch: &BranchInfo, taken: bool) {
        self.counts(branch.pc).branches.increment();
        self.predictor.commit(branch, taken);
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        self.counts(branch.pc).mispredictions.increment();
        self.predictor.squash(branch, taken);
    }

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        self.predictor.on_pred_write(write);
    }

    fn wants_pred_writes(&self) -> bool {
        self.predictor.wants_pred_writes()
    }

    fn storage_bits(&self) -> usize {
        self.predictor.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::InsertFilter;
    use crate::gshare::Gshare;
    use crate::harness::{GangHarness, HarnessConfig, PredictionHarness, Timing};
    use crate::predictor::StaticPredictor;
    use predbranch_isa::{assemble, Program};
    use predbranch_sim::{Executor, Memory};

    /// Runs `program` to its halt through a harness around
    /// `HotBranches::new(predictor)`.
    fn attribute<P: BranchPredictor>(
        program: &Program,
        predictor: P,
        config: HarnessConfig,
    ) -> PredictionHarness<HotBranches<P>> {
        let mut harness = PredictionHarness::new(HotBranches::new(predictor), config);
        let summary = Executor::new(program, Memory::new()).run(&mut harness, 100_000);
        assert!(summary.halted);
        harness.finish();
        harness
    }

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
        let harness = attribute(
            &program,
            StaticPredictor::NotTaken,
            HarnessConfig::default(),
        );
        let hot = harness.predictor();
        // pc 3 mispredicts 20 times under static-not-taken; pc 5 never
        let ranked = hot.ranked();
        assert_eq!(ranked[0].0, 3);
        assert_eq!(ranked[0].1.mispredictions.get(), 20);
        assert_eq!(hot.at(5).unwrap().mispredictions.get(), 0);
        let mispredictions: u64 = ranked.iter().map(|(_, c)| c.mispredictions.get()).sum();
        assert_eq!(mispredictions, 20);
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
        let harness = attribute(
            &program,
            StaticPredictor::NotTaken,
            HarnessConfig::default(),
        );
        let ranked = harness.predictor().ranked();
        assert_eq!(ranked.len(), 2);
        // equal misprediction counts: ordered by pc
        assert!(ranked[0].0 < ranked[1].0);
    }

    /// In a harness at retire latency 0 and at 8, and as gang lanes at
    /// both, the per-pc counters sum to the lane's metrics.
    #[test]
    fn counters_sum_to_the_lane_metrics() {
        // three branches on the counter's low bits: a small gshare
        // mispredicts each while it learns
        let program = assemble(
            r#"
                mov r1 = 0
            loop:
                and r2 = r1, 3
                cmp.eq p1, p2 = r2, 0
                (p1) br a
                nop
            a:  rem r3 = r1, 7
                cmp.lt p3, p4 = r3, 3
                (p3) br b
                nop
            b:  add r1 = r1, 1
                cmp.lt p5, p6 = r1, 300
                (p5) br loop
                halt
            "#,
        )
        .unwrap();
        let config = |retire| HarnessConfig {
            timing: Timing::new(8, retire),
            insert: InsertFilter::All,
        };
        let mut lanes = Vec::new();
        let mut gang = GangHarness::new();
        for retire in [0, 8] {
            lanes.push(attribute(&program, Gshare::new(6, 6), config(retire)));
            gang.push_lane(HotBranches::new(Gshare::new(6, 6)), config(retire));
        }
        Executor::new(&program, Memory::new()).run_batched(&mut gang, 100_000, &mut Vec::new());
        lanes.extend(gang.into_lanes());
        for lane in &lanes {
            let (hot, metrics) = (lane.predictor(), lane.metrics());
            let ranked = hot.ranked();
            let branches: u64 = ranked.iter().map(|(_, c)| c.branches.get()).sum();
            let mispredictions: u64 = ranked.iter().map(|(_, c)| c.mispredictions.get()).sum();
            assert_eq!((ranked.len(), branches), (3, 900));
            assert_eq!(branches, metrics.all.branches.get());
            assert_eq!(mispredictions, metrics.all.mispredictions.get());
            assert!(metrics.all.mispredictions.get() > 0);
        }
    }
}
