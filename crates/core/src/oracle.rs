//! Oracle predictors: upper bounds for the study's headroom figures.

use predbranch_sim::{PredWriteEvent, PredicateScoreboard};

use crate::predictor::{BranchInfo, BranchPredictor};

/// A perfect-guard oracle: predicts every conditional branch from the
/// *architectural* value of its guard predicate, ignoring resolve
/// latency.
///
/// Because a predicated branch is taken exactly when its guard is true,
/// and this ISA executes in order (every prior definition has
/// architecturally happened by the time the branch executes), this
/// predictor is 100% accurate. It is the limit both techniques approach
/// as the resolve latency goes to zero, and the denominator for the
/// "fraction of headroom captured" numbers in the oracle figure.
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, PerfectGuard};
///
/// let p = PerfectGuard::new();
/// assert_eq!(p.name(), "oracle-guard");
/// assert_eq!(p.storage_bits(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectGuard {
    values: PredicateScoreboard,
}

impl Default for PerfectGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectGuard {
    /// Creates the oracle.
    pub fn new() -> Self {
        PerfectGuard {
            // zero latency: every write is instantly visible
            values: PredicateScoreboard::new(0),
        }
    }
}

impl BranchPredictor for PerfectGuard {
    fn name(&self) -> String {
        "oracle-guard".to_string()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.values
            .query(branch.guard, branch.index)
            .value()
            .unwrap_or(false)
    }

    fn commit(&mut self, _: &BranchInfo, _: bool) {}

    fn on_pred_write(&mut self, write: &PredWriteEvent) {
        self.values
            .record_write(write.preg, write.value, write.index);
    }

    fn wants_pred_writes(&self) -> bool {
        true
    }

    fn storage_bits(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{HarnessConfig, PredictionHarness};
    use predbranch_isa::assemble;
    use predbranch_sim::PredKnowledge;
    use predbranch_sim::{Executor, Memory};

    #[test]
    fn oracle_is_perfect_on_a_loop() {
        let program = assemble(
            r#"
                mov r1 = 0
            loop:
                cmp.lt p1, p2 = r1, 37
                (p1) add r1 = r1, 1
                (p1) br.region 0, loop
                halt
            "#,
        )
        .unwrap();
        let mut harness = PredictionHarness::new(PerfectGuard::new(), HarnessConfig::default());
        Executor::new(&program, Memory::new()).run(&mut harness, 100_000);
        let m = harness.metrics();
        assert_eq!(m.all.branches.get(), 38);
        assert_eq!(m.all.mispredictions.get(), 0);
    }

    #[test]
    fn never_written_guard_predicts_not_taken() {
        let mut p = PerfectGuard::new();
        let branch = BranchInfo {
            pc: 0,
            target: 0,
            guard: predbranch_isa::PredReg::new(9).unwrap(),
            region: None,
            index: 5,
            guard_knowledge: PredKnowledge::Unknown,
        };
        assert!(!p.predict(&branch));
    }
}
