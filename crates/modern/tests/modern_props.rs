//! Property tests pinning the modern predictors' speculative lifecycle
//! to the idealized immediate-update methodology: driven through the
//! in-flight window at retire latency 0, TAGE and the multiperspective
//! perceptron must end every run in *exactly* the state the plain
//! predict-then-update loop produces — byte for byte, for arbitrary
//! interleavings of branches and predicate writes. Any asymmetry
//! between `speculate`/`squash`/`commit` and `update` (a missed
//! rollback, a double history shift, an LFSR step on the wrong path)
//! shows up as a state divergence here.

use proptest::prelude::*;

use predbranch_core::{
    BranchInfo, BranchPredictor, HarnessConfig, InsertFilter, PredictionHarness, Timing,
};
use predbranch_isa::PredReg;
use predbranch_modern::{Mpp, Tage};
use predbranch_sim::{BranchEvent, EventSink, PredWriteEvent, PredicateScoreboard};

const RESOLVE_LATENCY: u64 = 4;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Branch { pc: u32, taken: bool },
    Write { pc: u32, preg: u8, value: bool },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        3 => (0u32..512, any::<bool>()).prop_map(|(pc, taken)| Ev::Branch { pc, taken }),
        1 => (0u32..512, 1u8..64, any::<bool>())
            .prop_map(|(pc, preg, value)| Ev::Write { pc, preg, value }),
    ]
}

fn branch_event(pc: u32, taken: bool, index: u64) -> BranchEvent {
    BranchEvent {
        pc,
        target: 0,
        guard: PredReg::new(1).unwrap(),
        taken,
        conditional: true,
        region: None,
        index,
    }
}

fn write_event(pc: u32, preg: u8, value: bool, index: u64) -> PredWriteEvent {
    PredWriteEvent {
        pc,
        preg: PredReg::new(preg).unwrap(),
        value,
        index,
        guard: PredReg::TRUE,
        guard_value: true,
    }
}

/// Replays `events` through the windowed harness and returns the final
/// predictor state plus the misprediction count.
fn drive_windowed<P: BranchPredictor>(predictor: P, events: &[Ev], retire: u64) -> (P, u64) {
    let mut harness = PredictionHarness::new(
        predictor,
        HarnessConfig {
            timing: Timing::new(RESOLVE_LATENCY, retire),
            insert: InsertFilter::All,
        },
    );
    for (index, ev) in events.iter().enumerate() {
        let index = index as u64;
        match *ev {
            Ev::Branch { pc, taken } => harness.branch(&branch_event(pc, taken, index)),
            Ev::Write { pc, preg, value } => {
                harness.pred_write(&write_event(pc, preg, value, index))
            }
        }
    }
    let (predictor, metrics) = harness.into_parts();
    (predictor, metrics.all.mispredictions.get())
}

/// The inline-update reference: the pre-window methodology, predict
/// then immediately train, no speculation machinery involved.
fn drive_inline<P: BranchPredictor>(mut predictor: P, events: &[Ev]) -> (P, u64) {
    let mut scoreboard = PredicateScoreboard::new(RESOLVE_LATENCY);
    let mut mispredictions = 0u64;
    for (index, ev) in events.iter().enumerate() {
        let index = index as u64;
        match *ev {
            Ev::Branch { pc, taken } => {
                let info = BranchInfo::from_event(&branch_event(pc, taken, index), &scoreboard);
                if predictor.predict(&info) != taken {
                    mispredictions += 1;
                }
                predictor.update(&info, taken);
            }
            Ev::Write { pc, preg, value } => {
                let event = write_event(pc, preg, value, index);
                scoreboard.observe(&event);
                predictor.on_pred_write(&event);
            }
        }
    }
    (predictor, mispredictions)
}

fn assert_retire_zero_matches<P>(fresh: P, events: &[Ev])
where
    P: BranchPredictor + Clone + PartialEq + std::fmt::Debug,
{
    let (windowed, windowed_misp) = drive_windowed(fresh.clone(), events, 0);
    let (inline, inline_misp) = drive_inline(fresh, events);
    assert_eq!(
        windowed, inline,
        "commit-order state diverged from inline update"
    );
    assert_eq!(windowed_misp, inline_misp, "misprediction counts diverged");
}

proptest! {
    /// At retire latency 0 every branch retires before the next event,
    /// so the speculate → (squash) → commit lifecycle must collapse to
    /// the inline predict-then-update loop exactly, for both modern
    /// predictors and their predicate-aware variants.
    #[test]
    fn retire_zero_state_equals_inline_reference(
        events in prop::collection::vec(arb_event(), 0..300),
    ) {
        assert_retire_zero_matches(Tage::new(4, 8, 48), &events);
        assert_retire_zero_matches(Tage::new(4, 8, 48).predicate_aware(), &events);
        assert_retire_zero_matches(Mpp::new(8), &events);
        assert_retire_zero_matches(Mpp::new(8).predicate_aware(), &events);
    }

    /// Deep and force-retired windows (arbitrary latency up to "never
    /// retires on its own") keep the checkpoint FIFOs balanced: the run
    /// completes without overflow and sees every branch exactly once.
    #[test]
    fn arbitrary_retire_latency_stays_balanced(
        events in prop::collection::vec(arb_event(), 0..300),
        retire in prop_oneof![Just(0u64), 1u64..16, Just(1 << 40)],
    ) {
        let n_branches = events
            .iter()
            .filter(|e| matches!(e, Ev::Branch { .. }))
            .count() as u64;
        for (tage, misp) in [
            drive_windowed(Tage::new(4, 8, 48), &events, retire),
            drive_windowed(Tage::new(4, 8, 48).predicate_aware(), &events, retire),
        ] {
            prop_assert!(misp <= n_branches);
            prop_assert_eq!(tage.name().contains("tage"), true);
        }
        let (mpp, misp) = drive_windowed(Mpp::new(8).predicate_aware(), &events, retire);
        prop_assert!(misp <= n_branches);
        prop_assert_eq!(mpp.name(), "pmpp-8");
    }
}
