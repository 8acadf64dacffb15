//! Property tests over the in-flight branch window: whatever the
//! interleaving of branch and predicate-write events and whatever the
//! retire latency, the harness must drive the predictor lifecycle in a
//! fixed, well-formed order — `commit`s arrive in fetch order, every
//! `speculate` commits exactly once, and `squash` fires exactly for
//! mispredicted branches, immediately before their commit.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use predbranch_core::{
    BranchInfo, BranchPredictor, HarnessConfig, InsertFilter, PredictionHarness, Ring, Timing,
};
use predbranch_isa::PredReg;
use predbranch_sim::{BranchEvent, EventSink, PredKnowledge, PredWriteEvent};

/// One lifecycle call the probe predictor observed, tagged with the
/// branch's dynamic index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Predict(u64),
    Speculate(u64),
    Squash(u64),
    Commit(u64),
}

/// A predictor that records every lifecycle call and predicts from a
/// deterministic hash of the branch, so both outcomes occur.
#[derive(Debug, Default)]
struct Probe {
    calls: Rc<RefCell<Vec<Call>>>,
}

impl Probe {
    fn answer(branch: &BranchInfo) -> bool {
        (branch.pc ^ branch.pc >> 3) & 1 == 1
    }
}

impl BranchPredictor for Probe {
    fn name(&self) -> String {
        "probe".to_string()
    }

    fn predict(&mut self, branch: &BranchInfo) -> bool {
        self.calls.borrow_mut().push(Call::Predict(branch.index));
        Probe::answer(branch)
    }

    fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
        assert_eq!(predicted, Probe::answer(branch), "speculate echoes predict");
        self.calls.borrow_mut().push(Call::Speculate(branch.index));
    }

    fn commit(&mut self, branch: &BranchInfo, _: bool) {
        self.calls.borrow_mut().push(Call::Commit(branch.index));
    }

    fn squash(&mut self, branch: &BranchInfo, taken: bool) {
        assert_ne!(taken, Probe::answer(branch), "squash only on mispredicts");
        self.calls.borrow_mut().push(Call::Squash(branch.index));
    }

    fn storage_bits(&self) -> usize {
        0
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Branch { pc: u32, taken: bool },
    Write { preg: u8, value: bool },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u32..512, any::<bool>()).prop_map(|(pc, taken)| Ev::Branch { pc, taken }),
        (1u8..64, any::<bool>()).prop_map(|(preg, value)| Ev::Write { preg, value }),
    ]
}

/// Replays a synthetic stream and returns the recorded lifecycle calls
/// plus the fetch-ordered indices of all branches and of the
/// mispredicted ones.
fn drive(events: &[Ev], timing: Timing) -> (Vec<Call>, Vec<u64>, Vec<u64>) {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let probe = Probe {
        calls: Rc::clone(&calls),
    };
    let mut harness = PredictionHarness::new(
        probe,
        HarnessConfig {
            timing,
            insert: InsertFilter::All,
        },
    );
    let mut branches = Vec::new();
    let mut mispredicted = Vec::new();
    for (index, ev) in events.iter().enumerate() {
        let index = index as u64;
        match *ev {
            Ev::Branch { pc, taken } => {
                branches.push(index);
                let info = BranchInfo {
                    pc,
                    target: 0,
                    guard: PredReg::new(1).unwrap(),
                    region: None,
                    index,
                    guard_knowledge: PredKnowledge::Unknown,
                };
                if Probe::answer(&info) != taken {
                    mispredicted.push(index);
                }
                harness.branch(&BranchEvent {
                    pc,
                    target: 0,
                    guard: PredReg::new(1).unwrap(),
                    taken,
                    conditional: true,
                    region: None,
                    index,
                });
            }
            Ev::Write { preg, value } => harness.pred_write(&PredWriteEvent {
                pc: 0,
                preg: PredReg::new(preg).unwrap(),
                value,
                index,
                guard: PredReg::TRUE,
                guard_value: true,
            }),
        }
    }
    harness.finish();
    assert_eq!(harness.in_flight(), 0);
    let calls = calls.borrow().clone();
    (calls, branches, mispredicted)
}

/// One operation against both the ring under test and the `VecDeque`
/// reference model.
#[derive(Debug, Clone, Copy)]
enum RingOp {
    Push(u16),
    Pop,
    Front,
    Clear,
}

fn arb_ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        // push-heavy so runs actually fill the ring and wrap the head
        4 => any::<u16>().prop_map(RingOp::Push),
        3 => Just(RingOp::Pop),
        1 => Just(RingOp::Front),
        1 => Just(RingOp::Clear),
    ]
}

/// Drives one op sequence through a `Ring<u16, CAP>` and a `VecDeque`
/// side by side, checking every observable after every step. Pushes
/// that would overflow the ring (a contract violation for callers, and
/// a panic) are skipped on both sides so the models stay aligned.
fn check_ring_against_vecdeque<const CAP: usize>(ops: &[RingOp]) {
    let mut ring: Ring<u16, CAP> = Ring::new();
    let mut model: VecDeque<u16> = VecDeque::new();
    for &op in ops {
        match op {
            RingOp::Push(v) => {
                if model.len() < CAP {
                    ring.push_back(v);
                    model.push_back(v);
                }
            }
            RingOp::Pop => prop_assert_eq!(ring.pop_front(), model.pop_front()),
            RingOp::Front => prop_assert_eq!(ring.front(), model.front()),
            RingOp::Clear => {
                ring.clear();
                model.clear();
            }
        }
        prop_assert_eq!(ring.len(), model.len());
        prop_assert_eq!(ring.is_empty(), model.is_empty());
        prop_assert!(ring.iter().eq(model.iter()), "logical contents diverged");
    }
}

proptest! {
    /// The ring must be observationally indistinguishable from the
    /// `VecDeque` subset it replaced in the window and checkpoint
    /// FIFOs — at a small capacity (to exercise wrap-around and the
    /// full/empty boundary many times per run) and at the window's
    /// real capacity.
    #[test]
    fn ring_matches_vecdeque_reference(
        ops in prop::collection::vec(arb_ring_op(), 0..400),
    ) {
        check_ring_against_vecdeque::<4>(&ops);
        check_ring_against_vecdeque::<64>(&ops);
    }

    /// The window's core contract, for any interleaving and any retire
    /// latency: commit order equals fetch order, one commit per
    /// speculate, and squash exactly for mispredicted branches,
    /// immediately before their commit.
    #[test]
    fn commit_order_is_fetch_order(
        events in prop::collection::vec(arb_event(), 0..200),
        retire in prop_oneof![Just(0u64), 1u64..8, Just(1 << 40)],
    ) {
        let (calls, branches, mispredicted) =
            drive(&events, Timing::new(4, retire));

        let commits: Vec<u64> = calls
            .iter()
            .filter_map(|c| match c {
                Call::Commit(i) => Some(*i),
                _ => None,
            })
            .collect();
        let speculates: Vec<u64> = calls
            .iter()
            .filter_map(|c| match c {
                Call::Speculate(i) => Some(*i),
                _ => None,
            })
            .collect();
        let squashes: Vec<u64> = calls
            .iter()
            .filter_map(|c| match c {
                Call::Squash(i) => Some(*i),
                _ => None,
            })
            .collect();

        // every fetched branch speculates and commits exactly once, in
        // fetch order
        prop_assert_eq!(&commits, &branches);
        prop_assert_eq!(&speculates, &branches);
        // squash fires exactly for the mispredicted branches, in order
        prop_assert_eq!(&squashes, &mispredicted);

        // per-branch call shape: predict then speculate (adjacent in the
        // per-branch subsequence), squash (iff mispredicted) immediately
        // before commit, and never commit before speculate
        for &idx in &branches {
            let mine: Vec<Call> = calls
                .iter()
                .copied()
                .filter(|c| {
                    matches!(c,
                        Call::Predict(i) | Call::Speculate(i)
                        | Call::Squash(i) | Call::Commit(i) if *i == idx)
                })
                .collect();
            let expect = if mispredicted.contains(&idx) {
                vec![
                    Call::Predict(idx),
                    Call::Speculate(idx),
                    Call::Squash(idx),
                    Call::Commit(idx),
                ]
            } else {
                vec![Call::Predict(idx), Call::Speculate(idx), Call::Commit(idx)]
            };
            prop_assert_eq!(mine, expect);
        }

        // a squash is immediately followed by that branch's commit (the
        // repair-then-train pairing the per-predictor checkpoints rely on)
        for (pos, call) in calls.iter().enumerate() {
            if let Call::Squash(i) = call {
                prop_assert_eq!(calls.get(pos + 1), Some(&Call::Commit(*i)));
            }
        }
    }

    /// Retire latency never changes *what* retires, only *when*: the
    /// commit sequence (and squash set) is identical at every latency.
    #[test]
    fn retirement_schedule_is_latency_invariant(
        events in prop::collection::vec(arb_event(), 0..200),
        retire in 0u64..64,
    ) {
        let (a, ..) = drive(&events, Timing::new(4, 0));
        let (b, ..) = drive(&events, Timing::new(4, retire));
        let only = |calls: &[Call], keep: fn(&Call) -> bool| -> Vec<Call> {
            calls.iter().copied().filter(keep).collect()
        };
        prop_assert_eq!(
            only(&a, |c| matches!(c, Call::Commit(_) | Call::Squash(_))),
            only(&b, |c| matches!(c, Call::Commit(_) | Call::Squash(_)))
        );
    }
}
