//! Executor property tests on randomly generated valid programs.

use proptest::prelude::*;

use predbranch_isa::{AluOp, CmpCond, CmpType, Gpr, Inst, Op, PredReg, Program, Src};
use predbranch_sim::{Executor, Memory, NullSink, RunSummary, TraceSink};

fn arb_gpr() -> impl Strategy<Value = Gpr> {
    (0u8..16).prop_map(|i| Gpr::new(i).unwrap())
}

fn arb_pred() -> impl Strategy<Value = PredReg> {
    (0u8..16).prop_map(|i| PredReg::new(i).unwrap())
}

fn arb_op(len: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Nop),
        Just(Op::Halt),
        (0..len).prop_map(|target| Op::Br {
            target,
            region: None
        }),
        (0..len, any::<bool>()).prop_map(|(target, tag)| Op::Br {
            target,
            region: tag.then_some(1),
        }),
        (arb_gpr(), -100i32..100).prop_map(|(dst, imm)| Op::Mov {
            dst,
            src: Src::Imm(imm)
        }),
        (
            prop::sample::select(AluOp::ALL.to_vec()),
            arb_gpr(),
            arb_gpr(),
            -8i32..8
        )
            .prop_map(|(op, dst, src1, imm)| Op::Alu {
                op,
                dst,
                src1,
                src2: Src::Imm(imm)
            }),
        (arb_gpr(), arb_gpr(), 0i32..64).prop_map(|(dst, base, offset)| Op::Load {
            dst,
            base,
            offset
        }),
        (arb_gpr(), arb_gpr(), 0i32..64).prop_map(|(src, base, offset)| Op::Store {
            src,
            base,
            offset
        }),
        (
            prop::sample::select(CmpType::ALL.to_vec()),
            prop::sample::select(CmpCond::ALL.to_vec()),
            arb_pred(),
            arb_pred(),
            arb_gpr(),
            -8i32..8
        )
            .prop_map(|(ctype, cond, p_true, p_false, src1, imm)| Op::Cmp {
                ctype,
                cond,
                p_true,
                p_false,
                src1,
                src2: Src::Imm(imm),
            }),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    (2u32..40)
        .prop_flat_map(|len| prop::collection::vec((arb_pred(), arb_op(len)), len as usize))
        .prop_map(|pairs| {
            let mut insts: Vec<Inst> = pairs
                .into_iter()
                .map(|(guard, op)| Inst::guarded(guard, op))
                .collect();
            insts.push(Inst::new(Op::Halt));
            Program::new(insts).expect("targets are in range and halt exists")
        })
}

const BUDGET: u64 = 20_000;

proptest! {
    /// Execution is deterministic: identical runs produce identical
    /// state, memory, and event streams.
    #[test]
    fn execution_is_deterministic(program in arb_program()) {
        let run = || {
            let mut exec = Executor::new(&program, Memory::new());
            let mut trace = TraceSink::new();
            let summary = exec.run(&mut trace, BUDGET);
            (summary, exec.state().clone(), trace)
        };
        let (s1, st1, t1) = run();
        let (s2, st2, t2) = run();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(st1, st2);
        prop_assert_eq!(t1.events(), t2.events());
    }

    /// The executor never exceeds its instruction budget, and the
    /// summary's counters are internally consistent.
    #[test]
    fn budget_and_counters_consistent(program in arb_program()) {
        let mut exec = Executor::new(&program, Memory::new());
        let mut trace = TraceSink::new();
        let summary = exec.run(&mut trace, BUDGET);
        prop_assert!(summary.instructions <= BUDGET);
        prop_assert_eq!(summary.instructions, exec.instructions());
        prop_assert!(summary.conditional_branches <= summary.branches);
        prop_assert!(summary.taken_conditional <= summary.conditional_branches);
        prop_assert_eq!(summary.branches, trace.branches().count() as u64);
        prop_assert_eq!(summary.pred_writes, trace.pred_writes().count() as u64);
    }

    /// The sink choice cannot perturb execution (sinks observe, they
    /// don't steer).
    #[test]
    fn sinks_do_not_perturb(program in arb_program()) {
        let mut a = Executor::new(&program, Memory::new());
        let mut b = Executor::new(&program, Memory::new());
        let sa = a.run(&mut NullSink, BUDGET);
        let sb = b.run(&mut TraceSink::new(), BUDGET);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(a.state(), b.state());
        prop_assert_eq!(a.memory(), b.memory());
    }

    /// Architectural invariants hold at every point: r0 stays zero, p0
    /// stays true, and every reported branch outcome equals the guard's
    /// architectural value at that moment.
    #[test]
    fn architectural_invariants(program in arb_program()) {
        let mut exec = Executor::new(&program, Memory::new());
        let mut trace = TraceSink::new();
        exec.run(&mut trace, BUDGET);
        prop_assert_eq!(exec.state().reg(Gpr::ZERO), 0);
        prop_assert!(exec.state().pred(PredReg::TRUE));
        // replay predicate file from events; conditional branch outcomes
        // must match the replayed guard values
        let mut preds = [false; 64];
        preds[0] = true;
        for event in trace.events() {
            match event {
                predbranch_sim::Event::PredWrite(w) => {
                    preds[w.preg.index() as usize] = w.value;
                }
                predbranch_sim::Event::Branch(b) => {
                    prop_assert_eq!(b.taken, preds[b.guard.index() as usize]);
                    prop_assert_eq!(b.conditional, !b.guard.is_always_true());
                }
            }
        }
    }
}

proptest! {
    /// Lint soundness: instructions the static linter marks unreachable
    /// are never fetched by the executor, on any generated program.
    #[test]
    fn unreachable_lint_is_sound(program in arb_program()) {
        use predbranch_isa::{lint_program, Lint};

        // the pc before each step that executes is a fetched pc
        let mut fetched = std::collections::HashSet::new();
        let mut exec = Executor::new(&program, Memory::new());
        let mut summary = RunSummary::default();
        while summary.instructions < BUDGET {
            let pc = exec.state().pc();
            if !exec.step(&mut NullSink, &mut summary) {
                break;
            }
            fetched.insert(pc);
        }
        for lint in lint_program(&program) {
            if let Lint::Unreachable { pc } = lint {
                prop_assert!(
                    !fetched.contains(&pc),
                    "statically unreachable pc {pc} was fetched"
                );
            }
        }
    }
}
