//! End-to-end integration: the whole pipeline from CFG to prediction
//! metrics, exercised through the facade crate exactly as a downstream
//! user would.

use predbranch::compiler::{if_convert, lower, IfConvertConfig};
use predbranch::core::{HarnessConfig, InsertFilter, PredictionHarness, Timing};
use predbranch::modern::{build_modern, ModernSpec};
use predbranch::sim::{Executor, Memory, NullSink};
use predbranch::workloads::{
    compile_benchmark, suite, CompileOptions, DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED,
};

fn misp_on(program: &predbranch::isa::Program, memory: Memory, spec: &ModernSpec) -> (f64, u64) {
    let mut harness = PredictionHarness::new(
        build_modern(spec),
        HarnessConfig {
            timing: Timing::immediate(8),
            insert: InsertFilter::All,
        },
    );
    let summary = Executor::new(program, memory).run(&mut harness, 2 * DEFAULT_MAX_INSTRUCTIONS);
    assert!(summary.halted, "program must halt");
    (
        harness.metrics().all.misp_rate().percent(),
        harness.metrics().all.branches.get(),
    )
}

#[test]
fn oracle_is_perfect_on_every_benchmark() {
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        let (misp, branches) = misp_on(
            &c.predicated,
            bench.input(EVAL_SEED),
            &ModernSpec::OracleGuard,
        );
        assert!(branches > 0);
        assert_eq!(misp, 0.0, "{}: oracle must be perfect", c.name);
    }
}

#[test]
fn squash_filter_never_mispredicts_known_false_guards() {
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        let spec = ModernSpec::Gshare {
            index_bits: 13,
            history_bits: 13,
        }
        .with_sfpf();
        let mut harness = PredictionHarness::new(
            build_modern(&spec),
            HarnessConfig {
                timing: Timing::immediate(8),
                insert: InsertFilter::All,
            },
        );
        let summary = Executor::new(&c.predicated, bench.input(EVAL_SEED))
            .run(&mut harness, 2 * DEFAULT_MAX_INSTRUCTIONS);
        assert!(summary.halted);
        let m = harness.metrics();
        assert_eq!(
            m.known_false_mispredicted.get(),
            0,
            "{}: the filter's 100% guarantee was violated",
            c.name
        );
    }
}

#[test]
fn sfpf_never_hurts_and_pgu_wins_where_designed() {
    let base = ModernSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    let mut pgu_better_somewhere = false;
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        let (b, _) = misp_on(&c.predicated, bench.input(EVAL_SEED), &base);
        let (s, _) = misp_on(
            &c.predicated,
            bench.input(EVAL_SEED),
            &base.clone().with_sfpf(),
        );
        assert!(
            s <= b + 1e-9,
            "{}: SFPF worsened misprediction ({b} -> {s})",
            c.name
        );
        let (p, _) = misp_on(
            &c.predicated,
            bench.input(EVAL_SEED),
            &base.clone().with_pgu(8),
        );
        if bench.name() == "gap" {
            assert!(
                p < b / 4.0,
                "gap: PGU must crush the v%15 branch ({b} -> {p})"
            );
        }
        if p < b * 0.8 {
            pgu_better_somewhere = true;
        }
    }
    assert!(pgu_better_somewhere, "PGU must win substantially somewhere");
}

#[test]
fn hand_written_assembly_runs_through_facade() {
    let program = predbranch::isa::assemble(
        "start: cmp.eq p1, p2 = r1, 0\n (p1) add r1 = r1, 1\n (p2) halt\n br start\n halt",
    )
    .unwrap();
    let mut exec = Executor::new(&program, Memory::new());
    let summary = exec.run(&mut NullSink, 10_000);
    assert!(summary.halted);
}

#[test]
fn lower_and_ifconvert_agree_on_a_fresh_cfg() {
    use predbranch::compiler::{CfgBuilder, Cond};
    use predbranch::isa::{CmpCond, Gpr};

    let r1 = Gpr::new(1).unwrap();
    let r2 = Gpr::new(2).unwrap();
    let mut b = CfgBuilder::new();
    b.for_range(Gpr::new(30).unwrap(), 0, 50, |b| {
        b.alu(predbranch::isa::AluOp::Rem, r2, Gpr::new(30).unwrap(), 4);
        b.if_then_else(
            Cond::new(CmpCond::Eq, r2, 0),
            |b| b.addi(r1, r1, 3),
            |b| b.addi(r1, r1, 1),
        );
        b.store(r1, Gpr::ZERO, 100);
    });
    b.halt();
    let cfg = b.finish().unwrap();
    let plain = lower(&cfg).unwrap();
    let converted = if_convert(&cfg, None, &IfConvertConfig::default()).unwrap();

    let mut e1 = Executor::new(&plain, Memory::new());
    let mut e2 = Executor::new(&converted.program, Memory::new());
    e1.run(&mut NullSink, 100_000);
    e2.run(&mut NullSink, 100_000);
    assert_eq!(e1.memory().load(100), e2.memory().load(100));
    assert_eq!(e1.reg(r1), e2.reg(r1));
}
