//! Cross-crate property tests: invariants that only hold if the ISA,
//! compiler, simulator, and predictors agree with each other.

use proptest::prelude::*;

use predbranch::core::{HarnessConfig, InsertFilter, PredictionHarness, Timing};
use predbranch::isa::{decode, encode};
use predbranch::modern::{build_modern, ModernSpec};
use predbranch::sim::{Executor, TraceSink};
use predbranch::workloads::{compile_benchmark, suite, CompileOptions};

/// Branch outcomes are invariant under the predictor choice: predictors
/// observe, they don't steer (trace-driven methodology sanity).
#[test]
fn predictors_do_not_perturb_execution() {
    let bench = &suite()[1];
    let c = compile_benchmark(bench, &CompileOptions::default());
    let outcomes = |spec: &ModernSpec| -> (u64, u64) {
        let mut harness = PredictionHarness::new(
            build_modern(spec),
            HarnessConfig {
                timing: Timing::immediate(8),
                insert: InsertFilter::All,
            },
        );
        let summary = Executor::new(&c.predicated, bench.input(7)).run(&mut harness, 8_000_000);
        (summary.instructions, summary.taken_conditional)
    };
    let a = outcomes(&ModernSpec::StaticNotTaken);
    let b = outcomes(&ModernSpec::OracleGuard);
    assert_eq!(a, b);
}

/// The whole compiled suite survives binary encode/decode round-trips.
#[test]
fn compiled_suite_is_binary_encodable() {
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        for program in [&c.plain, &c.predicated] {
            for (pc, inst) in program.iter() {
                let word = encode(inst).unwrap_or_else(|e| panic!("{} pc {pc}: {e}", c.name));
                assert_eq!(decode(word).unwrap(), *inst, "{} pc {pc}", c.name);
            }
        }
    }
}

/// Every conditional branch's outcome equals its guard value — the ISA
/// property both techniques rest on — checked across a real benchmark's
/// full trace via the event stream.
#[test]
fn branch_outcome_equals_guard_value() {
    let bench = &suite()[0];
    let c = compile_benchmark(bench, &CompileOptions::default());
    let mut trace = TraceSink::new();
    let summary = Executor::new(&c.predicated, bench.input(3)).run(&mut trace, 8_000_000);
    assert!(summary.halted);
    let mut preds = [false; 64];
    preds[0] = true;
    let mut checked = 0u64;
    for event in trace.events() {
        match event {
            predbranch::sim::Event::PredWrite(w) => {
                preds[w.preg.index() as usize] = w.value;
            }
            predbranch::sim::Event::Branch(b) if b.conditional => {
                assert_eq!(b.taken, preds[b.guard.index() as usize], "at pc {}", b.pc);
                checked += 1;
            }
            predbranch::sim::Event::Branch(_) => {}
        }
    }
    assert!(checked > 1000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Misprediction counts are deterministic functions of (benchmark,
    /// seed, spec): two identical runs agree exactly.
    #[test]
    fn prediction_runs_are_reproducible(seed in 0u64..1000, which in 0usize..11) {
        let bench = &suite()[which];
        let c = compile_benchmark(bench, &CompileOptions::default());
        let spec = ModernSpec::Gshare { index_bits: 10, history_bits: 10 }.with_pgu(4);
        let run = || {
            let mut harness = PredictionHarness::new(
                build_modern(&spec),
                HarnessConfig { timing: Timing::immediate(8), insert: InsertFilter::All },
            );
            Executor::new(&c.predicated, bench.input(seed)).run(&mut harness, 8_000_000);
            harness.metrics().all.mispredictions.get()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Compiled binaries are lint-clean: every guard is defined somewhere,
/// nothing is unreachable, and execution cannot fall off the end.
#[test]
fn compiled_suite_is_lint_clean() {
    use predbranch::isa::lint_program;
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        for (label, program) in [("plain", &c.plain), ("pred", &c.predicated)] {
            let lints = lint_program(program);
            assert!(
                lints.is_empty(),
                "{}/{label}: {:?}\n{program}",
                c.name,
                lints
            );
        }
    }
}
