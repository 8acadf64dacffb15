//! Differential record/replay test: for a spread of suite benchmarks and
//! predictor configurations, driving the prediction harness from a
//! replayed trace must yield *byte-identical* metrics to driving it from
//! live execution. This is the property that justifies the trace cache —
//! prediction depends only on the event stream, which the trace format
//! preserves exactly.

use predbranch_core::{HarnessConfig, PredictionHarness};
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_sim::{Executor, RunSummary};
use predbranch_trace::{program_hash, TraceHeader, TraceReader, TraceWriter};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

/// Smaller than the experiments' budget so the cross-product stays
/// fast, but big enough to exercise real history/scoreboard state.
const BUDGET: u64 = 400_000;

/// The paper's four predictor families: plain gshare, gshare behind the
/// squash false-path filter, the predicate global-update predictor, and
/// the combination.
const SPECS: [&str; 4] = [
    "gshare:12/12",
    "gshare:12/12+sfpf",
    "gshare:12/12+pgu8",
    "gshare:12/12+sfpf+pgu8",
];

#[test]
fn replay_is_byte_identical_to_live_simulation() {
    let all = suite();
    // first, middle, last of the canonical suite order — three distinct
    // control-flow profiles
    let picks = [0, all.len() / 2, all.len() - 1];
    let opts = CompileOptions::default();

    for &i in &picks {
        let bench = &all[i];
        let compiled = compile_benchmark(bench, &opts);
        let program = &compiled.predicated;

        // record once per (binary, input) — exactly the cache's schedule
        let header = TraceHeader::new(bench.name(), program_hash(program), EVAL_SEED, BUDGET);
        let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let recorded: RunSummary =
            Executor::new(program, bench.input(EVAL_SEED)).run(&mut writer, BUDGET);
        let bytes = writer.finish(&recorded).unwrap();

        for spec_str in SPECS {
            let spec: ModernSpec = spec_str.parse().unwrap();

            let mut live = PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
            let live_summary: RunSummary =
                Executor::new(program, bench.input(EVAL_SEED)).run(&mut live, BUDGET);

            let mut replayed =
                PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
            let stats = TraceReader::new(bytes.as_slice())
                .unwrap()
                .replay(&mut replayed)
                .unwrap();

            assert_eq!(
                live.metrics(),
                replayed.metrics(),
                "metrics diverge for {} × {spec_str}",
                bench.name()
            );
            assert_eq!(
                stats.summary,
                live_summary,
                "restored summary diverges for {} × {spec_str}",
                bench.name()
            );
        }
    }
}

#[test]
fn replayed_events_drive_replay_events_identically() {
    // the buffered-replay entry point (PredictionHarness::replay_events)
    // and the streaming reader must agree with each other too
    let bench = &suite()[1];
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    let program = &compiled.predicated;

    let header = TraceHeader::new(bench.name(), program_hash(program), EVAL_SEED, BUDGET);
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    let summary = Executor::new(program, bench.input(EVAL_SEED)).run(&mut writer, BUDGET);
    let bytes = writer.finish(&summary).unwrap();

    let spec: ModernSpec = "gshare:12/12+sfpf+pgu8".parse().unwrap();
    let (events, _) = TraceReader::new(bytes.as_slice())
        .unwrap()
        .read_events()
        .unwrap();

    let mut buffered = PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
    buffered.replay_events(&events);

    let mut streamed = PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
    TraceReader::new(bytes.as_slice())
        .unwrap()
        .replay(&mut streamed)
        .unwrap();

    assert_eq!(buffered.metrics(), streamed.metrics());
}

#[test]
fn plain_binary_replays_identically_too() {
    // the no-if-conversion binary exercises the no-region event shape
    let bench = &suite()[0];
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    let program = &compiled.plain;

    let header = TraceHeader::new(bench.name(), program_hash(program), EVAL_SEED, BUDGET);
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    let summary = Executor::new(program, bench.input(EVAL_SEED)).run(&mut writer, BUDGET);
    let bytes = writer.finish(&summary).unwrap();

    let spec: ModernSpec = "gshare:12/12".parse().unwrap();
    let mut live = PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
    Executor::new(program, bench.input(EVAL_SEED)).run(&mut live, BUDGET);

    let mut replayed = PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
    TraceReader::new(bytes.as_slice())
        .unwrap()
        .replay(&mut replayed)
        .unwrap();

    assert_eq!(live.metrics(), replayed.metrics());
}
