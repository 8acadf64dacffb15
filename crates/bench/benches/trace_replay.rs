//! Criterion comparison of the two ways to drive a predictor over a
//! benchmark: live functional simulation versus replaying a recorded
//! trace. The gap between the two is exactly what the trace cache saves
//! on every predictor configuration after the first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use predbranch_core::{build_predictor, HarnessConfig, PredictionHarness, PredictorSpec};
use predbranch_isa::Program;
use predbranch_sim::{Executor, Memory, RunSummary};
use predbranch_trace::{program_hash, TraceHeader, TraceReader, TraceWriter};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

const BUDGET: u64 = 4_000_000;

/// The gzip analog's predicated binary, its input, and its trace.
fn fixture() -> (Program, Memory, Vec<u8>, RunSummary) {
    let bench = &suite()[0];
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    let program = compiled.predicated;
    let header = TraceHeader::new(bench.name(), program_hash(&program), EVAL_SEED, BUDGET);
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    let summary = Executor::new(&program, bench.input(EVAL_SEED)).run(&mut writer, BUDGET);
    assert!(summary.halted);
    let bytes = writer.finish(&summary).unwrap();
    (program, bench.input(EVAL_SEED), bytes, summary)
}

fn gshare() -> PredictorSpec {
    PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    }
}

fn bench_live_vs_replay(c: &mut Criterion) {
    let (program, memory, trace_bytes, summary) = fixture();
    let spec = gshare();

    let mut group = c.benchmark_group("trace_replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(summary.instructions));

    group.bench_with_input(
        BenchmarkId::new("live_sim", "gzip-gshare"),
        &spec,
        |b, spec| {
            b.iter(|| {
                let mut harness =
                    PredictionHarness::new(build_predictor(spec), HarnessConfig::default());
                let summary = Executor::new(&program, memory.clone()).run(&mut harness, BUDGET);
                assert!(summary.halted);
                harness.metrics().all.mispredictions.get()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("trace_replay", "gzip-gshare"),
        &spec,
        |b, spec| {
            b.iter(|| {
                let mut harness =
                    PredictionHarness::new(build_predictor(spec), HarnessConfig::default());
                TraceReader::new(trace_bytes.as_slice())
                    .unwrap()
                    .replay(&mut harness)
                    .unwrap();
                harness.metrics().all.mispredictions.get()
            })
        },
    );

    group.finish();
}

/// Ganged replay over live passes: one functional simulation feeding a
/// small lane matrix against one simulation per lane — the sweep
/// runner's gang units versus one pass per predictor config, in
/// miniature.
fn bench_gang_vs_per_cell(c: &mut Criterion) {
    use predbranch_core::{build_predictor_stack, GangHarness};
    use predbranch_sim::Event;

    let (program, memory, _, summary) = fixture();
    let specs: Vec<PredictorSpec> = (10..=13)
        .map(|bits| PredictorSpec::Gshare {
            index_bits: bits,
            history_bits: bits,
        })
        .collect();

    let mut group = c.benchmark_group("gang_replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(
        summary.instructions * specs.len() as u64,
    ));

    group.bench_function("per_cell/gzip-4-lanes", |b| {
        b.iter(|| {
            let mut buffer: Vec<Event> = Vec::new();
            specs
                .iter()
                .map(|spec| {
                    let mut harness = PredictionHarness::new(
                        build_predictor_stack(spec),
                        HarnessConfig::default(),
                    );
                    let summary = Executor::new(&program, memory.clone()).run_batched(
                        &mut harness,
                        BUDGET,
                        &mut buffer,
                    );
                    assert!(summary.halted);
                    harness.finish();
                    harness.metrics().all.mispredictions.get()
                })
                .sum::<u64>()
        })
    });

    group.bench_function("ganged/gzip-4-lanes", |b| {
        b.iter(|| {
            let mut gang = GangHarness::new();
            for spec in &specs {
                gang.push_lane(build_predictor_stack(spec), HarnessConfig::default());
            }
            let mut buffer: Vec<Event> = Vec::new();
            let summary =
                Executor::new(&program, memory.clone()).run_batched(&mut gang, BUDGET, &mut buffer);
            assert!(summary.halted);
            gang.into_metrics()
                .iter()
                .map(|m| m.all.mispredictions.get())
                .sum::<u64>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_live_vs_replay, bench_gang_vs_per_cell);
criterion_main!(benches);
