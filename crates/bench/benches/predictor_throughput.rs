//! Criterion microbenchmarks: raw predictor lookup/update throughput on a
//! recorded branch stream, per predictor configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use predbranch_core::{
    build_predictor, build_predictor_stack, BranchInfo, HarnessConfig, InsertFilter,
    PredictionHarness, PredictorSpec, Timing,
};
use predbranch_sim::{
    Event, EventSink, Executor, PredicateScoreboard, TraceSink, EVENT_BATCH_CAPACITY,
};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

/// Records the gzip analog's event stream once.
fn recorded_events() -> Vec<Event> {
    let bench = &suite()[0];
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    let mut trace = TraceSink::new();
    let summary =
        Executor::new(&compiled.predicated, bench.input(EVAL_SEED)).run(&mut trace, 4_000_000);
    assert!(summary.halted);
    trace.events().to_vec()
}

fn specs() -> Vec<PredictorSpec> {
    let base = PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    vec![
        PredictorSpec::Bimodal { index_bits: 14 },
        base.clone(),
        base.clone().with_sfpf(),
        base.clone().with_pgu(8),
        base.with_sfpf().with_pgu(8),
    ]
}

fn bench_predictors(c: &mut Criterion) {
    let events = recorded_events();
    let branches = events
        .iter()
        .filter(|e| matches!(e, Event::Branch(b) if b.conditional))
        .count() as u64;
    let mut group = c.benchmark_group("predictor_throughput");
    group.throughput(Throughput::Elements(branches));
    for spec in specs() {
        let name = build_predictor(&spec).name();
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| {
                let mut predictor = build_predictor(spec);
                let mut scoreboard = PredicateScoreboard::new(8);
                let mut mispredicts = 0u64;
                for event in &events {
                    match event {
                        Event::PredWrite(w) => {
                            scoreboard.observe(w);
                            predictor.on_pred_write(w);
                        }
                        Event::Branch(br) if br.conditional => {
                            let info = BranchInfo::from_event(br);
                            let predicted = predictor.predict(&info, &scoreboard);
                            if predicted != br.taken {
                                mispredicts += 1;
                            }
                            predictor.update(&info, br.taken, &scoreboard);
                        }
                        Event::Branch(_) => {}
                    }
                }
                mispredicts
            })
        });
    }
    group.finish();
}

/// Harness replay throughput over the recorded stream, crossing retire
/// latency (immediate 0 vs the study's realistic 8) with dispatch
/// (boxed trait object, per-event delivery vs enum stack, batched
/// delivery).
fn bench_harness_replay(c: &mut Criterion) {
    let events = recorded_events();
    let branches = events
        .iter()
        .filter(|e| matches!(e, Event::Branch(b) if b.conditional))
        .count() as u64;
    let spec = PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    }
    .with_sfpf()
    .with_pgu(8);
    let config = |retire: u64| HarnessConfig {
        timing: Timing::new(8, retire),
        insert: InsertFilter::All,
    };
    let mut group = c.benchmark_group("harness_replay");
    group.throughput(Throughput::Elements(branches));
    for retire in [0u64, 8] {
        group.bench_with_input(
            BenchmarkId::new("dyn_per_event", retire),
            &retire,
            |b, &retire| {
                b.iter(|| {
                    let mut harness =
                        PredictionHarness::new(build_predictor(&spec), config(retire));
                    for event in &events {
                        harness.event(event);
                    }
                    harness.finish();
                    harness.metrics().all.mispredictions.get()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("enum_batched", retire),
            &retire,
            |b, &retire| {
                b.iter(|| {
                    let mut harness =
                        PredictionHarness::new(build_predictor_stack(&spec), config(retire));
                    for chunk in events.chunks(EVENT_BATCH_CAPACITY) {
                        harness.events(chunk);
                    }
                    harness.finish();
                    harness.metrics().all.mispredictions.get()
                })
            },
        );
    }
    group.finish();
}

fn bench_harness_end_to_end(c: &mut Criterion) {
    let bench = &suite()[0];
    let compiled = compile_benchmark(bench, &CompileOptions::default());
    c.bench_function("end_to_end_sim_plus_predict", |b| {
        b.iter(|| {
            let spec = PredictorSpec::Gshare {
                index_bits: 13,
                history_bits: 13,
            };
            let mut harness = PredictionHarness::new(
                build_predictor(&spec),
                HarnessConfig {
                    timing: Timing::immediate(8),
                    insert: InsertFilter::All,
                },
            );
            let summary = Executor::new(&compiled.predicated, bench.input(EVAL_SEED))
                .run(&mut harness, 4_000_000);
            assert!(summary.halted);
            harness.finish();
            harness.metrics().all.mispredictions.get()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_predictors, bench_harness_replay, bench_harness_end_to_end,
        bench_compile_throughput
}
criterion_main!(benches);

fn bench_compile_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_throughput");
    group.sample_size(10);
    for name in ["gzip", "mcf", "vortex"] {
        let bench = suite().into_iter().find(|b| b.name() == name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let compiled = compile_benchmark(&bench, &CompileOptions::default());
                compiled.predicated.len()
            })
        });
    }
    group.finish();
}
