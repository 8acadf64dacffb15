//! Compares the two timing models on every benchmark: the closed-form
//! pipeline estimate vs the event-driven fetch timeline, under the
//! baseline and the combined techniques.
//!
//! ```text
//! cargo run --release -p predbranch --example timing_model
//! ```

use predbranch::core::{HarnessConfig, InsertFilter, PredictionHarness, Timing};
use predbranch::modern::{build_modern, ModernSpec};
use predbranch::sim::{Executor, PipelineConfig, PipelineModel};
use predbranch::stats::{Cell, Table};
use predbranch::workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

fn main() {
    let pipe = PipelineConfig::default();
    let base: ModernSpec = "gshare:13/13".parse().unwrap();
    let both: ModernSpec = "gshare:13/13+sfpf+pgu8".parse().unwrap();

    let mut table = Table::new(
        "closed-form model vs event-driven timeline (cycles, gshare baseline)",
        &[
            "bench",
            "model cycles",
            "timeline cycles",
            "model err%",
            "timeline spd (+both)",
        ],
    );
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());
        let run = |spec: &ModernSpec| {
            let mut harness = PredictionHarness::new(
                build_modern(spec),
                HarnessConfig {
                    timing: Timing::immediate(8),
                    insert: InsertFilter::All,
                },
            )
            .with_timeline(pipe);
            let summary =
                Executor::new(&c.predicated, bench.input(EVAL_SEED)).run(&mut harness, 8_000_000);
            assert!(summary.halted);
            let timeline = harness.timeline(&summary).unwrap();
            let unconditional = summary.branches - summary.conditional_branches;
            let model = PipelineModel::estimate(
                &pipe,
                summary.instructions,
                harness.metrics().all.mispredictions.get(),
                summary.taken_conditional + unconditional,
            );
            (model.cycles(), timeline.cycles())
        };
        let (model_base, timeline_base) = run(&base);
        let (_, timeline_both) = run(&both);
        let err = 100.0 * (timeline_base as f64 - model_base as f64) / timeline_base as f64;
        table.row(vec![
            Cell::new(c.name),
            Cell::count(model_base),
            Cell::count(timeline_base),
            Cell::percent(err),
            Cell::float(timeline_base as f64 / timeline_both as f64, 4),
        ]);
    }
    println!("{table}");
    println!(
        "model err% = cycles the closed-form model misses (fetch fragmentation at taken branches)."
    );
}
