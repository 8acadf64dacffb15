//! F8 — pipeline-level effect: speedup from the reduced flush count.
//!
//! Cycles come from the event-driven [`FetchTimeline`] (fetch
//! fragmentation at taken branches + full flush stalls), cross-checked
//! against the closed-form [`PipelineModel`]; every configuration runs
//! the same predicated binary, so speedups come purely from
//! mispredictions avoided.
//!
//! The timeline counts fetch slots from each branch's dynamic index, so
//! each (benchmark, configuration) pass reads its stream through
//! [`RunContext::stream_events`] like any other sink. A pass is a raw
//! job, not a predictor cell, because a gang carries no timeline.

use predbranch_core::{HarnessConfig, InsertFilter, PredictionHarness};
use predbranch_modern::build_modern;
use predbranch_sim::{PipelineConfig, PipelineModel};
use predbranch_stats::{geometric_mean, Cell, Table};
use predbranch_workloads::EVAL_SEED;

use super::{headline_specs, Artifact, Scale};
use crate::runner::{Binary, RunContext};

struct TimelinePoint {
    cycles: u64,
    ipc: f64,
    /// Closed-form cross-check, computed for the baseline column only.
    model_ipc: Option<f64>,
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let specs = headline_specs();
    let pipe = PipelineConfig::default();
    let timing = scale.timing();
    let entries = ctx.suite(scale.limit);

    let jobs = entries.iter().flat_map(|entry| {
        specs
            .iter()
            .enumerate()
            .map(move |(i, (_, spec))| (entry, i, spec))
    });
    let points = ctx.map_batch(jobs, |(entry, i, spec)| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let mut harness = PredictionHarness::new(
            build_modern(spec),
            HarnessConfig {
                timing,
                insert: InsertFilter::All,
            },
        )
        .with_timeline(pipe);
        let cache_label = format!("{}-pred", entry.compiled.name);
        let summary = ctx.stream_events(&cache_label, &stream, &mut harness);
        harness.finish();
        let timeline = harness.timeline(&summary).expect("timeline attached");
        let model_ipc = (i == 0).then(|| {
            let unconditional = summary.branches - summary.conditional_branches;
            PipelineModel::estimate(
                &pipe,
                summary.instructions,
                harness.metrics().all.mispredictions.get(),
                summary.taken_conditional + unconditional,
            )
            .ipc()
        });
        TimelinePoint {
            cycles: timeline.cycles(),
            ipc: timeline.ipc(),
            model_ipc,
        }
    });

    let mut table = Table::new(
        "F8: IPC and speedup over the gshare baseline (event-driven fetch timeline)",
        &[
            "bench",
            "IPC gshare",
            "spd +SFPF",
            "spd +PGU",
            "spd +both",
            "model IPC",
        ],
    );
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); specs.len() - 1];
    for (row, entry) in entries.iter().enumerate() {
        let slice = &points[row * specs.len()..(row + 1) * specs.len()];
        let mut cells = vec![Cell::new(entry.compiled.name), Cell::float(slice[0].ipc, 3)];
        for (i, point) in slice.iter().enumerate().skip(1) {
            let speedup = slice[0].cycles as f64 / point.cycles as f64;
            speedups[i - 1].push(speedup);
            cells.push(Cell::float(speedup, 4));
        }
        cells.push(Cell::float(slice[0].model_ipc.unwrap_or(0.0), 3));
        table.row(cells);
    }
    let mut gmean = vec![Cell::new("gmean"), Cell::new("-")];
    for col in &speedups {
        gmean.push(Cell::float(geometric_mean(col), 4));
    }
    gmean.push(Cell::new("-"));
    table.row(gmean);
    vec![Artifact::Table(table)]
}
