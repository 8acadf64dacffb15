//! T1 — workload characterization.
//!
//! For every benchmark: static and dynamic instruction counts of both
//! binaries, how many dynamic conditional branches if-conversion
//! removed, what fraction of the survivors are region-based, and the
//! predicate-definition density — the table that establishes the branch
//! population the techniques target.

use predbranch_sim::{ExecMetrics, Executor};
use predbranch_stats::{Cell, Table};
use predbranch_workloads::{DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED};

use super::{Artifact, Scale};
use crate::runner::{Binary, RunContext};

struct Characterization {
    plain: predbranch_sim::RunSummary,
    pred: predbranch_sim::RunSummary,
    region_percent: f64,
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let jobs = entries
        .iter()
        .map(|entry| {
            let plain_stream = entry.stream(Binary::Plain, EVAL_SEED);
            let pred_stream = entry.stream(Binary::Predicated, EVAL_SEED);
            let job: Box<dyn FnOnce() -> Characterization + Send> = Box::new(move || {
                let mut plain_metrics = ExecMetrics::new();
                let plain = Executor::new(plain_stream.program(), plain_stream.memory().clone())
                    .run(&mut plain_metrics, DEFAULT_MAX_INSTRUCTIONS);
                let mut pred_metrics = ExecMetrics::new();
                let pred = Executor::new(pred_stream.program(), pred_stream.memory().clone())
                    .run(&mut pred_metrics, DEFAULT_MAX_INSTRUCTIONS);
                Characterization {
                    plain,
                    pred,
                    region_percent: pred_metrics.region_fraction().percent(),
                }
            });
            job
        })
        .collect();
    let rows = ctx.map_batch(jobs);

    let mut table = Table::new(
        "T1: workload characterization (plain vs if-converted)",
        &[
            "bench",
            "static",
            "static.pred",
            "dyn insts",
            "dyn insts.pred",
            "cond br",
            "cond br.pred",
            "removed%",
            "region%",
            "pdefs/1k",
        ],
    );
    for (entry, c) in entries.iter().zip(rows) {
        let removed = 100.0
            * (1.0
                - c.pred.conditional_branches as f64 / c.plain.conditional_branches.max(1) as f64);
        let pdefs_per_k = c.pred.pred_writes as f64 * 1000.0 / c.pred.instructions.max(1) as f64;
        table.row(vec![
            Cell::new(entry.compiled.name),
            Cell::count(u64::from(entry.compiled.plain.len())),
            Cell::count(u64::from(entry.compiled.predicated.len())),
            Cell::count(c.plain.instructions),
            Cell::count(c.pred.instructions),
            Cell::count(c.plain.conditional_branches),
            Cell::count(c.pred.conditional_branches),
            Cell::percent(removed),
            Cell::percent(c.region_percent),
            Cell::float(pdefs_per_k, 1),
        ]);
    }
    vec![Artifact::Table(table)]
}
