//! T1 — workload characterization.
//!
//! For every benchmark: static and dynamic instruction counts of both
//! binaries, how many dynamic conditional branches if-conversion
//! removed, what fraction of the survivors are region-based, and the
//! predicate-definition density — the table that establishes the branch
//! population the techniques target.

use predbranch_sim::{Executor, NullSink};
use predbranch_stats::{Cell, Ratio, Table};
use predbranch_workloads::EVAL_SEED;

use super::{Artifact, Scale};
use crate::runner::{Binary, RunContext, CELL_BUDGET};

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let rows = ctx.map_batch(entries.iter(), |entry| {
        [Binary::Plain, Binary::Predicated].map(|binary| {
            let stream = entry.stream(binary, EVAL_SEED);
            let summary = Executor::new(stream.program(), stream.memory().clone())
                .run(&mut NullSink, CELL_BUDGET);
            assert!(summary.halted);
            summary
        })
    });

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
    for (entry, [plain, pred]) in entries.iter().zip(rows) {
        let removed = 100.0
            * (1.0 - pred.conditional_branches as f64 / plain.conditional_branches.max(1) as f64);
        let region = Ratio::of(pred.region_branches, pred.conditional_branches);
        let pdefs_per_k = pred.pred_writes as f64 * 1000.0 / pred.instructions.max(1) as f64;
        table.row(vec![
            Cell::new(entry.compiled.name),
            Cell::count(u64::from(entry.compiled.plain.len())),
            Cell::count(u64::from(entry.compiled.predicated.len())),
            Cell::count(plain.instructions),
            Cell::count(pred.instructions),
            Cell::count(plain.conditional_branches),
            Cell::count(pred.conditional_branches),
            Cell::percent(removed),
            Cell::percent(region.percent()),
            Cell::float(pdefs_per_k, 1),
        ]);
    }
    vec![Artifact::Table(table)]
}
