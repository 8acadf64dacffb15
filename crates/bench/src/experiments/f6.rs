//! F6 — PGU insertion-timing sensitivity.
//!
//! Sweeps the delay between a compare executing and its predicate bit
//! entering global history: 0 models an ideal speculative front-end
//! insertion, the resolve latency (8) models commit-time update, larger
//! values model a sluggish update path. Also reports the measured
//! guard-definition-to-branch distances, which bound how much delay the
//! correlation can survive.

use predbranch_core::InsertFilter;
use predbranch_sim::{Executor, GuardKnowledgeStats};
use predbranch_stats::{mean, Cell, Series, Table};
use predbranch_workloads::EVAL_SEED;

use super::{base_spec, Artifact, Scale};
use crate::runner::{Binary, CellSpec, RunContext, CELL_BUDGET, DEFAULT_LATENCY};

const DELAYS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);

    let mut cells_in = Vec::with_capacity(DELAYS.len() * entries.len());
    for delay in DELAYS {
        let spec = base_spec().with_pgu(delay);
        for entry in entries.iter() {
            cells_in.push(CellSpec::predicated(
                entry,
                format!("f6/{}/d{delay}", entry.compiled.name),
                &spec,
                scale.timing(),
                InsertFilter::All,
            ));
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut series = Series::new(
        "F6a: suite-mean misprediction rate (%) vs PGU insertion delay",
        "delay",
    );
    series.line("+PGU");
    let n = entries.len();
    for (di, delay) in DELAYS.into_iter().enumerate() {
        let rates: Vec<f64> = outs[di * n..(di + 1) * n]
            .iter()
            .map(|out| out.misp_percent())
            .collect();
        series.point(delay.to_string(), &[mean(&rates)]);
    }

    // guard distances come from an instrumented functional run, not a
    // predictor cell; map_batch runs them on the lanes anyway
    let distances = ctx.map_batch(entries.iter(), |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let mut knowledge = GuardKnowledgeStats::new(DEFAULT_LATENCY);
        let summary = Executor::new(stream.program(), stream.memory().clone())
            .run(&mut knowledge, CELL_BUDGET);
        assert!(summary.halted);
        let hist = knowledge.guard_distance();
        let median_edge = hist.percentile_upper_bound(0.5).unwrap_or(0);
        (hist.mean(), median_edge, hist.max(), hist.count())
    });

    let mut table = Table::new(
        "F6b: guard definition-to-branch distance (fetch slots)",
        &["bench", "mean", "p50<=", "max", "samples"],
    );
    for (entry, (mean_dist, median_edge, max, count)) in entries.iter().zip(distances) {
        table.row(vec![
            Cell::new(entry.compiled.name),
            Cell::float(mean_dist, 1),
            Cell::count(median_edge),
            Cell::count(max),
            Cell::count(count),
        ]);
    }
    vec![Artifact::Series(series), Artifact::Table(table)]
}
