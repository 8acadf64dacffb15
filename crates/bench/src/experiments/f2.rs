//! F2 — fetch-time guard knowledge vs resolve latency: the squash
//! filter's opportunity.
//!
//! For each scoreboard resolve latency, classify every fetched
//! conditional branch of the predicated binaries by what fetch knows
//! about its guard: known-false (squashable with 100% accuracy),
//! known-true, or unresolved.

use predbranch_sim::{Executor, GuardKnowledgeStats};
use predbranch_stats::{mean, Cell, Series, Table};
use predbranch_workloads::EVAL_SEED;

use super::{Artifact, Scale};
use crate::runner::{Binary, RunContext, CELL_BUDGET, DEFAULT_LATENCY};

const LATENCIES: [u64; 6] = [0, 2, 4, 8, 16, 32];

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);

    // one pass per benchmark classifies every latency at once
    let all_stats = ctx.map_batch(entries.iter(), |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let mut stats = LATENCIES.map(GuardKnowledgeStats::new);
        let summary =
            Executor::new(stream.program(), stream.memory().clone()).run(&mut stats, CELL_BUDGET);
        assert!(summary.halted);
        stats
    });

    let mut series = Series::new(
        "F2a: fetch-time guard knowledge vs resolve latency (suite mean, % of cond branches)",
        "latency",
    );
    series.line("known-false");
    series.line("known-true");
    series.line("unknown");
    for (li, latency) in LATENCIES.into_iter().enumerate() {
        let column = || all_stats.iter().map(|stats| &stats[li]);
        let kf: Vec<f64> = column().map(|s| s.known_false().percent()).collect();
        let kt: Vec<f64> = column().map(|s| s.known_true().percent()).collect();
        let unk: Vec<f64> = column().map(|s| s.unknown().percent()).collect();
        series.point(latency.to_string(), &[mean(&kf), mean(&kt), mean(&unk)]);
    }

    let mut table = Table::new(
        "F2b: guard knowledge per benchmark at the default latency",
        &[
            "bench",
            "known-false%",
            "known-true%",
            "unknown%",
            "kf accuracy%",
        ],
    );
    let default_idx = LATENCIES
        .iter()
        .position(|&l| l == DEFAULT_LATENCY)
        .expect("default latency must be part of the sweep");
    for (entry, stats) in entries.iter().zip(&all_stats) {
        let stats = &stats[default_idx];
        let accuracy = if stats.known_false().numerator() == 0 {
            Cell::new("-")
        } else {
            Cell::percent(stats.known_false_accuracy().percent())
        };
        table.row(vec![
            Cell::new(entry.compiled.name),
            Cell::percent(stats.known_false().percent()),
            Cell::percent(stats.known_true().percent()),
            Cell::percent(stats.unknown().percent()),
            accuracy,
        ]);
    }
    vec![Artifact::Series(series), Artifact::Table(table)]
}
