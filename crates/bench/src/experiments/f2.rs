//! F2 — fetch-time guard knowledge vs resolve latency: the squash
//! filter's opportunity.
//!
//! For each scoreboard resolve latency, classify every fetched
//! conditional branch of the predicated binaries by what fetch knows
//! about its guard: known-false (squashable with 100% accuracy),
//! known-true, or unresolved.

use predbranch_sim::{Executor, GuardKnowledgeStats};
use predbranch_stats::{mean, Cell, Series, Table};
use predbranch_workloads::{DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED};

use super::{Artifact, Scale};
use crate::runner::{Binary, RunContext, DEFAULT_LATENCY};

const LATENCIES: [u64; 6] = [0, 2, 4, 8, 16, 32];

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);

    // one classification job per (latency, entry), latency-major so the
    // aggregation below can slice per latency step
    let mut jobs: Vec<Box<dyn FnOnce() -> GuardKnowledgeStats + Send>> = Vec::new();
    for latency in LATENCIES {
        for entry in entries.iter() {
            let stream = entry.stream(Binary::Predicated, EVAL_SEED);
            jobs.push(Box::new(move || {
                let mut stats = GuardKnowledgeStats::new(latency);
                let summary = Executor::new(stream.program(), stream.memory().clone())
                    .run(&mut stats, DEFAULT_MAX_INSTRUCTIONS);
                assert!(summary.halted);
                stats
            }));
        }
    }
    let all_stats = ctx.map_batch(jobs);

    let mut series = Series::new(
        "F2a: fetch-time guard knowledge vs resolve latency (suite mean, % of cond branches)",
        "latency",
    );
    series.line("known-false");
    series.line("known-true");
    series.line("unknown");
    let n = entries.len();
    for (li, latency) in LATENCIES.into_iter().enumerate() {
        let slice = &all_stats[li * n..(li + 1) * n];
        let kf: Vec<f64> = slice.iter().map(|s| s.known_false().percent()).collect();
        let kt: Vec<f64> = slice.iter().map(|s| s.known_true().percent()).collect();
        let unk: Vec<f64> = slice.iter().map(|s| s.unknown().percent()).collect();
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
    for (entry, stats) in entries
        .iter()
        .zip(&all_stats[default_idx * n..(default_idx + 1) * n])
    {
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
