//! F17 — the H2P taxonomy joined against per-branch mispredictions
//! (extension).
//!
//! One shared decoded pass per benchmark feeds the streaming
//! characterizer *and* all four headline attribution harnesses, then
//! every static conditional branch's misprediction counts are grouped
//! by its taxonomy bucket. The join answers the question the taxonomy
//! exists for: which class of branch does each mechanism actually fix?
//!
//! The expected shape — and the claim the test suite pins — is that the
//! SFPF/PGU wins concentrate in the *predicate-predictable* bucket.
//! That is a real prediction, not a tautology: the classifier sees only
//! fetch-visible signals (scoreboard guard knowledge plus a delayed
//! predicate-outcome register), never the architectural guard value the
//! predictors are being scored against.

use predbranch_characterize::{Bucket, Characterization, Characterizer};
use predbranch_core::HotBranches;
use predbranch_modern::{build_modern_stack, ModernStack};
use predbranch_stats::{Align, Cell, Table};
use predbranch_workloads::EVAL_SEED;

use super::{headline_specs, Artifact, Scale};
use crate::runner::{Binary, RunContext, DEFAULT_LATENCY};

/// One benchmark's taxonomy plus each profiled static's misprediction
/// counts under the four headline configurations (in [`headline_specs`]
/// order).
type EntryResult = (Characterization, std::collections::BTreeMap<u32, [u64; 4]>);

/// Per-bucket aggregation across the suite: static count, dynamic
/// branches, and mispredictions per headline configuration.
#[derive(Debug, Default, Clone, Copy)]
struct BucketAgg {
    statics: u64,
    branches: u64,
    misp: [u64; 4],
}

impl BucketAgg {
    fn misp_percent(&self, config: usize) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.misp[config] as f64 / self.branches as f64 * 100.0
        }
    }

    /// The mechanism's win over gshare in percentage points (positive =
    /// fewer mispredictions).
    fn delta_pp(&self, config: usize) -> f64 {
        self.misp_percent(0) - self.misp_percent(config)
    }
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);

    let specs = headline_specs();
    let results: Vec<EntryResult> = ctx.map_batch(entries.iter(), |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let cache_label = format!("{}-pred", entry.compiled.name);
        let hot =
            |i: usize| HotBranches::new(build_modern_stack(&(&specs[i].1).into()), DEFAULT_LATENCY);
        let mut characterizer = Characterizer::new();
        let (mut h0, mut h1, mut h2, mut h3) = (hot(0), hot(1), hot(2), hot(3));
        {
            // tuple sinks: the one decoded pass fans out to the
            // characterizer and all four attribution harnesses
            let mut sink = (&mut characterizer, (&mut h0, (&mut h1, (&mut h2, &mut h3))));
            ctx.stream_events(&cache_label, &stream, &mut sink);
        }
        let report = characterizer.finish();
        let hots: [HotBranches<ModernStack>; 4] = [h0, h1, h2, h3];
        let misp = report
            .branches()
            .iter()
            .map(|profile| {
                let mut counts = [0u64; 4];
                for (slot, hot) in counts.iter_mut().zip(&hots) {
                    *slot = hot.at(profile.pc).map_or(0, |c| c.mispredictions.get());
                }
                (profile.pc, counts)
            })
            .collect();
        (report, misp)
    });

    // join: every static's attribution counts land in its bucket
    let mut agg = [BucketAgg::default(); 4];
    let mut total = BucketAgg::default();
    for (report, misp) in &results {
        for profile in report.branches() {
            let slot = Bucket::ALL
                .iter()
                .position(|&b| b == profile.bucket)
                .expect("bucket in ALL");
            for (config, &count) in misp[&profile.pc].iter().enumerate() {
                agg[slot].misp[config] += count;
                total.misp[config] += count;
            }
            agg[slot].statics += 1;
            agg[slot].branches += profile.executions;
            total.statics += 1;
            total.branches += profile.executions;
        }
    }

    let mut deltas = Table::new(
        "F17: misprediction win over gshare (pp) by taxonomy bucket",
        &[
            "bucket", "statics", "branches", "gshare", "+SFPF", "+PGU", "+both",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (bucket, a) in Bucket::ALL.iter().zip(&agg) {
        deltas.row(bucket_row(bucket.label(), a));
    }
    deltas.row(bucket_row("(all)", &total));

    let mut population = Table::new(
        "F17: static-branch taxonomy per benchmark",
        &[
            "benchmark",
            "statics",
            "biased",
            "history",
            "predicate",
            "hard",
        ],
    )
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (entry, (report, _)) in entries.iter().zip(&results) {
        let mut row = vec![
            Cell::new(entry.compiled.name),
            Cell::count(report.branches().len() as u64),
        ];
        for bucket in Bucket::ALL {
            row.push(Cell::count(report.bucket_count(bucket) as u64));
        }
        population.row(row);
    }

    vec![Artifact::Table(deltas), Artifact::Table(population)]
}

fn bucket_row(label: &str, a: &BucketAgg) -> Vec<Cell> {
    vec![
        Cell::new(label),
        Cell::count(a.statics),
        Cell::count(a.branches),
        Cell::percent(a.misp_percent(0)),
        Cell::float(a.delta_pp(1), 2),
        Cell::float(a.delta_pp(2), 2),
        Cell::float(a.delta_pp(3), 2),
    ]
}
