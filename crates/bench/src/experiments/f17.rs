//! F17 — the H2P taxonomy joined against per-branch mispredictions
//! (extension).
//!
//! One shared decoded pass per benchmark feeds the streaming
//! characterizer *and* a gang of four attribution lanes, one per
//! headline configuration, then every static conditional branch's
//! misprediction counts are grouped by its taxonomy bucket. The join
//! answers the question the taxonomy exists for: which class of branch
//! does each mechanism actually fix?
//!
//! The expected shape — and the claim the test suite pins — is that the
//! SFPF/PGU wins concentrate in the *predicate-predictable* bucket.
//! That is a real prediction, not a tautology: the classifier sees only
//! fetch-visible signals (scoreboard guard knowledge plus a delayed
//! predicate-outcome register), never the architectural guard value the
//! predictors are being scored against.

use predbranch_characterize::{Bucket, Characterization, Characterizer};
use predbranch_core::{GangHarness, HarnessConfig, HotBranches, InsertFilter, Timing};
use predbranch_modern::{build_modern_stack, ModernSpec};
use predbranch_stats::{Align, Cell, Table};
use predbranch_workloads::EVAL_SEED;

use super::{headline_specs, Artifact, Scale};
use crate::runner::{Binary, RunContext, SuiteEntry, DEFAULT_LATENCY};

/// Per-bucket aggregation across the suite: static count, dynamic
/// branches, and mispredictions per attributed spec.
#[derive(Debug, Clone)]
pub(super) struct BucketAgg {
    pub(super) statics: u64,
    pub(super) branches: u64,
    pub(super) misp: Vec<u64>,
}

impl BucketAgg {
    pub(super) fn misp_percent(&self, spec: usize) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.misp[spec] as f64 / self.branches as f64 * 100.0
        }
    }

    /// `spec`'s win over `base` in percentage points (positive = fewer
    /// mispredictions).
    pub(super) fn delta_pp(&self, base: usize, spec: usize) -> f64 {
        self.misp_percent(base) - self.misp_percent(spec)
    }
}

/// Joins each benchmark's taxonomy against its per-branch
/// mispredictions under each of `specs`. Returns the taxonomies in suite
/// order, and one aggregate per bucket in [`Bucket::ALL`] order followed
/// by the aggregate over all of them.
///
/// One pass over each predicated stream feeds the characterizer and a
/// gang with one [`HotBranches`] lane per spec. The lanes always run at
/// immediate update, whatever the study's retire latency (the
/// retire-32 golden pins F17 and F19 that way).
pub(super) fn attribute(
    ctx: &RunContext,
    entries: &[SuiteEntry],
    specs: &[ModernSpec],
) -> (Vec<Characterization>, Vec<BucketAgg>) {
    let results = ctx.map_batch(entries, |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let mut characterizer = Characterizer::new();
        let mut gang = GangHarness::new();
        for spec in specs {
            let config = HarnessConfig {
                timing: Timing::immediate(DEFAULT_LATENCY),
                insert: InsertFilter::All,
            };
            gang.push_lane(HotBranches::new(build_modern_stack(spec)), config);
        }
        let cache_label = format!("{}-pred", entry.compiled.name);
        ctx.stream_events(&cache_label, &stream, &mut (&mut characterizer, &mut gang));
        let lanes = gang.into_lanes();
        let report = characterizer.finish();
        // each profiled static's mispredictions, one count per spec
        let misp: Vec<Vec<u64>> = report
            .branches()
            .iter()
            .map(|profile| {
                lanes
                    .iter()
                    .map(|lane| {
                        let counts = lane.predictor().at(profile.pc);
                        counts.map_or(0, |c| c.mispredictions.get())
                    })
                    .collect()
            })
            .collect();
        (report, misp)
    });
    let empty = BucketAgg {
        statics: 0,
        branches: 0,
        misp: vec![0; specs.len()],
    };
    let total = Bucket::ALL.len();
    let mut aggs = vec![empty; total + 1];
    let mut reports = Vec::with_capacity(results.len());
    for (report, misp) in results {
        for (profile, counts) in report.branches().iter().zip(&misp) {
            let slot = Bucket::ALL
                .iter()
                .position(|&b| b == profile.bucket)
                .expect("bucket in ALL");
            for i in [slot, total] {
                let agg = &mut aggs[i];
                agg.statics += 1;
                agg.branches += profile.executions;
                for (sum, &count) in agg.misp.iter_mut().zip(counts) {
                    *sum += count;
                }
            }
        }
        reports.push(report);
    }
    (reports, aggs)
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let specs: Vec<ModernSpec> = headline_specs().into_iter().map(|(_, spec)| spec).collect();
    let (reports, aggs) = attribute(ctx, &entries, &specs);

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
    for (label, a) in bucket_labels().zip(&aggs) {
        deltas.row(bucket_row(label, a));
    }

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
    for (entry, report) in entries.iter().zip(&reports) {
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

/// Row labels for [`attribute`]'s aggregates: each bucket, then
/// `(all)`.
pub(super) fn bucket_labels() -> impl Iterator<Item = &'static str> {
    Bucket::ALL.iter().map(|b| b.label()).chain(["(all)"])
}

fn bucket_row(label: &str, a: &BucketAgg) -> Vec<Cell> {
    vec![
        Cell::new(label),
        Cell::count(a.statics),
        Cell::count(a.branches),
        Cell::percent(a.misp_percent(0)),
        Cell::float(a.delta_pp(0, 1), 2),
        Cell::float(a.delta_pp(0, 2), 2),
        Cell::float(a.delta_pp(0, 3), 2),
    ]
}
