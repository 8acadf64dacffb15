//! F19 — where the modern-tier wins land (extension): the F18
//! configurations joined against the F17 predictability taxonomy.
//!
//! For each benchmark, one shared decoded pass feeds the streaming
//! characterizer and six per-branch attribution harnesses — TAGE and
//! the multiperspective perceptron, each bare, with +SFPF+PGU, and in
//! its predicate-aware form (`ptage`/`pmpp`). Every static conditional
//! branch's misprediction counts are then grouped by its taxonomy
//! bucket.
//!
//! The claim under test — the paper's conclusion carried forward 20
//! years — is that whatever accuracy the predicate mechanisms still buy
//! on top of a modern base concentrates in the *predicate-predictable*
//! bucket: the branches whose guards resolve early or whose predicate
//! context is informative, exactly the population the 2003 mechanisms
//! were designed for. On the other buckets a strong history-based base
//! has little left to gain from predicate signals.

use predbranch_characterize::{Bucket, Characterization, Characterizer};
use predbranch_core::HotBranches;
use predbranch_modern::{build_modern_stack, ModernSpec, ModernStack};
use predbranch_stats::{Align, Cell, Table};
use predbranch_workloads::EVAL_SEED;

use super::{mpp_spec, tage_spec, Artifact, Scale};
use crate::runner::{Binary, RunContext, DEFAULT_LATENCY, PGU_DELAY};

/// The six configurations, in column order: each family's base, its
/// +SFPF+PGU wrapping, and its predicate-aware variant.
fn configs() -> [ModernSpec; 6] {
    let both = |spec: ModernSpec| spec.with_sfpf().with_pgu(PGU_DELAY);
    [
        tage_spec(),
        both(tage_spec()),
        predicate_variant(tage_spec()),
        mpp_spec(),
        both(mpp_spec()),
        predicate_variant(mpp_spec()),
    ]
}

/// The predicate-aware form of a modern base spec, keeping its
/// geometry in lock-step with the F18 configuration.
fn predicate_variant(spec: ModernSpec) -> ModernSpec {
    match spec {
        ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            ..
        } => ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            predicate: true,
        },
        ModernSpec::Mpp { index_bits, .. } => ModernSpec::Mpp {
            index_bits,
            predicate: true,
        },
        other => other,
    }
}

/// One benchmark's taxonomy plus each profiled static's misprediction
/// counts under the six configurations (in [`configs`] order).
type EntryResult = (Characterization, std::collections::BTreeMap<u32, [u64; 6]>);

/// Per-bucket aggregation across the suite.
#[derive(Debug, Default, Clone, Copy)]
struct BucketAgg {
    statics: u64,
    branches: u64,
    misp: [u64; 6],
}

impl BucketAgg {
    fn misp_percent(&self, config: usize) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.misp[config] as f64 / self.branches as f64 * 100.0
        }
    }

    /// `config`'s win over its family base in percentage points
    /// (positive = fewer mispredictions).
    fn delta_pp(&self, base: usize, config: usize) -> f64 {
        self.misp_percent(base) - self.misp_percent(config)
    }
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);

    let specs = configs();
    let results: Vec<EntryResult> = ctx.map_batch(entries.iter(), |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let cache_label = format!("{}-pred", entry.compiled.name);
        let hot = |i: usize| HotBranches::new(build_modern_stack(&specs[i]), DEFAULT_LATENCY);
        let mut characterizer = Characterizer::new();
        let (mut h0, mut h1, mut h2) = (hot(0), hot(1), hot(2));
        let (mut h3, mut h4, mut h5) = (hot(3), hot(4), hot(5));
        {
            // tuple sinks: the one decoded pass fans out to the
            // characterizer and all six attribution harnesses
            let mut sink = (
                &mut characterizer,
                (&mut h0, (&mut h1, (&mut h2, (&mut h3, (&mut h4, &mut h5))))),
            );
            ctx.stream_events(&cache_label, &stream, &mut sink);
        }
        let report = characterizer.finish();
        let hots: [HotBranches<ModernStack>; 6] = [h0, h1, h2, h3, h4, h5];
        let misp = report
            .branches()
            .iter()
            .map(|profile| {
                let mut counts = [0u64; 6];
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

    let mut table = Table::new(
        "F19: modern-tier misprediction win over each family base (pp) by taxonomy bucket",
        &[
            "bucket",
            "statics",
            "branches",
            "tage",
            "tage+both",
            "ptage",
            "mpp",
            "mpp+both",
            "pmpp",
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
        Align::Right,
        Align::Right,
    ]);
    for (bucket, a) in Bucket::ALL.iter().zip(&agg) {
        table.row(bucket_row(bucket.label(), a));
    }
    table.row(bucket_row("(all)", &total));

    vec![Artifact::Table(table)]
}

fn bucket_row(label: &str, a: &BucketAgg) -> Vec<Cell> {
    vec![
        Cell::new(label),
        Cell::count(a.statics),
        Cell::count(a.branches),
        Cell::percent(a.misp_percent(0)),
        Cell::float(a.delta_pp(0, 1), 2),
        Cell::float(a.delta_pp(0, 2), 2),
        Cell::percent(a.misp_percent(3)),
        Cell::float(a.delta_pp(3, 4), 2),
        Cell::float(a.delta_pp(3, 5), 2),
    ]
}

#[cfg(test)]
mod tests {
    use predbranch_core::{InsertFilter, Timing};

    use super::*;
    use crate::experiments::headline_specs;
    use crate::runner::CellSpec;

    /// F17 and F19 attribute mispredictions through `HotBranches`, which
    /// drives its predictor's lifecycle itself (it speculates on the
    /// outcome, not on the prediction); the cells run the same specs as
    /// gang lanes. At retire latency 0 both must count the same
    /// mispredictions for every benchmark and every spec of the two
    /// figures.
    #[test]
    fn attribution_agrees_with_the_cells() {
        let ctx = RunContext::new();
        let specs: Vec<ModernSpec> = headline_specs()
            .into_iter()
            .map(|(_, spec)| spec)
            .chain(configs())
            .collect();
        assert_eq!(specs.len(), 10);
        let timing = Timing::immediate(DEFAULT_LATENCY);
        for entry in ctx.suite(Scale::quick().limit).iter() {
            let name = &entry.compiled.name;
            let cells = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let label = format!("hot/{name}/{i}");
                    CellSpec::predicated(entry, label, spec, timing, InsertFilter::All)
                })
                .collect();
            let outcomes = ctx.run_cells(cells);
            let stream = entry.stream(Binary::Predicated, EVAL_SEED);
            for (spec, outcome) in specs.iter().zip(&outcomes) {
                let mut hot = HotBranches::new(build_modern_stack(spec), DEFAULT_LATENCY);
                ctx.stream_events(&format!("{name}-pred"), &stream, &mut hot);
                assert_eq!(
                    hot.total_mispredictions(),
                    outcome.metrics.all.mispredictions.get(),
                    "{name}: {spec:?}"
                );
            }
        }
    }
}
