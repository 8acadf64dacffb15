//! F19 — where the modern-tier wins land (extension): the F18
//! configurations joined against the F17 predictability taxonomy.
//!
//! For each benchmark, one shared decoded pass feeds the streaming
//! characterizer and a gang of six per-branch attribution lanes — TAGE
//! and the multiperspective perceptron, each bare, with +SFPF+PGU, and
//! in its predicate-aware form (`ptage`/`pmpp`). Every static
//! conditional branch's misprediction counts are then grouped by its
//! taxonomy bucket, through the join F17 uses.
//!
//! The claim under test — the paper's conclusion carried forward 20
//! years — is that whatever accuracy the predicate mechanisms still buy
//! on top of a modern base concentrates in the *predicate-predictable*
//! bucket: the branches whose guards resolve early or whose predicate
//! context is informative, exactly the population the 2003 mechanisms
//! were designed for. On the other buckets a strong history-based base
//! has little left to gain from predicate signals.

use predbranch_modern::ModernSpec;
use predbranch_stats::{Align, Cell, Table};

use super::f17::{attribute, bucket_labels, BucketAgg};
use super::{mpp_spec, tage_spec, Artifact, Scale};
use crate::runner::{RunContext, PGU_DELAY};

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

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let (_, aggs) = attribute(ctx, &entries, &configs());

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
    for (label, a) in bucket_labels().zip(&aggs) {
        table.row(bucket_row(label, a));
    }

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
    use crate::runner::{CellSpec, DEFAULT_LATENCY};

    /// F17 and F19 attribute mispredictions on `HotBranches` gang lanes,
    /// which run the cells' lifecycle and count a misprediction at each
    /// `squash`, where a cell counts it at `predict`. For every
    /// benchmark and every spec of the two figures, the join's `(all)`
    /// aggregate must hold the cell's mispredictions.
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
            let (_, aggs) = attribute(&ctx, std::slice::from_ref(entry), &specs);
            let all = aggs.last().expect("the (all) aggregate");
            for ((spec, outcome), &attributed) in specs.iter().zip(&outcomes).zip(&all.misp) {
                assert_eq!(
                    attributed,
                    outcome.metrics.all.mispredictions.get(),
                    "{name}: {spec:?}"
                );
            }
        }
    }
}
