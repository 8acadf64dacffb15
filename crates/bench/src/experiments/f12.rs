//! F12 — squash-filter policy ablation (extension).
//!
//! Three design questions around the basic filter: does the symmetric
//! known-true → predict-taken rule help, and should filtered branches
//! still train the underlying predictor (keeping its history aligned)
//! or be hidden from it (keeping its tables clean)?

use predbranch_core::InsertFilter;
use predbranch_modern::ModernSpec;
use predbranch_stats::{mean, Cell, Table};

use super::{base_spec, Artifact, Scale};
use crate::runner::{CellSpec, RunContext};

fn policies() -> Vec<(&'static str, ModernSpec)> {
    let base = base_spec();
    let sfpf = |known_true: bool, update_filtered: bool| ModernSpec::Sfpf {
        base: Box::new(base.clone()),
        known_true,
        update_filtered,
        learned_guards: None,
    };
    vec![
        ("no filter", base.clone()),
        ("filter (paper)", sfpf(false, true)),
        ("+ known-true rule", sfpf(true, true)),
        ("hide filtered from tables", sfpf(false, false)),
        ("both extensions", sfpf(true, false)),
        (
            "learned guard table (1K)",
            ModernSpec::Sfpf {
                base: Box::new(base.clone()),
                known_true: false,
                update_filtered: true,
                learned_guards: Some(10),
            },
        ),
    ]
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let all_policies = policies();
    let mut cells_in = Vec::with_capacity(all_policies.len() * entries.len());
    for (pi, (_, spec)) in all_policies.iter().enumerate() {
        for entry in entries.iter() {
            cells_in.push(CellSpec::predicated(
                entry,
                format!("f12/{}/p{pi}", entry.compiled.name),
                spec,
                scale.timing(),
                InsertFilter::All,
            ));
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F12: squash-filter policy ablation (suite means)",
        &["policy", "misp%", "filtered%", "region misp%"],
    );
    let n = entries.len();
    for (pi, (label, _)) in all_policies.iter().enumerate() {
        let slice = &outs[pi * n..(pi + 1) * n];
        let misp: Vec<f64> = slice.iter().map(|o| o.misp_percent()).collect();
        let coverage: Vec<f64> = slice
            .iter()
            .map(|o| o.metrics.filter_coverage().percent())
            .collect();
        let region: Vec<f64> = slice.iter().map(|o| o.region_misp_percent()).collect();
        table.row(vec![
            Cell::new(*label),
            Cell::percent(mean(&misp)),
            Cell::percent(mean(&coverage)),
            Cell::percent(mean(&region)),
        ]);
    }
    vec![Artifact::Table(table)]
}
