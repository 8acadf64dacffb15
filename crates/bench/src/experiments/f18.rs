//! F18 — the paper's question against modern baselines (extension):
//! per-benchmark misprediction rates of gshare, TAGE, and the
//! multiperspective perceptron, each bare and with +SFPF, +PGU, and
//! both.
//!
//! One F3-shaped table per base family. Within a family, the modifier
//! columns answer "do the paper's predicate mechanisms still help on
//! this base?"; across families, the `amean` rows answer "how much of
//! the 2003 win does a stronger baseline simply absorb?". F19 joins
//! these same configurations against the F17 taxonomy to show *where*
//! the surviving wins land.

use predbranch_core::InsertFilter;
use predbranch_modern::ModernSpec;
use predbranch_stats::{geometric_mean, mean, Cell, Table};

use super::{base_spec, modifier_grid, mpp_spec, tage_spec, Artifact, Scale};
use crate::runner::{CellSpec, RunContext};

/// The three base predictors, in table order.
pub(super) fn families() -> Vec<(&'static str, ModernSpec)> {
    vec![
        ("gshare", base_spec().into()),
        ("tage", tage_spec()),
        ("mpp", mpp_spec()),
    ]
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let families = families();

    // one flat grid — family-major, then benchmark, then modifier — so
    // run_cells sees all 12 × |suite| cells at once
    let mut cells_in = Vec::new();
    let mut grids = Vec::new();
    for (family, base) in &families {
        let specs = modifier_grid(base.clone());
        for entry in entries.iter() {
            for (modifier, spec) in &specs {
                cells_in.push(CellSpec::predicated(
                    entry,
                    format!("f18/{}/{family}{modifier}", entry.compiled.name),
                    spec,
                    scale.timing(),
                    InsertFilter::All,
                ));
            }
        }
        grids.push(specs);
    }
    let outs = ctx.run_cells(cells_in);

    let mut artifacts = Vec::with_capacity(families.len());
    let mut cursor = 0;
    for ((family, _), specs) in families.iter().zip(&grids) {
        let mut header = vec!["bench"];
        header.extend(specs.iter().map(|(modifier, _)| *modifier));
        let mut table = Table::new(
            format!("F18: misprediction rate (%), {family} family, predicated binaries"),
            &header,
        );

        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        for entry in entries.iter() {
            let mut cells = vec![Cell::new(entry.compiled.name)];
            for column in &mut columns {
                column.push(outs[cursor].misp_percent());
                cells.push(Cell::percent(outs[cursor].misp_percent()));
                cursor += 1;
            }
            table.row(cells);
        }

        let mut amean = vec![Cell::new("amean")];
        let mut relative = vec![Cell::new("vs base")];
        let base_gmean = geometric_mean(&columns[0]).max(1e-9);
        for column in &columns {
            amean.push(Cell::percent(mean(column)));
            relative.push(Cell::float(geometric_mean(column) / base_gmean, 3));
        }
        table.row(amean);
        table.row(relative);
        artifacts.push(Artifact::Table(table));
    }
    artifacts
}
