//! F7 — robustness: applying the techniques to different baseline
//! predictors (bimodal, gshare, local, tournament).
//!
//! SFPF composes with anything; PGU needs a global history register, so
//! it applies to gshare, tournament, perceptron and agree only (for
//! bimodal and local the +PGU column equals the base by construction).

use predbranch_core::InsertFilter;
use predbranch_modern::ModernSpec;
use predbranch_stats::{mean, Cell, Table};

use super::{Artifact, Scale};
use crate::runner::{CellSpec, RunContext, PGU_DELAY};

const VARIANTS: [&str; 4] = ["base", "+SFPF", "+PGU", "+both"];

fn baselines() -> Vec<(&'static str, ModernSpec)> {
    vec![
        ("bimodal", ModernSpec::Bimodal { index_bits: 14 }),
        (
            "gshare",
            ModernSpec::Gshare {
                index_bits: 13,
                history_bits: 13,
            },
        ),
        (
            "local",
            ModernSpec::Local {
                bht_bits: 10,
                history_bits: 10,
                pattern_bits: 12,
            },
        ),
        (
            "tournament",
            ModernSpec::Tournament {
                gshare_bits: 12,
                history_bits: 12,
                bimodal_bits: 12,
                chooser_bits: 12,
            },
        ),
        (
            "perceptron",
            ModernSpec::Perceptron {
                index_bits: 7,
                history_bits: 14,
            },
        ),
        (
            "agree",
            ModernSpec::Agree {
                index_bits: 12,
                history_bits: 12,
            },
        ),
    ]
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let bases = baselines();
    let mut cells_in = Vec::new();
    for (name, base) in &bases {
        let variants = [
            base.clone(),
            base.clone().with_sfpf(),
            base.clone().with_pgu(PGU_DELAY),
            base.clone().with_sfpf().with_pgu(PGU_DELAY),
        ];
        for (variant, spec) in VARIANTS.iter().zip(&variants) {
            for entry in entries.iter() {
                cells_in.push(CellSpec::predicated(
                    entry,
                    format!("f7/{}/{name}/{variant}", entry.compiled.name),
                    spec,
                    scale.timing(),
                    InsertFilter::All,
                ));
            }
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F7: suite-mean misprediction rate (%) per baseline predictor",
        &["baseline", "base", "+SFPF", "+PGU", "+both"],
    );
    let n = entries.len();
    for (bi, (name, _)) in bases.iter().enumerate() {
        let mut cells = vec![Cell::new(*name)];
        for vi in 0..VARIANTS.len() {
            let start = (bi * VARIANTS.len() + vi) * n;
            let rates: Vec<f64> = outs[start..start + n]
                .iter()
                .map(|out| out.misp_percent())
                .collect();
            cells.push(Cell::percent(mean(&rates)));
        }
        table.row(cells);
    }
    vec![Artifact::Table(table)]
}
