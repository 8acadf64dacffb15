//! F5 — predictor budget sweep: suite-mean misprediction rate as the
//! gshare table grows, for all four configurations.
//!
//! The suite's analogs have compact static footprints (tens of hot
//! branches), so capacity pressure appears at *small* tables; the sweep
//! therefore starts at 16 B and runs to 16 KB. The interesting shape:
//! predicate information is worth more than any amount of extra table —
//! the curves flatten with size while the technique gap persists,
//! because the correlation PGU adds is not capacity-limited.

use predbranch_core::InsertFilter;
use predbranch_modern::ModernSpec;
use predbranch_stats::{mean, Series};

use super::{Artifact, Scale};
use crate::runner::{CellSpec, RunContext, PGU_DELAY};

/// Swept table index widths; a `2^n`-entry table of 2-bit counters is
/// `2^(n-2)` bytes.
const INDEX_BITS: [u32; 6] = [6, 8, 10, 12, 14, 16];

const CONFIGS: [&str; 4] = ["gshare", "+SFPF", "+PGU", "+both"];

fn size_label(index_bits: u32) -> String {
    let bytes = 1u64 << (index_bits - 2);
    if bytes < 1024 {
        format!("{bytes}B")
    } else {
        format!("{}KB", bytes / 1024)
    }
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let entries = ctx.suite(scale.limit);
    let mut cells_in = Vec::new();
    for bits in INDEX_BITS {
        let base = ModernSpec::Gshare {
            index_bits: bits,
            history_bits: bits.min(16),
        };
        let specs = [
            base.clone(),
            base.clone().with_sfpf(),
            base.clone().with_pgu(PGU_DELAY),
            base.with_sfpf().with_pgu(PGU_DELAY),
        ];
        for (config, spec) in CONFIGS.iter().zip(&specs) {
            for entry in entries.iter() {
                cells_in.push(CellSpec::predicated(
                    entry,
                    format!("f5/{}/{config}/b{bits}", entry.compiled.name),
                    spec,
                    scale.timing(),
                    InsertFilter::All,
                ));
            }
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut series = Series::new(
        "F5: suite-mean misprediction rate (%) vs gshare table size",
        "size",
    );
    for label in CONFIGS {
        series.line(label);
    }
    let n = entries.len();
    for (bi, bits) in INDEX_BITS.into_iter().enumerate() {
        let mut ys = Vec::with_capacity(CONFIGS.len());
        for ci in 0..CONFIGS.len() {
            let start = (bi * CONFIGS.len() + ci) * n;
            let rates: Vec<f64> = outs[start..start + n]
                .iter()
                .map(|out| out.misp_percent())
                .collect();
            ys.push(mean(&rates));
        }
        series.point(size_label(bits), &ys);
    }
    vec![Artifact::Series(series)]
}
