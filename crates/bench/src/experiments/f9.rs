//! F9 — oracle headroom: how much of the distance to perfect prediction
//! the techniques capture.
//!
//! The perfect-guard oracle is 100% accurate on this ISA (a branch *is*
//! its guard), so the headroom is simply the baseline misprediction
//! rate; the figure reports what fraction of it each configuration
//! recovers, realistically timed and with ideal (zero-latency) predicate
//! delivery.

use predbranch_core::{InsertFilter, Timing};
use predbranch_modern::ModernSpec;
use predbranch_stats::{mean, Cell, Table};

use super::{base_spec, Artifact, Scale};
use crate::runner::{CellSpec, RunContext, DEFAULT_LATENCY, PGU_DELAY};

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let base = base_spec();
    let both_real = base.clone().with_sfpf().with_pgu(PGU_DELAY);
    let both_ideal = base.clone().with_sfpf().with_pgu(0);
    let oracle = ModernSpec::OracleGuard;
    // (column tag, spec, resolve latency); ideal timing = zero resolve
    // latency and zero insertion delay
    let configs = [
        ("gshare", &base, DEFAULT_LATENCY),
        ("real", &both_real, DEFAULT_LATENCY),
        ("ideal", &both_ideal, 0),
        ("oracle", &oracle, DEFAULT_LATENCY),
    ];

    let entries = ctx.suite(scale.limit);
    let mut cells_in = Vec::with_capacity(entries.len() * configs.len());
    for entry in entries.iter() {
        for (tag, spec, latency) in &configs {
            cells_in.push(CellSpec::predicated(
                entry,
                format!("f9/{}/{tag}", entry.compiled.name),
                *spec,
                Timing::new(*latency, scale.retire_latency),
                InsertFilter::All,
            ));
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F9: misprediction rate (%) against the perfect-guard oracle",
        &[
            "bench",
            "gshare",
            "both (real)",
            "both (ideal timing)",
            "oracle",
            "headroom captured%",
        ],
    );
    let mut captured_all = Vec::new();
    for (row, entry) in entries.iter().enumerate() {
        let rate = |col: usize| outs[row * configs.len() + col].misp_percent();
        let (b, real, ideal, orc) = (rate(0), rate(1), rate(2), rate(3));
        let captured = if b > 1e-9 {
            100.0 * (b - real) / (b - orc).max(1e-9)
        } else {
            100.0
        };
        captured_all.push(captured);
        table.row(vec![
            Cell::new(entry.compiled.name),
            Cell::percent(b),
            Cell::percent(real),
            Cell::percent(ideal),
            Cell::percent(orc),
            Cell::percent(captured),
        ]);
    }
    table.row(vec![
        Cell::new("mean"),
        Cell::new("-"),
        Cell::new("-"),
        Cell::new("-"),
        Cell::new("-"),
        Cell::percent(mean(&captured_all)),
    ]);
    vec![Artifact::Table(table)]
}
