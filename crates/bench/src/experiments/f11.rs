//! F11 — if-conversion aggressiveness (extension ablation).
//!
//! Sweeps the converter's bias threshold from conservative (only
//! near-coin-flip branches convert) to total (everything convertible
//! converts, leaving branchless hyperblock loops). For each setting the
//! table reports the branch population, the misprediction rates, and —
//! the number that actually matters — total pipeline cycles relative to
//! the *plain* binary with the same gshare: predication removes flushes
//! but pays fetch slots for both paths, and better region-branch
//! prediction shifts the break-even point.

use predbranch_core::InsertFilter;
use predbranch_sim::{PipelineConfig, PipelineModel};
use predbranch_stats::{mean, Cell, Table};
use predbranch_workloads::{compile_benchmark, CompileOptions, IfConvertConfig};

use super::{base_spec, Artifact, Scale};
use crate::runner::{CellSpec, RunContext, RunOutcome, SuiteEntry, PGU_DELAY};

const THRESHOLDS: [f64; 5] = [0.55, 0.70, 0.85, 0.95, 1.01];

fn cycles(out: &RunOutcome, pipe: &PipelineConfig) -> u64 {
    PipelineModel::estimate(
        pipe,
        out.summary.instructions,
        out.metrics.all.mispredictions.get(),
        out.taken_branches(),
    )
    .cycles()
}

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let pipe = PipelineConfig::default();
    let base = base_spec();
    let both = base.clone().with_sfpf().with_pgu(PGU_DELAY);
    // the default-options suite doubles as the plain-binary reference:
    // `compile_benchmark` lowers the plain binary without options, so
    // it (and its branch count) is the same at every threshold
    let entries = ctx.suite(scale.limit);

    let reference_outs = ctx.run_cells(
        entries
            .iter()
            .map(|entry| {
                CellSpec::plain(
                    entry,
                    format!("f11/{}/reference", entry.compiled.name),
                    &base,
                    scale.timing(),
                    InsertFilter::All,
                )
            })
            .collect(),
    );
    let reference: Vec<u64> = reference_outs
        .iter()
        .map(|out| cycles(out, &pipe))
        .collect();

    // recompile the suite once per threshold, threshold-major
    let compile_jobs = THRESHOLDS
        .into_iter()
        .flat_map(|threshold| entries.iter().map(move |entry| (threshold, entry)));
    let compiled = ctx.map_batch(compile_jobs, |(threshold, entry)| {
        let opts = CompileOptions {
            ifconv: IfConvertConfig {
                convert_bias_below: threshold,
                ..IfConvertConfig::default()
            },
            ..CompileOptions::default()
        };
        compile_benchmark(&entry.bench, &opts)
    });

    // two cells per (threshold, bench): pred/gshare, pred/+both
    let n = entries.len();
    let mut cells_in = Vec::with_capacity(THRESHOLDS.len() * n * 2);
    for ti in 0..THRESHOLDS.len() {
        for (ei, entry) in entries.iter().enumerate() {
            let recompiled = SuiteEntry::new(entry.bench.clone(), compiled[ti * n + ei].clone());
            let name = recompiled.compiled.name;
            for (tag, spec) in [("gshare", &base), ("both", &both)] {
                let mut cell = CellSpec::predicated(
                    &recompiled,
                    format!("f11/{name}/t{ti}/{tag}"),
                    spec,
                    scale.timing(),
                    InsertFilter::All,
                );
                cell.cache_label = format!("{name}-pred-ifc{ti}");
                cells_in.push(cell);
            }
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F11: if-conversion aggressiveness (suite means; cycles relative to plain+gshare)",
        &[
            "convert bias <",
            "cond br kept%",
            "gshare misp%",
            "+both misp%",
            "cycles gshare",
            "cycles +both",
        ],
    );
    for (ti, threshold) in THRESHOLDS.into_iter().enumerate() {
        let mut kept_frac = Vec::new();
        let mut misp_base = Vec::new();
        let mut misp_both = Vec::new();
        let mut rel_base = Vec::new();
        let mut rel_both = Vec::new();
        for (ei, (&ref_cycles, out_plain)) in reference.iter().zip(&reference_outs).enumerate() {
            let at = (ti * n + ei) * 2;
            let (out_base, out_both) = (&outs[at], &outs[at + 1]);
            kept_frac.push(
                100.0 * out_base.summary.conditional_branches as f64
                    / out_plain.summary.conditional_branches.max(1) as f64,
            );
            misp_base.push(out_base.misp_percent());
            misp_both.push(out_both.misp_percent());
            rel_base.push(cycles(out_base, &pipe) as f64 / ref_cycles as f64);
            rel_both.push(cycles(out_both, &pipe) as f64 / ref_cycles as f64);
        }
        table.row(vec![
            Cell::float(threshold, 2),
            Cell::percent(mean(&kept_frac)),
            Cell::percent(mean(&misp_base)),
            Cell::percent(mean(&misp_both)),
            Cell::float(mean(&rel_base), 3),
            Cell::float(mean(&rel_both), 3),
        ]);
    }
    vec![Artifact::Table(table)]
}
