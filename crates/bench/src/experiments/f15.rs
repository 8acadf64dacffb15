//! F15 — compare hoisting (extension): scheduling compares away from
//! their branches, the compiler-side half of the paper's co-design.
//!
//! The techniques only see predicate values that have *resolved* by
//! fetch; IMPACT's schedulers moved compares as early as dependences
//! allow for exactly this reason. The experiment recompiles the suite
//! with the hoisting pass and measures what it buys: longer
//! definition-to-branch distances, more squash-filter coverage, and
//! lower misprediction with the techniques on.

use predbranch_core::InsertFilter;
use predbranch_sim::{Executor, GuardKnowledgeStats};
use predbranch_stats::{mean, Cell, Table};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

use super::{base_spec, Artifact, Scale};
use crate::runner::{
    Binary, CellSpec, RunContext, SuiteEntry, CELL_BUDGET, DEFAULT_LATENCY, PGU_DELAY,
};

pub(crate) fn run(ctx: &RunContext, scale: &Scale) -> Vec<Artifact> {
    let both = base_spec().with_sfpf().with_pgu(PGU_DELAY);
    let sfpf = base_spec().with_sfpf();
    let benchmarks: Vec<_> = suite()
        .into_iter()
        .take(scale.limit.unwrap_or(usize::MAX))
        .collect();

    // compile both schedules of every benchmark, bench-major
    // ([bench0/plain-sched, bench0/hoisted, bench1/plain-sched, ...])
    let compile_jobs = benchmarks
        .iter()
        .flat_map(|bench| [false, true].map(|hoist| (bench, hoist)));
    let compiled = ctx.map_batch(compile_jobs, |(bench, hoist)| {
        compile_benchmark(
            bench,
            &CompileOptions {
                hoist,
                ..CompileOptions::default()
            },
        )
    });
    let variants: Vec<SuiteEntry> = benchmarks
        .iter()
        .flat_map(|bench| [bench, bench])
        .zip(compiled)
        .map(|(bench, compiled)| SuiteEntry::new(bench.clone(), compiled))
        .collect();

    // per variant: an instrumented functional run for distance/coverage…
    let sink_stats = ctx.map_batch(variants.iter(), |entry| {
        let stream = entry.stream(Binary::Predicated, EVAL_SEED);
        let mut knowledge = GuardKnowledgeStats::new(DEFAULT_LATENCY);
        let summary = Executor::new(stream.program(), stream.memory().clone())
            .run(&mut knowledge, CELL_BUDGET);
        assert!(summary.halted);
        (
            knowledge.guard_distance().mean(),
            knowledge.known_false().percent(),
        )
    });

    // …and two predictor cells (+SFPF, +both)
    let mut cells_in = Vec::with_capacity(variants.len() * 2);
    for (vi, entry) in variants.iter().enumerate() {
        let sched = if vi % 2 == 0 {
            "plain-sched"
        } else {
            "hoisted"
        };
        for (tag, spec) in [("sfpf", &sfpf), ("both", &both)] {
            let mut cell = CellSpec::predicated(
                entry,
                format!("f15/{}/{sched}/{tag}", entry.compiled.name),
                spec,
                scale.timing(),
                InsertFilter::All,
            );
            if vi % 2 == 1 {
                cell.cache_label = format!("{}-pred-hoist", entry.compiled.name);
            }
            cells_in.push(cell);
        }
    }
    let outs = ctx.run_cells(cells_in);

    let mut table = Table::new(
        "F15: compare hoisting (per benchmark: plain schedule → hoisted schedule)",
        &[
            "bench",
            "guard dist",
            "guard dist.h",
            "kf%",
            "kf%.h",
            "+SFPF misp%",
            "+SFPF.h",
            "+both misp%",
            "+both.h",
        ],
    );
    let mut dist = (Vec::new(), Vec::new());
    let mut cover = (Vec::new(), Vec::new());
    let mut m_sfpf = (Vec::new(), Vec::new());
    let mut m_both = (Vec::new(), Vec::new());
    for (bi, bench) in benchmarks.iter().enumerate() {
        let (d0, k0) = sink_stats[2 * bi];
        let (d1, k1) = sink_stats[2 * bi + 1];
        let s0 = outs[4 * bi].misp_percent();
        let b0 = outs[4 * bi + 1].misp_percent();
        let s1 = outs[4 * bi + 2].misp_percent();
        let b1 = outs[4 * bi + 3].misp_percent();
        dist.0.push(d0);
        dist.1.push(d1);
        cover.0.push(k0);
        cover.1.push(k1);
        m_sfpf.0.push(s0);
        m_sfpf.1.push(s1);
        m_both.0.push(b0);
        m_both.1.push(b1);
        // interleave: dist, dist.h, kf, kf.h, sfpf, sfpf.h, both, both.h
        table.row(vec![
            Cell::new(bench.name()),
            Cell::float(d0, 1),
            Cell::float(d1, 1),
            Cell::percent(k0),
            Cell::percent(k1),
            Cell::percent(s0),
            Cell::percent(s1),
            Cell::percent(b0),
            Cell::percent(b1),
        ]);
    }
    table.row(vec![
        Cell::new("mean"),
        Cell::float(mean(&dist.0), 1),
        Cell::float(mean(&dist.1), 1),
        Cell::percent(mean(&cover.0)),
        Cell::percent(mean(&cover.1)),
        Cell::percent(mean(&m_sfpf.0)),
        Cell::percent(mean(&m_sfpf.1)),
        Cell::percent(mean(&m_both.0)),
        Cell::percent(mean(&m_both.1)),
    ]);
    vec![Artifact::Table(table)]
}
