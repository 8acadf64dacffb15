//! Focus on the paper's subject: region-based branches. For each
//! benchmark, how hard are they relative to ordinary branches, how often
//! is their guard already resolved at fetch, and what do the two
//! techniques do to them?
//!
//! ```text
//! cargo run --release -p predbranch --example region_branch_study
//! ```

use predbranch::core::{HarnessConfig, HotBranches, InsertFilter, PredictionHarness, Timing};
use predbranch::modern::{build_modern, ModernSpec};
use predbranch::sim::{Executor, GuardKnowledgeStats, RegionActivity};
use predbranch::stats::{Cell, Table};
use predbranch::workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

fn main() {
    let base = ModernSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    let both = base.clone().with_sfpf().with_pgu(8);

    let mut table = Table::new(
        "region-based branches under gshare vs gshare+SFPF+PGU",
        &[
            "bench",
            "region br",
            "non-region misp%",
            "region misp%",
            "region misp% (+both)",
            "guard known at fetch%",
        ],
    );
    for bench in suite() {
        let c = compile_benchmark(&bench, &CompileOptions::default());

        let run = |spec: &ModernSpec| {
            let mut harness = PredictionHarness::new(
                build_modern(spec),
                HarnessConfig {
                    timing: Timing::immediate(8),
                    insert: InsertFilter::All,
                },
            );
            let summary =
                Executor::new(&c.predicated, bench.input(EVAL_SEED)).run(&mut harness, 8_000_000);
            assert!(summary.halted);
            *harness.metrics()
        };
        let m_base = run(&base);
        let m_both = run(&both);

        let mut knowledge = GuardKnowledgeStats::new(8);
        Executor::new(&c.predicated, bench.input(EVAL_SEED)).run(&mut knowledge, 8_000_000);
        let known = knowledge.known_false().percent() + knowledge.known_true().percent();

        table.row(vec![
            Cell::new(c.name),
            Cell::count(m_base.region.branches.get()),
            Cell::percent(m_base.non_region.misp_rate().percent()),
            Cell::percent(m_base.region.misp_rate().percent()),
            Cell::percent(m_both.region.misp_rate().percent()),
            Cell::percent(known),
        ]);
    }
    println!("{table}");

    // drill into one benchmark: which regions and which static branches
    // carry the mispredictions?
    let bench = suite().into_iter().find(|b| b.name() == "mcf").unwrap();
    let c = compile_benchmark(&bench, &CompileOptions::default());
    let mut activity = RegionActivity::new();
    let mut hot = PredictionHarness::new(
        HotBranches::new(build_modern(&base)),
        HarnessConfig::default(),
    );
    let mut sinks = (&mut activity, &mut hot);
    Executor::new(&c.predicated, bench.input(EVAL_SEED)).run(&mut sinks, 8_000_000);

    println!("mcf region activity:");
    for (region, branches, taken) in activity.iter() {
        println!("  region {region:>3}: {branches:>7} region-branch executions, {taken:>6} taken");
    }
    println!("mcf hottest mispredicting branches under gshare:");
    for (pc, counts) in hot.predictor().ranked().into_iter().take(5) {
        println!(
            "  pc {pc:>5}: {:>7} executions, {:>6} mispredicts ({})",
            counts.branches.get(),
            counts.mispredictions.get(),
            counts.misp_rate()
        );
    }
}
