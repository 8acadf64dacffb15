//! Runs every predictor configuration over the whole suite and prints a
//! leaderboard — the library's public API exercised end to end.
//!
//! ```text
//! cargo run --release -p predbranch --example predictor_shootout
//! ```

use predbranch::core::{HarnessConfig, InsertFilter, PredictionHarness, Timing};
use predbranch::modern::{build_modern, ModernSpec};
use predbranch::sim::Executor;
use predbranch::stats::{mean, Cell, Table};
use predbranch::workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

fn specs() -> Vec<ModernSpec> {
    let gshare = ModernSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    vec![
        ModernSpec::StaticNotTaken,
        ModernSpec::StaticBtfn,
        ModernSpec::Bimodal { index_bits: 14 },
        ModernSpec::Local {
            bht_bits: 10,
            history_bits: 10,
            pattern_bits: 12,
        },
        gshare.clone(),
        ModernSpec::Tournament {
            gshare_bits: 12,
            history_bits: 12,
            bimodal_bits: 12,
            chooser_bits: 12,
        },
        ModernSpec::Agree {
            index_bits: 12,
            history_bits: 12,
        },
        ModernSpec::Perceptron {
            index_bits: 7,
            history_bits: 14,
        },
        gshare.clone().with_sfpf(),
        gshare.clone().with_pgu(8),
        gshare.with_sfpf().with_pgu(8),
        ModernSpec::OracleGuard,
    ]
}

fn main() {
    let compiled: Vec<_> = suite()
        .into_iter()
        .map(|b| {
            let c = compile_benchmark(&b, &CompileOptions::default());
            (b, c)
        })
        .collect();

    let mut rows: Vec<(String, usize, f64)> = Vec::new();
    for spec in specs() {
        let mut rates = Vec::new();
        for (bench, c) in &compiled {
            let mut harness = PredictionHarness::new(
                build_modern(&spec),
                HarnessConfig {
                    timing: Timing::immediate(8),
                    insert: InsertFilter::All,
                },
            );
            let summary =
                Executor::new(&c.predicated, bench.input(EVAL_SEED)).run(&mut harness, 8_000_000);
            assert!(summary.halted);
            rates.push(harness.metrics().all.misp_rate().percent());
        }
        let built = build_modern(&spec);
        rows.push((built.name(), built.storage_bits(), mean(&rates)));
    }
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));

    let mut table = Table::new(
        "predictor shootout (suite-mean misprediction rate, predicated binaries)",
        &["predictor", "storage bits", "misp%"],
    );
    for (name, bits, rate) in rows {
        table.row(vec![
            Cell::new(name),
            Cell::count(bits as u64),
            Cell::percent(rate),
        ]);
    }
    println!("{table}");
}
