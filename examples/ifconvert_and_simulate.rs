//! Walks the full compilation pipeline on one benchmark: build the CFG,
//! profile it, if-convert it, and compare the plain vs predicated
//! binaries dynamically.
//!
//! ```text
//! cargo run --release -p predbranch --example ifconvert_and_simulate
//! ```

use std::collections::HashMap;

use predbranch::compiler::{if_convert, lower, profile_cfg, IfConvertConfig, ProfileConfig};
use predbranch::sim::{Executor, NullSink};
use predbranch::workloads::{suite, EVAL_SEED, TRAIN_SEED};

fn main() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name() == "gap")
        .expect("gap is in the suite");
    println!("benchmark: {} — {}\n", bench.name(), bench.description());

    let cfg = bench.cfg();
    println!("CFG: {} basic blocks", cfg.len());

    // profile on the training input
    let mut train: HashMap<i64, i64> = bench.input(TRAIN_SEED).iter().collect();
    let profile = profile_cfg(&cfg, &mut train, &ProfileConfig::default());
    for id in cfg.block_ids() {
        if let Some(bias) = profile.bias(id) {
            if profile.executions(id) > 100 {
                println!(
                    "  {id}: branch bias {:.3} ({} execs)",
                    bias,
                    profile.executions(id)
                );
            }
        }
    }

    let plain = lower(&cfg).expect("lowering succeeds");
    let converted =
        if_convert(&cfg, Some(&profile), &IfConvertConfig::default()).expect("if-conversion");
    println!(
        "\nif-conversion: {} regions, {} branches converted, {} region branches kept",
        converted.stats.regions_formed,
        converted.stats.branches_converted,
        converted.stats.branches_kept
    );
    for region in &converted.regions {
        println!(
            "  region {} @ {}: {} blocks, {} converted, {} kept",
            region.id,
            region.seed,
            region.blocks.len(),
            region.converted_branches,
            region.kept_branches
        );
    }

    // run both binaries on the evaluation input
    for (label, program) in [("plain", &plain), ("predicated", &converted.program)] {
        let mut exec = Executor::new(program, bench.input(EVAL_SEED));
        let summary = exec.run(&mut NullSink, 8_000_000);
        assert!(summary.halted);
        println!(
            "\n{label}: {} dyn instructions, {} cond branches ({} region-based), \
             {} predicate defs",
            summary.instructions,
            summary.conditional_branches,
            summary.region_branches,
            summary.pred_writes
        );
    }
}
