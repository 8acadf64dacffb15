//! Golden parity: at retire latency 0 the in-flight window must
//! reproduce the idealized immediate-update results **byte for byte**.
//!
//! `golden/quick_all.txt` is the captured stdout of
//! `experiments --quick all` from before the speculative-history
//! refactor (when the harness trained predictors inline, with no
//! window). Any drift in any of the original seventeen experiments —
//! a changed misprediction count, a reordered row, even a formatting
//! change — fails this test.

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::{RunContext, Scale};

/// The experiment ids the golden file covers, in `all` order. F16 was
/// added together with the retire-latency knob, so it has no
/// pre-refactor output to compare against.
const GOLDEN_IDS: [&str; 17] = [
    "t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f13",
    "f14", "f15",
];

/// The sequential context and a parallel one: every batch site must
/// render the same bytes on one lane and on several.
fn contexts() -> [(&'static str, RunContext); 2] {
    [
        ("jobs1", RunContext::new()),
        ("jobs3", RunContext::new().with_jobs(3)),
    ]
}

#[test]
fn quick_all_output_is_byte_identical_to_pre_refactor_golden() {
    for (tag, ctx) in contexts() {
        assert_golden(tag, &ctx);
    }
}

/// F17 postdates the speculative-history refactor, so it gets its own
/// golden: the captured stdout of `experiments --quick f17`. Pinning
/// the bytes pins the taxonomy thresholds, the join, and the table
/// formatting at once.
#[test]
fn f17_quick_output_is_byte_identical_to_golden() {
    let golden = include_str!("golden/f17_quick.txt");
    let exp = find_experiment("f17").expect("f17 registered");
    for (tag, ctx) in contexts() {
        let mut rendered = String::new();
        for artifact in (exp.run)(&ctx, &Scale::quick()) {
            rendered.push_str(&format!("{artifact}\n"));
        }
        assert_eq!(rendered, golden, "f17 --quick output drifted ({tag})");
    }
}

/// F18 introduces the modern predictor tier (TAGE, multiperspective
/// perceptron). Its golden is pinned across worker counts: the modern
/// predictors' speculative checkpoint machinery must be deterministic
/// under parallel cell execution. (That the enum stack behaves like the
/// boxed composition is pinned in `predbranch-modern`'s stack tests.)
#[test]
fn f18_quick_output_is_byte_identical_on_every_path() {
    let golden = include_str!("golden/f18_quick.txt");
    let exp = find_experiment("f18").expect("f18 registered");
    for (tag, ctx) in [
        ("jobs1", RunContext::new()),
        ("jobs2", RunContext::new().with_jobs(2)),
    ] {
        let mut rendered = String::new();
        for artifact in (exp.run)(&ctx, &Scale::quick()) {
            rendered.push_str(&format!("{artifact}\n"));
        }
        assert_eq!(rendered, golden, "f18 --quick output drifted ({tag})");
    }
}

fn assert_golden(tag: &str, ctx: &RunContext) {
    let golden = include_str!("golden/quick_all.txt");
    let scale = Scale::quick();
    assert_eq!(scale.retire_latency, 0, "golden was captured at retire 0");

    let mut rendered = String::new();
    for id in GOLDEN_IDS {
        let exp = find_experiment(id).expect(id);
        for artifact in (exp.run)(ctx, &scale) {
            // the binary prints each artifact with `println!("{artifact}")`
            rendered.push_str(&format!("{artifact}\n"));
        }
    }

    if rendered != golden {
        let diverge = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (new, old))| new != old);
        match diverge {
            Some((line, (new, old))) => panic!(
                "{tag}: output diverges from the pre-refactor golden at line {}:\n  golden: {old}\n  now:    {new}",
                line + 1
            ),
            None => panic!(
                "{tag}: output length differs from the golden: {} vs {} bytes",
                rendered.len(),
                golden.len()
            ),
        }
    }
}
