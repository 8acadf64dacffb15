//! Golden parity: at retire latency 0 the in-flight window must
//! reproduce the idealized immediate-update results **byte for byte**.
//!
//! `golden/quick_all.txt` is the captured stdout of
//! `experiments --quick all` from before the speculative-history
//! refactor (when the harness trained predictors inline, with no
//! window). Any drift in any of the original seventeen experiments —
//! a changed misprediction count, a reordered row, even a formatting
//! change — fails this test. `golden/quick_all_r32.txt` pins the whole
//! quick study again at retire latency 32, where the window matters, and
//! `golden/quick_keys_r32.txt` pins the key of every cell it runs.
//! `golden/full_all.txt` pins the full study, all 11 benchmarks.

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::{all_experiments, RunContext, Scale};
use predbranch_sweep::{Json, ManifestBuilder};

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
    let golden = include_str!("golden/quick_all.txt");
    let scale = Scale::quick();
    assert_eq!(scale.retire_latency, 0, "golden was captured at retire 0");
    for (tag, ctx) in contexts() {
        assert_golden(tag, &ctx, &scale, &GOLDEN_IDS, golden);
    }
}

/// Windowed lanes at scale: `golden/quick_all_r32.txt` is the captured
/// stdout of `experiments --quick --retire-latency 32 all`. Up to a
/// retire latency of 25 the quick study prints the retire-0 bytes, so
/// the goldens above never see a branch commit late enough to matter;
/// this one pins the in-flight window's drain, flush and squash paths
/// in every experiment.
///
/// `golden/quick_keys_r32.txt` holds the `label key` line of each of the
/// run's 516 cells, in manifest order, as `experiments --quick
/// --retire-latency 32 --manifest <path> all` records them. A key
/// digests the cell's spec rendering, so a drift in any spec's `Debug`
/// output, or in the key derivation, silently invalidates every
/// checkpoint journal; this catches it.
#[test]
fn quick_all_at_retire_32_is_byte_identical_to_golden() {
    let golden = include_str!("golden/quick_all_r32.txt");
    let keys = include_str!("golden/quick_keys_r32.txt");
    let scale = Scale::quick().with_retire(32);
    let ids: Vec<&str> = all_experiments().iter().map(|exp| exp.id).collect();
    for (tag, ctx) in contexts() {
        let jobs = ctx.jobs();
        let ctx = ctx.with_manifest(ManifestBuilder::new("golden", jobs));
        assert_golden(tag, &ctx, &scale, &ids, golden);
        assert_keys(tag, &ctx, keys);
    }
}

/// The full study: `golden/full_all.txt` is the captured stdout of
/// `experiments --jobs 2 all` (sha256 `21030d97…32db6`). The quick
/// goldens cover 3 of the 11 benchmarks; this one covers every row of
/// every experiment at `Scale::full()`, on two lanes as captured.
#[test]
fn full_all_output_is_byte_identical_to_golden() {
    let golden = include_str!("golden/full_all.txt");
    let ids: Vec<&str> = all_experiments().iter().map(|exp| exp.id).collect();
    let ctx = RunContext::new().with_jobs(2);
    assert_golden("jobs2", &ctx, &Scale::full(), &ids, golden);
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
/// under parallel cell execution. (What stack each spec builds, and that
/// it predicts alike as a gang lane and alone, is pinned in
/// `predbranch-modern`'s stack tests.)
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

/// Renders the experiments `ids` at `scale` as the binary prints them
/// and compares the text with `golden`, naming the first diverging line.
fn assert_golden(tag: &str, ctx: &RunContext, scale: &Scale, ids: &[&str], golden: &str) {
    let mut rendered = String::new();
    for &id in ids {
        let exp = find_experiment(id).expect(id);
        for artifact in (exp.run)(ctx, scale) {
            // the binary prints each artifact with `println!("{artifact}")`
            rendered.push_str(&format!("{artifact}\n"));
        }
    }
    assert_same_text(tag, "output", &rendered, golden);
}

/// Compares the `label key` line of every cell recorded in the
/// context's manifest, in the manifest's canonical order, with `golden`.
fn assert_keys(tag: &str, ctx: &RunContext, golden: &str) {
    let manifest = ctx.manifest().expect("manifest attached").finish(None);
    let cells = manifest
        .get("cells")
        .and_then(Json::as_arr)
        .expect("manifest lists its cells");
    let rendered: String = cells
        .iter()
        .map(|cell| {
            let field = |name| cell.get(name).and_then(Json::as_str).expect(name);
            format!("{} {}\n", field("label"), field("key"))
        })
        .collect();
    assert_same_text(tag, "cell keys", &rendered, golden);
}

/// Fails with the first line where `rendered` and `golden` differ.
fn assert_same_text(tag: &str, what: &str, rendered: &str, golden: &str) {
    if rendered != golden {
        let diverge = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (new, old))| new != old);
        match diverge {
            Some((line, (new, old))) => panic!(
                "{tag}: {what} differ from the golden at line {}:\n  golden: {old}\n  now:    {new}",
                line + 1
            ),
            None => panic!(
                "{tag}: {what} differ in length from the golden: {} vs {} bytes",
                rendered.len(),
                golden.len()
            ),
        }
    }
}
