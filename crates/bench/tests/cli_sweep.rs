//! End-to-end sweep tests through the `experiments` binary: stdout must
//! be byte-identical across `--jobs` levels, `--manifest` must write a
//! well-formed run record, unknown options and experiment ids must be
//! refused before any file is made, and a closed stdout must end the
//! run quietly.

use std::path::PathBuf;
use std::process::{Command, Output};

use predbranch_sweep::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn experiments(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn stdout_is_byte_identical_across_jobs_levels() {
    let dir = tmp_dir("jobs");
    let cache = dir.join("traces");
    let cache = cache.to_str().unwrap();
    let base = experiments(&["--quick", "--trace-cache", cache, "--jobs", "1", "f1", "f3"]);
    for jobs in ["2", "8"] {
        let out = experiments(&[
            "--quick",
            "--trace-cache",
            cache,
            "--jobs",
            jobs,
            "f1",
            "f3",
        ]);
        assert_eq!(
            String::from_utf8_lossy(&base.stdout),
            String::from_utf8_lossy(&out.stdout),
            "--jobs {jobs} changed stdout"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_is_written_and_well_formed() {
    let dir = tmp_dir("manifest");
    let manifest_path = dir.join("run.json");
    experiments(&[
        "--quick",
        "--jobs",
        "2",
        "--manifest",
        manifest_path.to_str().unwrap(),
        "f1",
    ]);
    let manifest = Json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(
        manifest.get("manifest_version").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(manifest.get("jobs").and_then(Json::as_u64), Some(2));
    let command = manifest.get("command").and_then(Json::as_str).unwrap();
    assert!(command.contains("f1"), "{command}");

    // f1 at quick scale: 3 benchmarks × (plain + pred) = 6 cells, all
    // live (no cache), every record carrying a v2- content key
    let cells = manifest.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(cells.len(), 6);
    for cell in cells {
        assert!(cell
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("v2-"));
        assert_eq!(cell.get("source").and_then(Json::as_str), Some("live"));
    }
    let totals = manifest.get("totals").unwrap();
    assert_eq!(totals.get("cells").and_then(Json::as_u64), Some(6));
    assert_eq!(totals.get("live").and_then(Json::as_u64), Some(6));

    let fingerprints = manifest.get("fingerprints").unwrap();
    assert!(fingerprints
        .get("compile-options")
        .and_then(Json::as_str)
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_counts_cells_restored_from_an_earlier_experiment() {
    let dir = tmp_dir("repeats");
    let manifest_path = dir.join("run.json");
    let out = experiments(&[
        "--quick",
        "--jobs",
        "2",
        "--manifest",
        manifest_path.to_str().unwrap(),
        "f3",
        "f4",
    ]);
    // f4 asks for f3's 3 × 4 cells again, under its own labels
    let manifest = Json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let totals = manifest.get("totals").unwrap();
    assert_eq!(totals.get("cells").and_then(Json::as_u64), Some(24));
    assert_eq!(totals.get("live").and_then(Json::as_u64), Some(12));
    assert_eq!(totals.get("repeat").and_then(Json::as_u64), Some(12));
    for cell in manifest.get("cells").and_then(Json::as_arr).unwrap() {
        let label = cell.get("label").and_then(Json::as_str).unwrap();
        let expected = if label.starts_with("f4/") {
            "repeat"
        } else {
            "live"
        };
        assert_eq!(
            cell.get("source").and_then(Json::as_str),
            Some(expected),
            "{label}"
        );
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("repeats: 12 cells"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_rerun_restores_instead_of_rerunning() {
    let dir = tmp_dir("resume");
    let journal = dir.join("sweep.ckpt");
    let journal = journal.to_str().unwrap();
    let first = experiments(&["--quick", "--checkpoint", journal, "f1"]);
    let second = experiments(&["--quick", "--checkpoint", journal, "f1"]);
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "restored results must render identically"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("6 completed cells loaded") && stderr.contains("6 cells restored"),
        "second run must restore all six cells from the journal:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_run_path_levers_fail_loudly() {
    // these words once chose between run paths, split a sweep across
    // processes or re-rendered its artifacts; there is one path and one
    // rendering now, and a stale word must not be ignored — not even
    // next to `all`
    let removed: [(&[&str], &str); 7] = [
        (&["--gang", "off"], "--gang"),
        (&["--dispatch", "off"], "--dispatch"),
        (&["--shard", "0/2"], "--shard"),
        (&["--out", "x.ckpt"], "--out"),
        (&["merge"], "merge"),
        (&["--bars"], "--bars"),
        (&["--markdown"], "--markdown"),
    ];
    for (words, rejected) in removed {
        for target in ["f1", "all"] {
            let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
                .args(words)
                .arg(target)
                .output()
                .expect("spawn experiments");
            assert_eq!(out.status.code(), Some(1), "{words:?} {target} must fail");
            assert!(out.stdout.is_empty(), "nothing may run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("`{rejected}`")), "{stderr}");
        }
    }
}

#[test]
fn unknown_experiment_is_refused_before_anything_is_opened() {
    let dir = tmp_dir("bogus");
    let cache = dir.join("newdir");
    let journal = dir.join("j.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--trace-cache")
        .arg(&cache)
        .arg("--checkpoint")
        .arg(&journal)
        .args(["bogus", "all"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`bogus`"), "{stderr}");
    assert!(!stderr.contains("checkpoint"), "{stderr}");
    assert!(!cache.exists(), "the trace cache must not be created");
    assert!(!journal.exists(), "the journal must not be created");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_manifest_is_refused_before_anything_runs() {
    let dir = tmp_dir("no-manifest");
    let manifest = dir.join("missing").join("run.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--manifest"])
        .arg(&manifest)
        .arg("f1")
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(manifest.to_str().unwrap()),
        "stderr must name the path:\n{stderr}"
    );
    assert!(!stderr.contains("running"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `experiments ... | head -1`
    for args in [&["--list-stacks"][..], &["--quick", "t2"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
