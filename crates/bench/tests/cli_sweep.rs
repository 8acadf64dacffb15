//! End-to-end sweep tests through the `experiments` binary: stdout must
//! be byte-identical across `--jobs` levels, `--manifest` must write a
//! well-formed run record, unknown options must be refused, and a
//! closed stdout must end the run quietly.

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
    // these options once chose between run paths; there is one path
    // now, and a stale flag must not be ignored — not even next to `all`
    for lever in ["gang", "dispatch"] {
        let flag = format!("--{lever}");
        for target in ["f1", "all"] {
            let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
                .args([flag.as_str(), "off", target])
                .output()
                .expect("spawn experiments");
            assert!(!out.status.success(), "{flag} off {target} must fail");
            assert!(out.stdout.is_empty(), "nothing may run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&flag), "{stderr}");
        }
    }
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
