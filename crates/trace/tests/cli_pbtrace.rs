//! End-to-end tests of the `pbtrace` binary: the `--json` views must
//! agree number-for-number with the text views, and `characterize` must
//! be byte-deterministic at any `--jobs` level (pinned by a golden).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use predbranch_sweep::Json;
use predbranch_workloads::suite;

fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("predbranch-pbtrace-{}-{name}", std::process::id()));
    fs::create_dir_all(&p).unwrap();
    p
}

fn pbtrace(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(args)
        .output()
        .expect("pbtrace runs");
    assert!(
        out.status.success(),
        "pbtrace {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Records the first suite benchmark with all-default parameters into
/// `dir/quick.pbt` and returns the file path. Defaults mean the trace
/// bytes are a pure function of the workload crate.
fn record_quick(dir: &std::path::Path) -> String {
    let bench = suite()[0].name().to_string();
    let trace = dir.join("quick.pbt").to_str().unwrap().to_string();
    pbtrace(&["record", "--bench", &bench, "-o", &trace]);
    trace
}

/// The first `: `-separated field value on the text line starting with
/// `label`, with thousands separators stripped.
fn text_field(text: &str, label: &str) -> String {
    text.lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no line labeled {label:?} in:\n{text}"))
        .split(':')
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .replace(',', "")
}

#[test]
fn info_json_matches_text_numbers() {
    let dir = scratch_dir("info");
    let trace = record_quick(&dir);

    let text = pbtrace(&["info", &trace]);
    let json = Json::parse(&pbtrace(&["info", &trace, "--json"])).unwrap();

    for (text_label, json_key) in [
        ("events", "events"),
        ("pred writes", "pred_writes"),
        ("instructions", "instructions"),
        ("budget", "budget"),
    ] {
        assert_eq!(
            text_field(&text, text_label),
            json.get(json_key).unwrap().as_u64().unwrap().to_string(),
            "{json_key} differs between text and JSON"
        );
    }
    assert_eq!(
        text_field(&text, "checksum"),
        json.get("checksum").unwrap().as_str().unwrap()
    );
    assert_eq!(
        text_field(&text, "benchmark"),
        json.get("benchmark").unwrap().as_str().unwrap()
    );
    assert_eq!(
        text_field(&text, "halted"),
        json.get("halted").unwrap().render()
    );

    fs::remove_dir_all(dir).ok();
}

#[test]
fn stats_json_matches_text_numbers() {
    let dir = scratch_dir("stats");
    record_quick(&dir);
    let dir_str = dir.to_str().unwrap();

    let text = pbtrace(&["stats", dir_str]);
    let json = Json::parse(&pbtrace(&["stats", dir_str, "--json"])).unwrap();

    assert_eq!(
        text_field(&text, "entries"),
        json.get("entries").unwrap().as_u64().unwrap().to_string()
    );
    assert_eq!(
        text_field(&text, "bytes"),
        json.get("bytes").unwrap().as_u64().unwrap().to_string()
    );
    let benches = json.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 1);
    assert_eq!(
        benches[0].get("benchmark").unwrap().as_str().unwrap(),
        suite()[0].name()
    );

    // a recorded trace has no sidecar until `migrate` builds one
    assert_eq!(
        text_field(&text, "segments"),
        json.get("segments")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_u64()
            .unwrap()
            .to_string()
    );

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_is_byte_deterministic_at_any_jobs_level() {
    let dir = scratch_dir("determinism");
    record_quick(&dir);
    let dir_str = dir.to_str().unwrap();

    let text = pbtrace(&["characterize", dir_str]);
    assert_eq!(text, pbtrace(&["characterize", dir_str]), "reruns differ");
    assert_eq!(
        text,
        pbtrace(&["characterize", dir_str, "--jobs", "4"]),
        "--jobs 4 output differs from sequential"
    );
    let json = pbtrace(&["characterize", dir_str, "--json"]);
    assert_eq!(
        json,
        pbtrace(&["characterize", dir_str, "--json", "--jobs", "2"]),
        "--jobs 2 JSON differs from sequential"
    );

    // the summary tallies in text and JSON views agree
    let parsed = Json::parse(&json).unwrap();
    let buckets = parsed.get("summary").unwrap();
    let statics: u64 = [
        "biased",
        "history-predictable",
        "predicate-predictable",
        "fundamentally-hard",
    ]
    .iter()
    .map(|b| buckets.get(b).unwrap().as_u64().unwrap())
    .sum();
    let summary_line = text.lines().rev().find(|l| l.contains("statics:")).unwrap();
    assert!(
        summary_line.starts_with(&format!("{statics} statics:")),
        "text summary {summary_line:?} disagrees with JSON tally {statics}"
    );

    // JSON names files by basename only: portable across machines
    let traces = parsed.get("traces").unwrap().as_arr().unwrap();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].get("file").unwrap().as_str(), Some("quick.pbt"));

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_output_matches_golden() {
    let dir = scratch_dir("golden");
    let trace = record_quick(&dir);

    let text = pbtrace(&["characterize", &trace]);
    let golden = include_str!("golden/characterize_quick.txt");
    if text != golden {
        let diverge = text
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (new, old))| new != old);
        match diverge {
            Some((line, (new, old))) => panic!(
                "characterize output diverges from the golden at line {}:\n  golden: {old}\n  now:    {new}",
                line + 1
            ),
            None => panic!(
                "characterize output length differs from the golden: {} vs {} bytes",
                text.len(),
                golden.len()
            ),
        }
    }

    fs::remove_dir_all(dir).ok();
}

#[test]
fn migrate_builds_sidecars_idempotently_and_verify_covers_them() {
    let dir = scratch_dir("migrate");
    let trace = record_quick(&dir); // a pre-built v1-only cache entry
    let dir_str = dir.to_str().unwrap();

    let first = pbtrace(&["migrate", dir_str]);
    assert!(first.contains("1 built, 0 up to date, 0 failed"), "{first}");
    assert!(std::path::Path::new(&trace.replace(".pbt", ".pbtd")).exists());

    // idempotent: a second run writes nothing
    let second = pbtrace(&["migrate", dir_str]);
    assert!(
        second.contains("0 built, 1 up to date, 0 failed"),
        "{second}"
    );

    // verify now covers the sidecar too, and --quiet suppresses all
    // success output
    let verbose = pbtrace(&["verify", dir_str]);
    assert!(verbose.contains("segment-served"), "{verbose}");
    assert_eq!(pbtrace(&["verify", dir_str, "--quiet"]), "");

    // stats reports full segment coverage
    let json = Json::parse(&pbtrace(&["stats", dir_str, "--json"])).unwrap();
    let segments = json.get("segments").unwrap();
    assert_eq!(segments.get("entries").unwrap().as_u64(), Some(1));

    fs::remove_dir_all(dir).ok();
}

#[test]
fn verify_exits_nonzero_on_a_corrupted_segment() {
    let dir = scratch_dir("verify-corrupt");
    let trace = record_quick(&dir);
    let dir_str = dir.to_str().unwrap();
    pbtrace(&["migrate", dir_str]);

    // flip one byte in the middle of the sidecar's event section
    let seg = trace.replace(".pbt", ".pbtd");
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&seg, &bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["verify", dir_str, "--quiet"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "corrupted segment must fail verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // the failing line names the sidecar, and its message does not name
    // the trace format
    assert!(
        stdout.contains(".pbtd: FAILED: checksum mismatch ("),
        "{stdout}"
    );
    assert!(!stdout.contains("trace checksum"), "{stdout}");
    // quiet mode: the intact .pbt produced no OK line
    assert!(!stdout.contains(": OK"), "{stdout}");

    fs::remove_dir_all(dir).ok();
}

#[test]
fn characterize_rejects_missing_paths() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["characterize", "/nonexistent/predbranch-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no such file or directory"), "{err}");
    // and it must not have created the directory
    assert!(!std::path::Path::new("/nonexistent/predbranch-cache").exists());
}

/// Runs `pbtrace stats <path>` where `path` is not a cache directory:
/// it must fail with one line naming the path and create nothing.
fn assert_stats_rejects(path: &std::path::Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "stats {path:?} must exit non-zero");
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains(path.to_str().unwrap()), "{err}");
}

#[test]
fn stats_rejects_a_trace_file() {
    let dir = scratch_dir("stats-file");
    let trace = record_quick(&dir);
    let before = fs::read(&trace).unwrap();
    assert_stats_rejects(std::path::Path::new(&trace));
    assert_eq!(fs::read(&trace).unwrap(), before, "the trace is untouched");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn stats_rejects_a_missing_directory_without_creating_it() {
    let dir = scratch_dir("stats-missing");
    let typo = dir.join("typo-dir");
    assert_stats_rejects(&typo);
    assert!(!typo.exists(), "stats must not create {typo:?}");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `pbtrace list | head -1`
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pbtrace"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("pbtrace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
