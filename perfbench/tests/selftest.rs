//! Self-tests of the benchmark: its description, its names, its
//! workloads' operation counts, its seed plumbing and its output check.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`; the
//! package's dev profile is optimized, so the end-to-end cases finish in
//! about a minute on two cores.

use std::path::Path;
use std::process::Command;

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::{compiled_suite, RunContext, Scale};
use predbranch_perfbench::catalog::{is_valid_name, per_layer, END_TO_END};
use predbranch_perfbench::check::{
    artifact_digest, cell_failures, fnv64, parse_pinned, render, study_failures, PINNED_STUDY,
};
use predbranch_perfbench::workload::{matrix_cells, Workload};
use predbranch_sweep::Json;
use predbranch_trace::memory_fingerprint;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, section: &str) -> Vec<(String, Option<String>)> {
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|item| {
            let get = |key| item.get(key).and_then(Json::as_str).map(str::to_string);
            (get("name").expect("every entry is named"), get("unit"))
        })
        .collect()
}

#[test]
fn names_are_valid_and_match_the_catalog() {
    let json = benchmark_json();
    let workloads = names(&json, "workloads");
    let end_to_end = names(&json, "end_to_end");
    let layers = names(&json, "per_layer");
    for (name, _) in workloads.iter().chain(&end_to_end).chain(&layers) {
        assert!(is_valid_name(name), "bad name `{name}`");
    }
    assert!(
        end_to_end.len() <= 16,
        "{} end-to-end metrics",
        end_to_end.len()
    );
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());

    let as_pairs = |list: &[(String, Option<String>)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.clone(), u.clone().unwrap_or_default()))
            .collect()
    };
    let parsed: Vec<Workload> = workloads
        .iter()
        .map(|(n, _)| n.parse().expect("a workload the benchmark runs"))
        .collect();
    assert_eq!(parsed, [Workload::StudyCold, Workload::StudyWarm]);
    assert_eq!(
        as_pairs(&end_to_end),
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        as_pairs(&layers),
        per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect::<Vec<_>>()
    );
    assert!(!is_valid_name(""));
    assert!(!is_valid_name(".hidden"));
    assert!(!is_valid_name("a b"));
}

#[test]
fn pinned_digests_cover_every_experiment_once() {
    let pinned = parse_pinned(PINNED_STUDY);
    let ids: Vec<&str> = pinned.iter().map(|(id, _)| id.as_str()).collect();
    let registry: Vec<&str> = predbranch_bench::all_experiments()
        .iter()
        .map(|e| e.id)
        .collect();
    assert_eq!(ids, registry);
}

#[test]
fn a_tampered_artifact_fails_the_check() {
    let pinned = parse_pinned(PINNED_STUDY);
    let t2 = find_experiment("t2").expect("t2 exists");
    let artifacts = (t2.run)(&RunContext::new(), &Scale::full());
    let digest = artifact_digest(&artifacts);
    assert_eq!(
        study_failures(&pinned, &[("t2".into(), digest)]),
        pinned.len() - 1
    );

    let mut text = render(&artifacts).into_bytes();
    let middle = text.len() / 2;
    text[middle] ^= 1;
    assert_ne!(fnv64(&text), digest);
    assert_eq!(
        study_failures(&pinned, &[("t2".into(), fnv64(&text))]),
        pinned.len()
    );

    assert_eq!(cell_failures(&[1, 2, 3], &[1, 2, 3]), 0);
    assert_eq!(cell_failures(&[1, 2, 3], &[1, 5, 3]), 1);
    assert_eq!(cell_failures(&[1, 2, 3], &[1, 2]), 3);
}

#[test]
fn the_seed_changes_matrix_inputs_only() {
    let suite = compiled_suite(None);
    let inputs = |seed| -> Vec<u64> {
        matrix_cells(&suite, seed)
            .iter()
            .map(|c| memory_fingerprint(&c.memory))
            .collect()
    };
    let (one, two) = (inputs(1), inputs(2));
    assert!(!one.is_empty());
    assert_eq!(one, inputs(1));
    assert_eq!(one.len(), two.len());
    assert!(one.iter().zip(&two).all(|(a, b)| a != b));

    // the study child ignores the seed: both seeds reproduce the pins
    let pinned = parse_pinned(PINNED_STUDY);
    for seed in ["1", "2"] {
        let cache = scratch(&format!("seed{seed}"));
        let out = perfbench(&[
            "child",
            "timed",
            "--workload",
            "study_cold",
            "--seed",
            seed,
            "--cache",
            &cache,
        ]);
        std::fs::remove_dir_all(&cache).expect("cache removed");
        let json = Json::parse(out.lines().last().expect("child output")).expect("json");
        let got: Vec<(String, u64)> = json
            .get("experiments")
            .and_then(Json::as_arr)
            .expect("experiments")
            .iter()
            .map(|r| {
                let id = r.get("id").and_then(Json::as_str).expect("id");
                let hex = r.get("digest").and_then(Json::as_str).expect("digest");
                (id.to_string(), u64::from_str_radix(hex, 16).expect("hex"))
            })
            .collect();
        assert_eq!(study_failures(&pinned, &got), 0, "seed {seed}");
    }
}

#[test]
fn every_workload_attempts_and_passes_operations() {
    for workload in Workload::ALL {
        let out = perfbench(&[
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        let result = Json::parse(out.lines().last().expect("result line")).expect("json");
        let attempted = result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("count");
        assert!(attempted > 0, "{workload:?} attempted nothing");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let metrics = result.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
        }
    }
}

/// A cache directory name unique to this test process.
fn scratch(tag: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.display().to_string()
}

/// Runs the benchmark binary and returns its stdout, failing the test
/// on a non-zero exit.
fn perfbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(
        output.status.success(),
        "perfbench {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}
