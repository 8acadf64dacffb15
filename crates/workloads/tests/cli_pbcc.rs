//! End-to-end tests of the `pbcc` binary.

use std::process::Command;

#[test]
fn list_names_all_benchmarks() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbcc"))
        .arg("list")
        .output()
        .expect("pbcc runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "perlbmk", "gap", "vortex", "bzip2",
        "twolf",
    ] {
        assert!(text.contains(name), "missing {name}:\n{text}");
    }
}

#[test]
fn emitted_assembly_reassembles() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbcc"))
        .args(["gap", "--ifconvert"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let program = predbranch_isa::assemble(&text).expect("pbcc output reassembles");
    assert!(program.stats().region_branches > 0);
}

#[test]
fn report_mode_summarizes_regions() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbcc"))
        .args(["gzip", "--report", "--threshold", "0.95"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("regions formed"), "{text}");
    assert!(text.contains("branches converted"), "{text}");
}

#[test]
fn unknown_benchmark_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbcc"))
        .arg("doom")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `pbcc list | head -1`
    for args in [&["list"][..], &["gzip", "--report"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pbcc"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("pbcc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
