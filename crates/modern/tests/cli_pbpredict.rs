//! End-to-end tests of the `pbpredict` binary.

use std::fs;
use std::process::{Command, Output};

const PROGRAM: &str = "    mov r1 = 0\nloop:\n    cmp.lt p1, p2 = r1, 100\n    (p1) add r1 = r1, 1\n    nop\n    nop\n    (p1) br.region 0, loop\n    halt\n";

/// Runs `pbpredict` on `program`, written to a scratch file called
/// `name`, with `args` after the path.
fn pbpredict(name: &str, program: &str, args: &[&str]) -> Output {
    let mut src = std::env::temp_dir();
    src.push(format!(
        "predbranch-modern-test-{}-{name}",
        std::process::id()
    ));
    fs::write(&src, program).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbpredict"))
        .arg(&src)
        .args(args)
        .output()
        .expect("pbpredict runs");
    fs::remove_file(src).ok();
    out
}

#[test]
fn default_predictor_reports_metrics() {
    let out = pbpredict("default.s", PROGRAM, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("predictor:        gshare-13/13"), "{text}");
    assert!(text.contains("cond branches:    101"), "{text}");
    // the fetch timeline counts every instruction, the `halt` after the
    // last branch included
    assert!(text.contains("instructions:     507\n"), "{text}");
    assert!(text.contains("cycles:           338\n"), "{text}");
    assert!(text.contains("IPC:              1.500\n"), "{text}");
}

#[test]
fn branch_free_program_is_timed() {
    let straight = "    mov r1 = 3\n    add r2 = r1, 4\n    nop\n    nop\n    nop\n    halt\n";
    let out = pbpredict("straight.s", straight, &[]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cond branches:    0\n"), "{text}");
    // six instructions fill one six-wide fetch block
    assert!(text.contains("cycles:           1\n"), "{text}");
    assert!(text.contains("IPC:              6.000\n"), "{text}");
}

#[test]
fn oracle_spec_is_perfect() {
    let out = pbpredict("oracle.s", PROGRAM, &["--predictor", "oracle"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mispredictions:   0"), "{text}");
}

#[test]
fn composite_spec_parses_and_runs() {
    let spec = "perceptron:7/14+sfpf+pgu8";
    let out = pbpredict("composite.s", PROGRAM, &["--predictor", spec]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("sfpf+pgu[d8]+perceptron-7/14"), "{text}");
}

#[test]
fn modern_specs_parse_and_run() {
    for (spec, name) in [
        ("tage:4/10/64", "predictor:        tage-4/10/64"),
        (
            "pmpp:12+sfpf+pgu8",
            "predictor:        sfpf+pgu[d8]+pmpp-12",
        ),
    ] {
        let out = pbpredict("modern.s", PROGRAM, &["--predictor", spec]);
        assert!(
            out.status.success(),
            "{spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(name), "{spec}: {text}");
        assert!(text.contains("cond branches:    101"), "{spec}: {text}");
    }
}

#[test]
fn bad_spec_is_rejected() {
    // `tage` is a modern base but takes three parameters
    let out = pbpredict("badspec.s", PROGRAM, &["--predictor", "tage:9"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad predictor spec"), "{err}");
}

#[test]
fn out_of_range_parameter_is_rejected_before_building() {
    // `gshare:0/13` used to parse and then panic in the table
    // constructor, and a repeated modifier used to build; the parser now
    // refuses both with one line
    for (spec, reason) in [
        ("gshare:0/13", "table index bits must be 1..=28"),
        ("gshare:13/13+sfpf+sfpf!", "repeated sfpf modifier"),
    ] {
        let out = pbpredict("range.s", PROGRAM, &["--predictor", spec]);
        assert_eq!(out.status.code(), Some(1), "{spec}");
        assert!(out.stdout.is_empty(), "{spec}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            err,
            format!("pbpredict: bad predictor spec: {reason} in `{spec}`\n")
        );
    }
}

#[test]
fn stack_listing_matches_the_generated_table() {
    // the printed listing must be exactly the variants the stack macro
    // emitted — one line per variant, names and payload types matching
    let out = Command::new(env!("CARGO_BIN_EXE_pbpredict"))
        .arg("--list-stacks")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let printed: Vec<(String, String)> = text
        .lines()
        .skip(1) // header
        .map(|line| {
            let mut cols = line.split_whitespace();
            (
                cols.next().unwrap().to_string(),
                cols.next().unwrap().to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String)> = predbranch_modern::ModernStack::VARIANTS
        .iter()
        .map(|v| (v.name.to_string(), v.type_name()))
        .collect();
    assert_eq!(printed, expected, "CLI listing drifted from the enum");
}

#[test]
fn list_stacks_exits_quietly_when_stdout_is_closed() {
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `pbpredict ... | head -1`
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pbpredict"))
        .arg("--list-stacks")
        .stdout(writer)
        .output()
        .expect("pbpredict runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
