//! End-to-end tests of the `pbasm` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("predbranch-test-{}-{name}", std::process::id()));
    p
}

const PROGRAM: &str = "    mov r1 = 0\nloop:\n    cmp.lt p1, p2 = r1, 5\n    (p1) add r1 = r1, 1\n    (p1) br.region 0, loop\n    halt\n";

#[test]
fn asm_disasm_roundtrip_through_the_binary() {
    let src = scratch("roundtrip.s");
    fs::write(&src, PROGRAM).unwrap();

    let asm = Command::new(env!("CARGO_BIN_EXE_pbasm"))
        .args(["asm", src.to_str().unwrap()])
        .output()
        .expect("pbasm runs");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );
    let hex = String::from_utf8(asm.stdout).unwrap();
    assert_eq!(hex.lines().count(), 5);

    let hex_path = scratch("roundtrip.hex");
    fs::write(&hex_path, &hex).unwrap();
    let disasm = Command::new(env!("CARGO_BIN_EXE_pbasm"))
        .args(["disasm", hex_path.to_str().unwrap()])
        .output()
        .expect("pbasm runs");
    assert!(disasm.status.success());
    let text = String::from_utf8(disasm.stdout).unwrap();
    assert!(text.contains("cmp.lt p1, p2 = r1, 5"), "{text}");
    assert!(text.contains("br.region 0, @1"), "{text}");

    fs::remove_file(src).ok();
    fs::remove_file(hex_path).ok();
}

#[test]
fn check_reports_stats_and_lints() {
    let src = scratch("check.s");
    fs::write(&src, "(p9) nop\n halt\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbasm"))
        .args(["check", src.to_str().unwrap()])
        .output()
        .expect("pbasm runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("instructions:         2"), "{text}");
    assert!(text.contains("lint: pc 0: guard p9"), "{text}");
    fs::remove_file(src).ok();
}

#[test]
fn bad_input_fails_with_diagnostic() {
    let src = scratch("bad.s");
    fs::write(&src, "frobnicate r1\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbasm"))
        .args(["asm", src.to_str().unwrap()])
        .output()
        .expect("pbasm runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown mnemonic"), "{err}");
    fs::remove_file(src).ok();
}

#[test]
fn missing_file_and_bad_mode_fail() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbasm"))
        .args(["asm", "/nonexistent/path.s"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_pbasm")).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let src = scratch("closed.s");
    fs::write(&src, PROGRAM).unwrap();
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `pbasm asm prog.s | head -1`
    for mode in ["asm", "check"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pbasm"))
            .arg(mode)
            .arg(&src)
            .stdout(writer)
            .output()
            .expect("pbasm runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{mode}: {:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{mode}: {stderr}");
    }
    fs::remove_file(src).ok();
}
