//! End-to-end tests of the `pbsim` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("predbranch-sim-test-{}-{name}", std::process::id()));
    p
}

const PROGRAM: &str = "    mov r1 = 0\nloop:\n    cmp.lt p1, p2 = r1, 7\n    (p1) add r1 = r1, 1\n    (p1) br.region 0, loop\n    halt\n";

#[test]
fn runs_assembly_and_reports_summary() {
    let src = scratch("run.s");
    fs::write(&src, PROGRAM).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
        .args([src.to_str().unwrap(), "--latency", "2"])
        .output()
        .expect("pbsim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("halted:              true"), "{text}");
    assert!(text.contains("region-based:      8"), "{text}");
    fs::remove_file(src).ok();
}

#[test]
fn usage_names_every_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
        .output()
        .expect("pbsim runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    for option in ["--hex", "--max", "--latency", "--trace"] {
        assert!(stderr.contains(option), "usage omits {option}: {stderr}");
    }
}

#[test]
fn trace_mode_prints_events() {
    let src = scratch("trace.s");
    fs::write(&src, PROGRAM).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
        .args([src.to_str().unwrap(), "--trace"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("branch "), "{text}");
    assert!(text.contains("predset"), "{text}");
    fs::remove_file(src).ok();
}

#[test]
fn hex_mode_executes_encoded_words() {
    // encode the program with the library, execute via --hex
    let program = predbranch_isa::assemble(PROGRAM).unwrap();
    let words = predbranch_isa::encode_program(&program).unwrap();
    let hex: String = words.iter().map(|w| format!("{w:016x}\n")).collect();
    let path = scratch("run.hex");
    fs::write(&path, hex).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
        .args([path.to_str().unwrap(), "--hex"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("halted:              true"), "{text}");
    fs::remove_file(path).ok();
}

#[test]
fn budget_exhaustion_is_a_failure_exit() {
    let src = scratch("spin.s");
    fs::write(&src, "loop: br loop\n halt\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
        .args([src.to_str().unwrap(), "--max", "100"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    fs::remove_file(src).ok();
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let src = scratch("closed.s");
    fs::write(&src, PROGRAM).unwrap();
    // a pipe whose read end is already gone: every write the child
    // makes fails with a broken pipe, as under `pbsim prog.s | head -1`
    for args in [&[][..], &["--trace"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pbsim"))
            .arg(&src)
            .args(args)
            .stdout(writer)
            .output()
            .expect("pbsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    fs::remove_file(src).ok();
}
