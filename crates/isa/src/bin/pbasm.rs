//! `pbasm` — assembler/disassembler for the predbranch ISA.
//!
//! ```text
//! pbasm asm <file.s>      assemble; print one 16-digit hex word per line
//! pbasm disasm <file.hex> decode hex words; print assembly
//! pbasm check <file.s>    validate and print static statistics
//! ```

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_isa::{assemble, decode_program, encode_program, Inst, Program};

/// Runs the command, writing its output to `out`. A write error ends
/// the run early and is returned.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode, path] => (mode.as_str(), path.as_str()),
        _ => {
            eprintln!("usage: pbasm <asm|disasm|check> <file>");
            return Ok(ExitCode::FAILURE);
        }
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pbasm: cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    Ok(match mode {
        "asm" => match assemble(&text) {
            Ok(program) => match encode_program(&program) {
                Ok(words) => {
                    for word in words {
                        writeln!(out, "{word:016x}")?;
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pbasm: encode error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("pbasm: {path}: {e}");
                ExitCode::FAILURE
            }
        },
        "disasm" => {
            let mut words = Vec::new();
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match u64::from_str_radix(line, 16) {
                    Ok(w) => words.push(w),
                    Err(e) => {
                        eprintln!("pbasm: {path}:{}: bad hex word: {e}", i + 1);
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            match decode_program(&words) {
                Ok(insts) => {
                    for (pc, inst) in insts.iter().enumerate() {
                        writeln!(out, "{pc:>6}: {inst}")?;
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pbasm: decode error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "check" => match assemble(&text) {
            Ok(program) => {
                print_stats(out, &program)?;
                let lints = predbranch_isa::lint_program(&program);
                if lints.is_empty() {
                    writeln!(out, "lints:                none")?;
                } else {
                    for lint in &lints {
                        writeln!(out, "lint: {lint}")?;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pbasm: {path}: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("pbasm: unknown mode `{other}` (use asm|disasm|check)");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // a reader that stops early (`pbasm asm prog.s | head`) is not a
        // failure of the run
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbasm: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_stats(out: &mut impl Write, program: &Program) -> io::Result<()> {
    let s = program.stats();
    writeln!(out, "instructions:         {}", s.instructions)?;
    writeln!(out, "branches:             {}", s.branches)?;
    writeln!(out, "  conditional:        {}", s.conditional_branches)?;
    writeln!(out, "  region-based:       {}", s.region_branches)?;
    writeln!(out, "compares:             {}", s.compares)?;
    writeln!(out, "predicated:           {}", s.predicated)?;
    let guards: std::collections::BTreeSet<_> = program
        .insts()
        .iter()
        .filter(|i| i.is_predicated())
        .map(|i: &Inst| i.guard)
        .collect();
    writeln!(
        out,
        "guard predicates used: {}",
        guards
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    )
}
