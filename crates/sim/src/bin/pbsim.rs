//! `pbsim` — run a predbranch assembly program and report dynamic
//! statistics.
//!
//! ```text
//! pbsim <file.s|file.hex> [--hex] [--max N] [--latency L] [--trace]
//! ```

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_isa::assemble;
use predbranch_sim::{
    Event, Executor, GuardKnowledgeStats, Memory, TraceSink, DEFAULT_RESOLVE_LATENCY,
};
use predbranch_stats::Ratio;

struct Options {
    path: String,
    max: u64,
    latency: u64,
    trace: bool,
    hex: bool,
}

fn parse_args() -> Option<Options> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        max: 10_000_000,
        latency: DEFAULT_RESOLVE_LATENCY,
        trace: false,
        hex: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max" => opts.max = args.next()?.parse().ok()?,
            "--latency" => opts.latency = args.next()?.parse().ok()?,
            "--trace" => opts.trace = true,
            "--hex" => opts.hex = true,
            path if opts.path.is_empty() && !path.starts_with('-') => {
                opts.path = path.to_string();
            }
            _ => return None,
        }
    }
    if opts.path.is_empty() {
        None
    } else {
        Some(opts)
    }
}

/// Runs the command, writing every line of its report to `out`. A
/// write error ends the run early and is returned.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let Some(opts) = parse_args() else {
        eprintln!("usage: pbsim <file.s|file.hex> [--hex] [--max N] [--latency L] [--trace]");
        return Ok(ExitCode::FAILURE);
    };
    let text = match fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pbsim: cannot read {}: {e}", opts.path);
            return Ok(ExitCode::FAILURE);
        }
    };
    let program = if opts.hex {
        let words: Result<Vec<u64>, _> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| u64::from_str_radix(l, 16))
            .collect();
        let insts = words
            .map_err(|e| e.to_string())
            .and_then(|w| predbranch_isa::decode_program(&w).map_err(|e| e.to_string()))
            .and_then(|insts| predbranch_isa::Program::new(insts).map_err(|e| e.to_string()));
        match insts {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pbsim: {}: {e}", opts.path);
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        match assemble(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pbsim: {}: {e}", opts.path);
                return Ok(ExitCode::FAILURE);
            }
        }
    };

    let mut exec = Executor::new(&program, Memory::new());
    let mut sinks = (GuardKnowledgeStats::new(opts.latency), TraceSink::new());
    let summary = exec.run(&mut sinks, opts.max);
    let (knowledge, trace) = sinks;

    if opts.trace {
        for event in trace.events() {
            match event {
                Event::Branch(b) => writeln!(
                    out,
                    "branch  @{:>5} pc {:>5} guard {:<4} {}",
                    b.index,
                    b.pc,
                    b.guard.to_string(),
                    if b.taken { "taken" } else { "not-taken" }
                )?,
                Event::PredWrite(w) => writeln!(
                    out,
                    "predset @{:>5} pc {:>5} {:<4} = {}",
                    w.index,
                    w.pc,
                    w.preg.to_string(),
                    w.value
                )?,
            }
        }
    }

    writeln!(out, "halted:              {}", summary.halted)?;
    writeln!(out, "instructions:        {}", summary.instructions)?;
    writeln!(out, "branches:            {}", summary.branches)?;
    writeln!(out, "  conditional:       {}", summary.conditional_branches)?;
    writeln!(out, "  taken:             {}", summary.taken_conditional)?;
    writeln!(out, "  region-based:      {}", summary.region_branches)?;
    writeln!(out, "predicate writes:    {}", summary.pred_writes)?;
    let taken = Ratio::of(summary.taken_conditional, summary.conditional_branches);
    writeln!(out, "taken fraction:      {taken}")?;
    writeln!(
        out,
        "guard @fetch (lat {}): known-false {} / known-true {} / unknown {}",
        opts.latency,
        knowledge.known_false(),
        knowledge.known_true(),
        knowledge.unknown()
    )?;
    if summary.halted {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("pbsim: instruction budget exhausted");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // a reader that stops early (`pbsim --trace prog.s | head`) is
        // not a failure of the run
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbsim: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
