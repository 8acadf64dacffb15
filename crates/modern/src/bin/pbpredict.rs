//! `pbpredict` — run a predbranch assembly program under a chosen
//! predictor and report prediction metrics.
//!
//! ```text
//! pbpredict <file.s> [--predictor SPEC] [--latency L] [--retire-latency R] [--max N]
//! pbpredict --list-stacks
//!
//! SPEC examples:  gshare:13/13          bimodal:14
//!                 gshare:13/13+sfpf     gshare:13/13+pgu8
//!                 perceptron:7/14+sfpf+pgu8    oracle
//!                 tage:8/12/128         ptage:8/12/128+sfpf
//!                 mpp:13+pgu8           pmpp:13+sfpf+pgu8
//! ```

use std::fs;
use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_core::{BranchPredictor, HarnessConfig, InsertFilter, PredictionHarness, Timing};
use predbranch_isa::assemble;
use predbranch_modern::{build_modern_stack, ModernSpec, ModernStack};
use predbranch_sim::{
    Executor, Memory, PipelineConfig, DEFAULT_RESOLVE_LATENCY, DEFAULT_RETIRE_LATENCY,
};

struct Options {
    path: String,
    spec: String,
    latency: u64,
    retire_latency: u64,
    max: u64,
    list_stacks: bool,
}

fn parse_args() -> Option<Options> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        spec: "gshare:13/13".to_string(),
        latency: DEFAULT_RESOLVE_LATENCY,
        retire_latency: DEFAULT_RETIRE_LATENCY,
        max: 10_000_000,
        list_stacks: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--predictor" => opts.spec = args.next()?,
            "--latency" => opts.latency = args.next()?.parse().ok()?,
            "--retire-latency" => opts.retire_latency = args.next()?.parse().ok()?,
            "--max" => opts.max = args.next()?.parse().ok()?,
            "--list-stacks" => opts.list_stacks = true,
            path if opts.path.is_empty() && !path.starts_with('-') => {
                opts.path = path.to_string();
            }
            _ => return None,
        }
    }
    if opts.path.is_empty() && !opts.list_stacks {
        None
    } else {
        Some(opts)
    }
}

/// Prints every stack variant. The table is emitted by the stack macro
/// from the same token stream as the dispatch enum, so this listing
/// cannot drift from the code (the CLI integration test diffs it against
/// the library table).
fn list_stacks(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "available predictor stacks (variant  payload type):")?;
    for variant in ModernStack::VARIANTS {
        writeln!(out, "  {:<20} {}", variant.name, variant.type_name())?;
    }
    Ok(())
}

/// Runs the command line, writing every report line to `out`. A write
/// error ends the run early and is returned.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let Some(opts) = parse_args() else {
        eprintln!(
            "usage: pbpredict <file.s> [--predictor SPEC] [--latency L] [--retire-latency R] [--max N]\n       pbpredict --list-stacks"
        );
        return Ok(ExitCode::FAILURE);
    };
    if opts.list_stacks {
        list_stacks(out)?;
        return Ok(ExitCode::SUCCESS);
    }
    let text = match fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pbpredict: cannot read {}: {e}", opts.path);
            return Ok(ExitCode::FAILURE);
        }
    };
    let program = match assemble(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pbpredict: {}: {e}", opts.path);
            return Ok(ExitCode::FAILURE);
        }
    };
    let spec: ModernSpec = match opts.spec.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pbpredict: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let predictor = build_modern_stack(&spec);
    writeln!(out, "predictor:        {}", predictor.name())?;
    writeln!(out, "storage bits:     {}", predictor.storage_bits())?;
    let mut harness = PredictionHarness::new(
        predictor,
        HarnessConfig {
            timing: Timing::new(opts.latency, opts.retire_latency),
            insert: InsertFilter::All,
        },
    )
    .with_timeline(PipelineConfig::default());
    let summary = Executor::new(&program, Memory::new()).run(&mut harness, opts.max);
    harness.finish();

    let m = harness.metrics();
    writeln!(out, "halted:           {}", summary.halted)?;
    writeln!(out, "instructions:     {}", summary.instructions)?;
    writeln!(out, "cond branches:    {}", m.all.branches)?;
    writeln!(out, "mispredictions:   {}", m.all.mispredictions)?;
    writeln!(out, "misp rate:        {}", m.all.misp_rate())?;
    writeln!(out, "  region:         {}", m.region.misp_rate())?;
    writeln!(out, "  non-region:     {}", m.non_region.misp_rate())?;
    writeln!(out, "MPKI:             {:.3}", m.mpki(summary.instructions))?;
    writeln!(out, "kf-guard fetches: {}", m.known_false_guard)?;
    if let Some(timeline) = harness.timeline(&summary) {
        writeln!(out, "cycles:           {}", timeline.cycles())?;
        writeln!(out, "IPC:              {:.3}", timeline.ipc())?;
    }
    Ok(if summary.halted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // a reader that stops early (`pbpredict --list-stacks | head`)
        // is not a failure of the run
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbpredict: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
