//! `pbcc` — compile a suite benchmark to predbranch assembly.
//!
//! ```text
//! pbcc list                          list benchmarks
//! pbcc <bench>                       plain (branchy) lowering to stdout
//! pbcc <bench> --ifconvert           profile-guided if-conversion
//! pbcc <bench> --ifconvert --threshold 0.95
//! pbcc <bench> --report              compilation report instead of assembly
//! ```
//!
//! The emitted text round-trips through `pbasm`/`pbsim`.

use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_workloads::{compile_benchmark, suite, CompileOptions, IfConvertConfig};

struct Options {
    bench: String,
    ifconvert: bool,
    threshold: Option<f64>,
    report: bool,
}

fn parse_args() -> Option<Options> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        bench: String::new(),
        ifconvert: false,
        threshold: None,
        report: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ifconvert" => opts.ifconvert = true,
            "--threshold" => opts.threshold = Some(args.next()?.parse().ok()?),
            "--report" => opts.report = true,
            name if opts.bench.is_empty() && !name.starts_with('-') => {
                opts.bench = name.to_string();
            }
            _ => return None,
        }
    }
    if opts.bench.is_empty() {
        None
    } else {
        Some(opts)
    }
}

/// Runs the command, writing its output to `out`. A write error ends
/// the run early and is returned.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let Some(opts) = parse_args() else {
        eprintln!("usage: pbcc <bench|list> [--ifconvert] [--threshold X] [--report]");
        return Ok(ExitCode::FAILURE);
    };
    if opts.bench == "list" {
        for bench in suite() {
            writeln!(out, "{:<9} {}", bench.name(), bench.description())?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let Some(bench) = suite().into_iter().find(|b| b.name() == opts.bench) else {
        eprintln!("pbcc: unknown benchmark `{}` (try `pbcc list`)", opts.bench);
        return Ok(ExitCode::FAILURE);
    };

    let mut compile_opts = CompileOptions::default();
    if let Some(threshold) = opts.threshold {
        compile_opts.ifconv = IfConvertConfig {
            convert_bias_below: threshold,
            ..IfConvertConfig::default()
        };
    }
    let compiled = compile_benchmark(&bench, &compile_opts);

    if opts.report {
        writeln!(out, "benchmark:           {}", compiled.name)?;
        writeln!(out, "plain instructions:  {}", compiled.plain.len())?;
        writeln!(out, "pred  instructions:  {}", compiled.predicated.len())?;
        let stats = compiled.ifconv_stats;
        writeln!(out, "regions formed:      {}", stats.regions_formed)?;
        writeln!(out, "branches converted:  {}", stats.branches_converted)?;
        writeln!(out, "region branches:     {}", stats.branches_kept)?;
        writeln!(out, "blocks predicated:   {}", stats.blocks_predicated)?;
        for region in &compiled.regions {
            writeln!(
                out,
                "  region {:>2} @ {:<5} {:>2} blocks, {} converted, {} kept",
                region.id,
                region.seed.to_string(),
                region.blocks.len(),
                region.converted_branches,
                region.kept_branches
            )?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let program = if opts.ifconvert {
        &compiled.predicated
    } else {
        &compiled.plain
    };
    write!(out, "{program}")?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // a reader that stops early (`pbcc list | head`) is not a
        // failure of the run
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbcc: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
