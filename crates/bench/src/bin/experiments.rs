//! Regenerates the study's tables and figures as text.
//!
//! ```text
//! experiments                # list experiments
//! experiments all            # run everything (full suite)
//! experiments f3 f5          # run selected experiments
//! experiments --quick all    # 3-benchmark quick mode
//! experiments --trace-cache .traces f5
//!                            # execute each (binary, input) once,
//!                            # replay recorded traces for every predictor
//! experiments --jobs 8 all   # run experiment cells on 8 worker lanes;
//!                            # stdout is byte-identical to --jobs 1
//! experiments --retire-latency 8 f3
//!                            # commit predictor training 8 fetch slots
//!                            # after each branch instead of immediately
//! experiments --manifest run.json all
//!                            # write a JSON run record (cells, sources,
//!                            # wall-clock, cache traffic)
//! experiments --checkpoint run.ckpt all
//!                            # journal completed cells; an interrupted
//!                            # sweep resumes from where it died
//! experiments --list-stacks  # list every statically-dispatched
//!                            # predictor stack (generated from the
//!                            # stack macro, never hand-maintained)
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::runner::RunContext;
use predbranch_bench::{all_experiments, Scale};
use predbranch_sweep::ManifestBuilder;

/// Runs the command line, writing every artifact and listing to
/// `stdout`. A write error ends the run early and is returned.
fn run(stdout: &mut impl Write) -> io::Result<ExitCode> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = format!("experiments {}", args.join(" "));
    let mut flag = |name: &str| -> bool {
        if let Some(pos) = args.iter().position(|a| a == name) {
            args.remove(pos);
            true
        } else {
            false
        }
    };
    let quick = flag("--quick");
    if flag("--list-stacks") {
        // generated straight from the stack macro's variant table, so
        // the listing can never drift from the dispatch enum
        writeln!(
            stdout,
            "available predictor stacks (variant  payload type):"
        )?;
        for variant in predbranch_modern::ModernStack::VARIANTS {
            writeln!(stdout, "  {:<20} {}", variant.name, variant.type_name())?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut valued = |name: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == name) {
            Some(pos) if pos + 1 < args.len() => {
                let value = args.remove(pos + 1);
                args.remove(pos);
                Ok(Some(value))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    };
    let (trace_cache, jobs, manifest_path, checkpoint_path, retire) = match (
        valued("--trace-cache"),
        valued("--jobs"),
        valued("--manifest"),
        valued("--checkpoint"),
        valued("--retire-latency"),
    ) {
        (Ok(tc), Ok(j), Ok(m), Ok(c), Ok(r)) => (tc, j, m, c, r),
        (tc, j, m, c, r) => {
            for err in [tc.err(), j.err(), m.err(), c.err(), r.err()]
                .into_iter()
                .flatten()
            {
                eprintln!("{err}");
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    let jobs: usize = match jobs.as_deref().map(str::parse).transpose() {
        Ok(n) => n.unwrap_or(1).max(1),
        Err(e) => {
            eprintln!("--jobs needs a positive integer: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let retire: u64 = match retire.as_deref().map(str::parse).transpose() {
        Ok(n) => n.unwrap_or(0),
        Err(e) => {
            eprintln!("--retire-latency needs a non-negative integer: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if let Some(option) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown option `{option}` (run with no arguments for usage)");
        return Ok(ExitCode::FAILURE);
    }

    if args.is_empty() {
        writeln!(
            stdout,
            "experiments — regenerate the study's tables and figures\n"
        )?;
        writeln!(
            stdout,
            "usage: experiments [--quick] [--jobs N] [--retire-latency R] \
             [--trace-cache <dir>] [--manifest <file>] [--checkpoint <file>] \
             <id>... | all | --list-stacks\n"
        )?;
        for exp in all_experiments() {
            writeln!(stdout, "  {:<4} {}", exp.id, exp.title)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    // every word must name an experiment, even next to `all`; checked
    // before anything is opened, so a refused run leaves no file behind
    let mut chosen = Vec::new();
    for id in args.iter().filter(|a| *a != "all") {
        match find_experiment(id) {
            Some(exp) => chosen.push(exp),
            None => {
                eprintln!("unknown experiment `{id}` (run with no arguments to list)");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let selected = if args.iter().any(|a| a == "all") {
        all_experiments()
    } else {
        chosen
    };

    let mut ctx = RunContext::new().with_jobs(jobs);
    if let Some(dir) = &trace_cache {
        ctx = match ctx.with_trace_cache(dir) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("cannot open trace cache {dir}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    }
    if let Some(path) = &checkpoint_path {
        ctx = match ctx.with_checkpoint(path) {
            Ok(ctx) => {
                eprintln!(
                    "checkpoint {path}: {} completed cells loaded",
                    ctx.checkpoint_loaded().unwrap_or(0)
                );
                ctx
            }
            Err(e) => {
                eprintln!("cannot open checkpoint {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    }
    if let Some(path) = &manifest_path {
        // created now, so a path that cannot be written fails before
        // anything runs; the record itself is written at the end
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot write manifest {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        let manifest = ManifestBuilder::new(&command, jobs);
        manifest.fingerprint(
            "compile-options",
            format!(
                "{:016x}",
                predbranch_workloads::CompileOptions::default().fingerprint()
            ),
        );
        ctx = ctx.with_manifest(manifest);
    }
    let scale = if quick { Scale::quick() } else { Scale::full() }.with_retire(retire);

    for exp in selected {
        eprintln!("running {} — {} ...", exp.id, exp.title);
        for artifact in (exp.run)(&ctx, &scale) {
            writeln!(stdout, "{artifact}")?;
        }
    }
    let stats = ctx.stats();
    if trace_cache.is_some() {
        eprintln!(
            "trace cache: {} replays, {} recordings",
            stats.replays, stats.recordings
        );
    }
    if stats.repeats > 0 {
        eprintln!(
            "repeats: {} cells restored from an earlier cell with the same key",
            stats.repeats
        );
    }
    if checkpoint_path.is_some() && stats.checkpoint_hits > 0 {
        eprintln!(
            "checkpoint: {} cells restored without re-running",
            stats.checkpoint_hits
        );
    }
    if let (Some(path), Some(manifest)) = (&manifest_path, ctx.manifest()) {
        let cache = trace_cache
            .as_ref()
            .map(|_| (stats.replays, stats.recordings));
        match manifest.write(path, cache) {
            Ok(()) => eprintln!("manifest: {} cells -> {path}", manifest.cell_count()),
            Err(e) => {
                eprintln!("cannot write manifest {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // a reader that stops early (`experiments all | head`) is not
        // a failure of the run
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
