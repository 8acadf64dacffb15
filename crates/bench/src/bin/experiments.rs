//! Regenerates the study's tables and figures as text.
//!
//! ```text
//! experiments                # list experiments
//! experiments all            # run everything (full suite)
//! experiments f3 f5          # run selected experiments
//! experiments --quick all    # 3-benchmark quick mode
//! experiments --bars f5      # render series as text bar charts too
//! experiments --markdown all # fence artifacts for EXPERIMENTS.md
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
//! experiments --shard 0/2 --checkpoint s0.ckpt --manifest s0.json all
//!                            # run only the gang units this shard owns
//!                            # (deterministic partition by stream
//!                            # digest); artifacts are suppressed — the
//!                            # shard journal/manifest are the product
//! experiments merge --out merged.ckpt --manifest merged.json \
//!     s0.ckpt s1.ckpt s0.json s1.json
//!                            # stitch shard journals (.ckpt) and
//!                            # manifests (.json) into canonical merged
//!                            # forms, exactly-once by cell key; a
//!                            # finalize pass over merged.ckpt then
//!                            # reprints the sweep byte-identically
//! experiments --list-stacks  # list every statically-dispatched
//!                            # predictor stack (generated from the
//!                            # stack macro, never hand-maintained)
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::runner::{RunContext, Shard};
use predbranch_bench::{all_experiments, Scale};
use predbranch_sweep::{merge_journals, merge_manifests, Json, ManifestBuilder};

/// The `merge` subcommand: stitch shard-scoped journals (`.ckpt`
/// positionals, merged to `--out`) and manifests (`.json` positionals,
/// merged to `--manifest`) into their canonical forms. Exactly-once by
/// content-addressed cell key; conflicting duplicates are refused.
fn run_merge(
    out: Option<&str>,
    manifest_out: Option<&str>,
    inputs: &[String],
) -> Result<(), String> {
    let mut journals: Vec<(String, String)> = Vec::new();
    let mut manifests: Vec<(String, Json)> = Vec::new();
    for path in inputs {
        let read =
            |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        if path.ends_with(".ckpt") {
            journals.push((path.clone(), read(path)?));
        } else if path.ends_with(".json") {
            let parsed =
                Json::parse(&read(path)?).map_err(|e| format!("cannot parse {path}: {e}"))?;
            manifests.push((path.clone(), parsed));
        } else {
            return Err(format!(
                "merge input {path} is neither a journal (.ckpt) nor a manifest (.json)"
            ));
        }
    }
    if journals.is_empty() && manifests.is_empty() {
        return Err("merge needs at least one .ckpt or .json input".into());
    }
    if !journals.is_empty() {
        let out = out.ok_or("merging journals needs --out <merged.ckpt>")?;
        let (text, report) = merge_journals(&journals)?;
        std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("merged {} journals -> {out}: {report}", journals.len());
    }
    if !manifests.is_empty() {
        let out = manifest_out.ok_or("merging manifests needs --manifest <merged.json>")?;
        let (merged, report) = merge_manifests(&manifests)?;
        std::fs::write(out, merged.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("merged {} manifests -> {out}: {report}", manifests.len());
    }
    Ok(())
}

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
    let bars = flag("--bars");
    let markdown = flag("--markdown");
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
    let (trace_cache, jobs, manifest_path, checkpoint_path, retire, out, shard) = match (
        valued("--trace-cache"),
        valued("--jobs"),
        valued("--manifest"),
        valued("--checkpoint"),
        valued("--retire-latency"),
        valued("--out"),
        valued("--shard"),
    ) {
        (Ok(tc), Ok(j), Ok(m), Ok(c), Ok(r), Ok(o), Ok(s)) => (tc, j, m, c, r, o, s),
        (tc, j, m, c, r, o, s) => {
            for err in [
                tc.err(),
                j.err(),
                m.err(),
                c.err(),
                r.err(),
                o.err(),
                s.err(),
            ]
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
    let shard: Option<Shard> = match shard.as_deref().map(str::parse).transpose() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--shard: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if args.first().map(String::as_str) == Some("merge") {
        if let Err(e) = run_merge(out.as_deref(), manifest_path.as_deref(), &args[1..]) {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(option) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown option `{option}` (run with no arguments for usage)");
        return Ok(ExitCode::FAILURE);
    }

    let mut ctx = RunContext::new().with_jobs(jobs);
    if let Some(s) = shard {
        ctx = ctx.with_shard(s);
        if checkpoint_path.is_none() {
            eprintln!(
                "warning: --shard {s} without --checkpoint discards this shard's results \
                 (the journal is the product of a sharded run)"
            );
        }
    }
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
    if let (Some(s), Some(_)) = (shard, &checkpoint_path) {
        // shard provenance in the journal itself: a keyless note line
        // the loader skips and the merge step drops
        let note = Json::obj()
            .field("note", "shard")
            .field("index", u64::from(s.index))
            .field("of", u64::from(s.count))
            .field("command", command.as_str());
        if let Err(e) = ctx.checkpoint_note(&note) {
            eprintln!("warning: cannot stamp shard provenance: {e}");
        }
    }
    if manifest_path.is_some() {
        let mut manifest = ManifestBuilder::new(&command, jobs);
        if let Some(s) = shard {
            manifest = manifest.with_shard(s.index, s.count);
        }
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

    if args.is_empty() {
        writeln!(
            stdout,
            "experiments — regenerate the study's tables and figures\n"
        )?;
        writeln!(
            stdout,
            "usage: experiments [--quick] [--jobs N] [--retire-latency R] \
             [--trace-cache <dir>] [--shard i/N] \
             [--manifest <file>] [--checkpoint <file>] <id>... | all \
             | merge --out <merged.ckpt> --manifest <merged.json> <shard files>... \
             | --list-stacks\n"
        )?;
        for exp in all_experiments() {
            writeln!(stdout, "  {:<4} {}", exp.id, exp.title)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let selected = if args.iter().any(|a| a == "all") {
        all_experiments()
    } else {
        let mut chosen = Vec::new();
        for id in &args {
            match find_experiment(id) {
                Some(exp) => chosen.push(exp),
                None => {
                    eprintln!("unknown experiment `{id}` (run with no arguments to list)");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        chosen
    };

    for exp in selected {
        eprintln!("running {} — {} ...", exp.id, exp.title);
        if markdown && shard.is_none() {
            writeln!(stdout, "## {} — {}\n", exp.id, exp.title)?;
        }
        for artifact in (exp.run)(&ctx, &scale) {
            // a shard computes only the cells it owns, so its aggregate
            // artifacts would mix real numbers with placeholders —
            // suppress them; the journal/manifest are the product, and
            // a finalize pass over the merged journal reprints the
            // sweep byte-identically
            if shard.is_some() {
                continue;
            }
            if markdown {
                writeln!(stdout, "```text\n{artifact}```\n")?;
            } else {
                writeln!(stdout, "{artifact}")?;
            }
            if bars {
                if let predbranch_bench::Artifact::Series(series) = &artifact {
                    writeln!(stdout, "{}", series.to_bars(50))?;
                }
            }
        }
    }
    let stats = ctx.stats();
    if let Some(s) = shard {
        eprintln!(
            "shard {s}: {} cells outside this shard skipped",
            stats.shard_skips
        );
    }
    if trace_cache.is_some() {
        eprintln!(
            "trace cache: {} replays, {} recordings",
            stats.replays, stats.recordings
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
