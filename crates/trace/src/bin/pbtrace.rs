//! `pbtrace` — record, inspect, and verify predbranch trace files.
//!
//! ```text
//! pbtrace record --bench <name> -o <file.pbt> [--plain] [--hoist]
//!                [--seed N] [--budget N]
//! pbtrace record <file.s> -o <file.pbt> [--seed N] [--budget N]
//! pbtrace info   <file.pbt> [--json]
//! pbtrace dump   <file.pbt> [--limit N]
//! pbtrace verify <dir|file.pbt> [--quiet]
//! pbtrace migrate <dir>
//! pbtrace stats  <dir> [--json]
//! pbtrace characterize <dir|file.pbt> [--json] [--jobs N]
//! pbtrace list
//! ```
//!
//! `record` compiles a suite benchmark (or assembles a `.s` file) and
//! executes it once, streaming the event trace to disk. `info` prints
//! the provenance header and footer statistics, `dump` prints events as
//! text. `verify` fully checks every trace — and its `.pbtd` segment
//! sidecar, when one exists — under a file or cache directory:
//! structure, event count, checksums, and the sidecar's binding to its
//! trace by checksum (see `verify_one` for what that leaves out); it
//! exits non-zero if *any* file fails, and `--quiet` suppresses
//! per-file OK lines so CI logs only show failures. `migrate` builds
//! missing (or stale) segment sidecars for existing v1 cache entries in
//! place — atomic publish, idempotent. `stats` summarizes a trace-cache
//! directory: entry count, total bytes, segment coverage, and a
//! per-benchmark breakdown. `characterize` replays each trace once
//! through the streaming predictability characterizer and prints the
//! per-static-branch H2P taxonomy; its output is byte-identical at any
//! `--jobs` level.
//!
//! `--json` renders through the same ordered-JSON module the sweep
//! manifests use, so field order — and therefore the byte stream — is
//! deterministic.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use predbranch_characterize::{Characterization, Characterizer};
use predbranch_isa::{assemble, Program};
use predbranch_sim::{Event, Executor, Memory};
use predbranch_sweep::{par_map, Json};
use predbranch_trace::{program_hash, TraceHeader, TraceReader, TraceWriter};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};

const USAGE: &str = "usage:
  pbtrace record --bench <name> -o <file.pbt> [--plain] [--hoist] [--seed N] [--budget N]
  pbtrace record <file.s> -o <file.pbt> [--seed N] [--budget N]
  pbtrace info   <file.pbt> [--json]
  pbtrace dump   <file.pbt> [--limit N]
  pbtrace verify <dir|file.pbt> [--quiet]
  pbtrace migrate <dir>
  pbtrace stats  <dir> [--json]
  pbtrace characterize <dir|file.pbt> [--json] [--jobs N]
  pbtrace list";

/// Why a command failed: a message for stderr, or a write to stdout
/// that failed.
enum Failure {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..], &mut stdout),
        Some("info") => info(&args[1..], &mut stdout),
        Some("dump") => dump(&args[1..], &mut stdout),
        Some("verify") => verify(&args[1..], &mut stdout),
        Some("migrate") => migrate(&args[1..], &mut stdout),
        Some("stats") => stats(&args[1..], &mut stdout),
        Some("characterize") => characterize(&args[1..], &mut stdout),
        Some("list") => list(&mut stdout),
        _ => Err(USAGE.to_string().into()),
    };
    match result.and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // a reader that stops early (`pbtrace list | head`) is not a
        // failure of the command
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("pbtrace: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("pbtrace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list(stdout: &mut impl Write) -> Result<(), Failure> {
    for bench in suite() {
        writeln!(stdout, "{:<12} {}", bench.name(), bench.description())?;
    }
    Ok(())
}

fn record(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let mut bench_name: Option<String> = None;
    let mut asm_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut seed = EVAL_SEED;
    let mut budget = 2 * predbranch_workloads::DEFAULT_MAX_INSTRUCTIONS;
    let mut plain = false;
    let mut hoist = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench_name = Some(take(&mut it, "--bench")?),
            "-o" | "--out" => out = Some(take(&mut it, "-o")?),
            "--seed" => seed = parse(&take(&mut it, "--seed")?)?,
            "--budget" => budget = parse(&take(&mut it, "--budget")?)?,
            "--plain" => plain = true,
            "--hoist" => hoist = true,
            path if !path.starts_with('-') && asm_path.is_none() => {
                asm_path = Some(path.to_string());
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    let out = out.ok_or_else(|| format!("record needs -o <file.pbt>\n{USAGE}"))?;

    let (name, program, memory) = match (bench_name, asm_path) {
        (Some(name), None) => {
            let bench = suite()
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| format!("unknown benchmark {name} (try `pbtrace list`)"))?;
            let opts = CompileOptions {
                hoist,
                ..CompileOptions::default()
            };
            let compiled = compile_benchmark(&bench, &opts);
            let program = if plain {
                compiled.plain
            } else {
                compiled.predicated
            };
            let variant = if plain { "plain" } else { "pred" };
            writeln!(
                stdout,
                "compiled {} ({variant}, options fingerprint {:016x})",
                bench.name(),
                opts.fingerprint()
            )?;
            let label = bench.trace_label(variant, seed);
            (label, program, bench.input(seed))
        }
        (None, Some(path)) => {
            let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let program = assemble(&text).map_err(|e| format!("{path}: {e}"))?;
            let name = path
                .rsplit('/')
                .next()
                .unwrap_or(&path)
                .trim_end_matches(".s")
                .to_string();
            (name, program, Memory::new())
        }
        _ => return Err(format!("record needs --bench <name> or <file.s>\n{USAGE}").into()),
    };

    let summary = record_program(&name, &program, memory, seed, budget, &out)
        .map_err(|e| format!("recording {out}: {e}"))?;
    writeln!(
        stdout,
        "recorded {out}: {} instructions, {} branches ({} conditional), {} pred writes{}",
        summary.instructions,
        summary.branches,
        summary.conditional_branches,
        summary.pred_writes,
        if summary.halted { "" } else { " [budget hit]" },
    )?;
    Ok(())
}

fn record_program(
    name: &str,
    program: &Program,
    memory: Memory,
    seed: u64,
    budget: u64,
    out: &str,
) -> std::io::Result<predbranch_sim::RunSummary> {
    let header = TraceHeader::new(name, program_hash(program), seed, budget);
    let mut writer = TraceWriter::create(out, &header)?;
    let summary = Executor::new(program, memory).run(&mut writer, budget);
    writer.finish(&summary)?;
    Ok(summary)
}

fn info(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let (path, json) = path_and_json(args, "info")?;
    let reader = TraceReader::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let header = reader.header().clone();
    let stats = reader.verify().map_err(|e| format!("{path}: {e}"))?;
    if json {
        let doc = Json::obj()
            .field("file", path.as_str())
            .field(
                "format_version",
                u64::from(predbranch_trace::FORMAT_VERSION),
            )
            .field("benchmark", header.name.as_str())
            .field("program_hash", format!("{:016x}", header.program_hash))
            .field("seed", format!("{:016x}", header.seed))
            .field("budget", json_u64(header.budget))
            .field("events", json_u64(stats.events))
            .field("branches", json_u64(stats.branches))
            .field("conditional", json_u64(stats.summary.conditional_branches))
            .field("region", json_u64(stats.summary.region_branches))
            .field("pred_writes", json_u64(stats.pred_writes))
            .field("instructions", json_u64(stats.summary.instructions))
            .field("halted", stats.summary.halted)
            .field("checksum", format!("{:016x}", stats.checksum));
        writeln!(stdout, "{}", doc.pretty())?;
        return Ok(());
    }
    writeln!(stdout, "file:          {path}")?;
    writeln!(
        stdout,
        "format:        PBTR v{}",
        predbranch_trace::FORMAT_VERSION
    )?;
    writeln!(stdout, "benchmark:     {}", header.name)?;
    writeln!(stdout, "program hash:  {:016x}", header.program_hash)?;
    writeln!(stdout, "input seed:    {:#x}", header.seed)?;
    writeln!(stdout, "budget:        {}", header.budget)?;
    writeln!(stdout, "events:        {}", stats.events)?;
    writeln!(
        stdout,
        "  branches:    {} ({} conditional, {} region)",
        stats.branches, stats.summary.conditional_branches, stats.summary.region_branches
    )?;
    writeln!(stdout, "  pred writes: {}", stats.pred_writes)?;
    writeln!(stdout, "instructions:  {}", stats.summary.instructions)?;
    writeln!(stdout, "halted:        {}", stats.summary.halted)?;
    writeln!(stdout, "checksum:      {:016x}", stats.checksum)?;
    Ok(())
}

fn dump(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let mut path: Option<String> = None;
    let mut limit = u64::MAX;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--limit" => limit = parse(&take(&mut it, "--limit")?)?,
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    let path = path.ok_or_else(|| format!("dump needs a file\n{USAGE}"))?;
    let reader = TraceReader::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let (events, stats) = reader.read_events().map_err(|e| format!("{path}: {e}"))?;
    for event in events.iter().take(limit as usize) {
        match event {
            Event::Branch(b) => writeln!(
                stdout,
                "{:>10}  branch     pc={:<6} target={:<6} {} {}{}",
                b.index,
                b.pc,
                b.target,
                if b.taken { "taken    " } else { "not-taken" },
                if b.conditional {
                    format!("guard={}", b.guard)
                } else {
                    "uncond".into()
                },
                b.region.map_or(String::new(), |r| format!(" region={r}")),
            )?,
            Event::PredWrite(p) => writeln!(
                stdout,
                "{:>10}  pred-write pc={:<6} {}={} (guard {}={})",
                p.index, p.pc, p.preg, p.value as u8, p.guard, p.guard_value as u8,
            )?,
        }
    }
    if (events.len() as u64) > limit {
        writeln!(stdout, "... {} more events", events.len() as u64 - limit)?;
    }
    writeln!(
        stdout,
        "{} events, {} instructions, checksum {:016x}",
        stats.events, stats.summary.instructions, stats.checksum
    )?;
    Ok(())
}

/// Verifies one `.pbt` and, when one exists, its `.pbtd` sidecar.
///
/// For the `.pbt`: its header, that every event decodes, its event
/// count and its checksum. For the `.pbtd`: its structure (magic,
/// version, canary, size for its event count), its word checksum, that
/// each record decodes to a well-formed event, and that its header
/// names the `.pbt`'s trailing checksum as its source. It does not
/// compare the records with the `.pbt`'s events, so a sidecar whose
/// records were changed and then re-checksummed passes; CI's
/// `.github/scripts/check_sidecars.py` is the check that compares them.
///
/// Prints one line per checked file; OK lines are suppressed under
/// `--quiet`. Returns how many of the checked files failed.
fn verify_one(path: &std::path::Path, quiet: bool, stdout: &mut impl Write) -> io::Result<u64> {
    let shown = path.display();
    let mut failed = 0u64;
    match TraceReader::open(path).and_then(|r| {
        let name = r.header().name.clone();
        r.verify().map(|stats| (name, stats))
    }) {
        Ok((name, stats)) => {
            if !quiet {
                writeln!(
                    stdout,
                    "{shown}: OK ({name}, {} events, checksum {:016x})",
                    stats.events, stats.checksum
                )?;
            }
        }
        Err(e) => {
            writeln!(stdout, "{shown}: FAILED: {e}")?;
            failed += 1;
        }
    }
    let seg = predbranch_trace::segment_path(path);
    if seg.exists() {
        match predbranch_trace::TraceMap::open_bound(path) {
            Ok(map) => {
                if !quiet {
                    writeln!(
                        stdout,
                        "{}: OK ({} events, segment-served)",
                        seg.display(),
                        map.header().event_count
                    )?;
                }
            }
            Err(e) => {
                writeln!(stdout, "{}: FAILED: {e}", seg.display())?;
                failed += 1;
            }
        }
    }
    Ok(failed)
}

fn verify(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let mut path: Option<String> = None;
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    let path = path.ok_or_else(|| format!("verify needs a cache dir or file\n{USAGE}"))?;
    let files = trace_files(&path)?;
    let mut failed = 0u64;
    for file in &files {
        failed += verify_one(file, quiet, stdout)?;
    }
    if failed > 0 {
        return Err(format!("{failed} file(s) under {path} failed verification").into());
    }
    if !quiet {
        writeln!(stdout, "{}: all traces verified", path)?;
    }
    Ok(())
}

/// Builds segment sidecars for every v1 cache entry that lacks a valid
/// one. Idempotent: entries whose sidecar is already current are
/// skipped; publication is atomic (temp file + rename), so a crashed or
/// concurrent migrate never leaves a partial sidecar.
fn migrate(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let dir = one_path(args)?;
    if !std::path::Path::new(&dir).is_dir() {
        return Err(format!("{dir}: not a directory\n{USAGE}").into());
    }
    let files = trace_files(&dir)?;
    let (mut built, mut current, mut failed) = (0u64, 0u64, 0u64);
    for file in &files {
        match predbranch_trace::migrate_trace(file) {
            Ok(predbranch_trace::MigrateOutcome::Built) => {
                writeln!(
                    stdout,
                    "{}: built",
                    predbranch_trace::segment_path(file).display()
                )?;
                built += 1;
            }
            Ok(predbranch_trace::MigrateOutcome::UpToDate) => {
                current += 1;
            }
            Err(e) => {
                writeln!(stdout, "{}: FAILED: {e}", file.display())?;
                failed += 1;
            }
        }
    }
    writeln!(
        stdout,
        "migrated {dir}: {built} built, {current} up to date, {failed} failed"
    )?;
    if failed > 0 {
        return Err(format!("{failed} entr(ies) under {dir} failed to migrate").into());
    }
    Ok(())
}

/// The `.pbt` files under a path: the file itself, or a directory scan
/// (sorted). Read-only — never creates directories.
fn trace_files(path: &str) -> Result<Vec<PathBuf>, String> {
    let p = std::path::Path::new(path);
    if p.is_file() {
        return Ok(vec![p.to_path_buf()]);
    }
    if !p.is_dir() {
        return Err(format!("{path}: no such file or directory"));
    }
    let mut files: Vec<PathBuf> = fs::read_dir(p)
        .map_err(|e| format!("{path}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|f| {
            let name = f.file_name().map(|n| n.to_string_lossy().into_owned());
            name.is_some_and(|n| !n.starts_with('.') && n.ends_with(".pbt"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no .pbt traces found"));
    }
    Ok(files)
}

fn stats(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let (dir, json) = path_and_json(args, "stats")?;
    // TraceCache::open creates missing directories; a read-only command
    // must not, and a trace file is not a cache
    if !std::path::Path::new(&dir).is_dir() {
        return Err(format!("{dir}: not a trace-cache directory").into());
    }
    let cache = predbranch_trace::TraceCache::open(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let entries = cache.scan().map_err(|e| format!("{dir}: {e}"))?;

    // group by benchmark: the label's leading component ("gzip-pred-1f"
    // → "gzip"); unreadable headers are grouped as "<corrupt>"
    let mut per_bench: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut total_bytes = 0u64;
    let mut corrupt = 0u64;
    for entry in &entries {
        total_bytes += entry.bytes;
        let bench = match &entry.name {
            Some(name) => name.split('-').next().unwrap_or(name).to_string(),
            None => {
                corrupt += 1;
                "<corrupt>".to_string()
            }
        };
        let slot = per_bench.entry(bench).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += entry.bytes;
    }

    let segments: u64 = entries.iter().filter(|e| e.segment_bytes.is_some()).count() as u64;
    let segment_bytes: u64 = entries.iter().filter_map(|e| e.segment_bytes).sum();

    if json {
        let benchmarks: Vec<Json> = per_bench
            .iter()
            .map(|(bench, (count, bytes))| {
                Json::obj()
                    .field("benchmark", bench.as_str())
                    .field("entries", json_u64(*count))
                    .field("bytes", json_u64(*bytes))
            })
            .collect();
        let doc = Json::obj()
            .field("cache", dir.as_str())
            .field("entries", entries.len())
            .field("bytes", json_u64(total_bytes))
            .field("corrupt", json_u64(corrupt))
            .field(
                "segments",
                Json::obj()
                    .field("entries", json_u64(segments))
                    .field("bytes", json_u64(segment_bytes)),
            )
            .field("benchmarks", Json::Arr(benchmarks));
        writeln!(stdout, "{}", doc.pretty())?;
        return Ok(());
    }

    if entries.is_empty() {
        writeln!(stdout, "{dir}: empty cache (0 entries)")?;
        return Ok(());
    }
    writeln!(stdout, "cache:     {dir}")?;
    writeln!(stdout, "entries:   {}", entries.len())?;
    writeln!(
        stdout,
        "bytes:     {total_bytes} ({})",
        human_bytes(total_bytes)
    )?;
    if corrupt > 0 {
        writeln!(stdout, "corrupt:   {corrupt} (unreadable headers)")?;
    }
    writeln!(
        stdout,
        "segments:  {segments} of {} entries segment-served ({})",
        entries.len(),
        human_bytes(segment_bytes)
    )?;
    writeln!(stdout)?;
    writeln!(
        stdout,
        "{:<14} {:>8} {:>14}",
        "benchmark", "entries", "bytes"
    )?;
    for (bench, (count, bytes)) in &per_bench {
        writeln!(stdout, "{bench:<14} {count:>8} {bytes:>14}")?;
    }
    Ok(())
}

/// Characterizes every trace in a cache directory (or one `.pbt` file):
/// replays each through a [`Characterizer`] — on `--jobs N` lanes,
/// one trace per item — and prints per-trace taxonomy tables or
/// one ordered-JSON document. Results print in scan order regardless of
/// job count, so output is byte-identical at any `--jobs` level.
fn characterize(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let mut path: Option<String> = None;
    let mut json = false;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--jobs" => jobs = parse(&take(&mut it, "--jobs")?)? as usize,
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    let path = path.ok_or_else(|| format!("characterize needs a cache dir or file\n{USAGE}"))?;

    // TraceCache::open creates missing directories; a read-only command
    // must not, so resolve the file list by hand.
    let files: Vec<PathBuf> = if std::path::Path::new(&path).is_dir() {
        let cache =
            predbranch_trace::TraceCache::open(&path).map_err(|e| format!("{path}: {e}"))?;
        let entries = cache.scan().map_err(|e| format!("{path}: {e}"))?;
        entries.into_iter().map(|e| e.path).collect()
    } else if std::path::Path::new(&path).is_file() {
        vec![PathBuf::from(&path)]
    } else {
        return Err(format!("{path}: no such file or directory").into());
    };
    if files.is_empty() {
        return Err(format!("{path}: no .pbt traces found").into());
    }

    // par_map returns results in item (= scan) order, so the rendering
    // below is independent of lane interleaving
    let results: Vec<(String, String, Characterization)> =
        par_map(jobs, files, |file| characterize_one(&file))
            .into_iter()
            .collect::<Result<_, _>>()?;

    if json {
        let traces: Vec<Json> = results
            .iter()
            .map(|(file, benchmark, report)| {
                Json::obj()
                    .field("file", file.as_str())
                    .field("benchmark", benchmark.as_str())
                    .field("report", report.to_json())
            })
            .collect();
        let doc = Json::obj()
            .field("traces", Json::Arr(traces))
            .field("summary", {
                let mut buckets = Json::obj();
                for bucket in predbranch_characterize::Bucket::ALL {
                    let count: usize = results.iter().map(|(_, _, r)| r.bucket_count(bucket)).sum();
                    buckets = buckets.field(bucket.label(), count);
                }
                buckets
            });
        writeln!(stdout, "{}", doc.pretty())?;
        return Ok(());
    }

    for (i, (_, benchmark, report)) in results.iter().enumerate() {
        if i > 0 {
            writeln!(stdout)?;
        }
        writeln!(stdout, "{}", report.table(benchmark.as_str()))?;
        writeln!(stdout, "{}", report.summary())?;
    }
    Ok(())
}

/// Replays one trace file into a fresh [`Characterizer`]. Returns
/// `(file basename, benchmark name, report)` — the basename (never the
/// full path) so rendered output is location-independent.
fn characterize_one(file: &std::path::Path) -> Result<(String, String, Characterization), String> {
    let shown = file.display();
    let basename = file
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| shown.to_string());
    let reader = TraceReader::open(file).map_err(|e| format!("{shown}: {e}"))?;
    let benchmark = reader.header().name.clone();
    let mut sink = Characterizer::new();
    reader
        .replay(&mut sink)
        .map_err(|e| format!("{shown}: {e}"))?;
    Ok((basename, benchmark, sink.finish()))
}

/// Renders a `u64` for ordered JSON: a number when exactly
/// representable in f64, a decimal string beyond 2^53 (the module
/// asserts on lossy conversions).
fn json_u64(n: u64) -> Json {
    if n <= 1u64 << 53 {
        Json::from(n)
    } else {
        Json::Str(n.to_string())
    }
}

/// Parses `<path> [--json]` — the shared argument shape of `info` and
/// `stats`.
fn path_and_json(args: &[String], cmd: &str) -> Result<(String, bool), String> {
    let mut path: Option<String> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            p if !p.starts_with('-') && path.is_none() => path = Some(p.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    path.map(|p| (p, json))
        .ok_or_else(|| format!("{cmd} needs exactly one path\n{USAGE}"))
}

fn human_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

fn one_path(args: &[String]) -> Result<String, String> {
    match args {
        [path] if !path.starts_with('-') => Ok(path.clone()),
        _ => Err(format!("expected exactly one trace file\n{USAGE}")),
    }
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn parse(s: &str) -> Result<u64, String> {
    let (s, radix) = match s.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u64::from_str_radix(s, radix).map_err(|e| format!("bad number {s}: {e}"))
}
