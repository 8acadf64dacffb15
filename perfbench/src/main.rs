//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <study_cold|study_warm|matrix_wide> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench pin      # print the study digest table (study_digests.txt)
//! ```
//!
//! A run sets up, times passes until `--seconds` have elapsed, checks
//! every pass's output, and prints a machine descriptor line and then
//! one result line: `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics and an
//! attribution table on stderr (`--trace 1`).
//!
//! Every set-up and every timed pass runs in a child process of its own
//! (`perfbench child <role> ...`), so peak memory is the pass's alone and
//! one pass's mapped segments never reach another's figures. Trace
//! caches live in scratch directories that are removed afterwards.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use predbranch_bench::{compiled_suite, RunContext};
use predbranch_perfbench::catalog::{per_layer, END_TO_END, NAMED_PREDICTORS};
use predbranch_perfbench::check::{
    cell_failures, format_pinned, parse_pinned, study_failures, PINNED_STUDY,
};
use predbranch_perfbench::host::{self, dir_bytes, median, Scratch};
use predbranch_perfbench::layers::{self, LayerRates};
use predbranch_perfbench::workload::{
    self, context, matrix_cells, matrix_spec_strings, matrix_summary, study_pass, timed, Workload,
    JOBS,
};
use predbranch_sweep::Json;

/// Set-up repetitions per untraced run; `setup_s` is their median. A
/// run repeats set-up at least `SETUP_REPS` times, and up to
/// `SETUP_MAX_REPS` while the repetitions add up to under
/// `SETUP_SECONDS`, so a set-up of a few milliseconds still gets a
/// steady median.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

const MIB: f64 = 1024.0 * 1024.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("pin") => pin(),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs, each name from `allowed` and given at most once.
fn options(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut opts = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if opts.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(opts)
}

fn required<T: std::str::FromStr>(opts: &BTreeMap<String, String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = opts
        .get(name)
        .ok_or_else(|| format!("--{name} is required"))?;
    value
        .parse()
        .map_err(|e| format!("--{name} `{value}`: {e}"))
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn hex_array(digests: &[u64]) -> Json {
    Json::Arr(
        digests
            .iter()
            .map(|d| Json::from(format!("{d:016x}")))
            .collect(),
    )
}

fn parse_hex_array(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("child output lacks `{key}`"))?
        .iter()
        .map(|d| {
            d.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("bad digest in `{key}`"))
        })
        .collect()
}

fn num(json: &Json, key: &str) -> Result<f64, String> {
    match json.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("child output lacks number `{key}`")),
    }
}

// ---------------------------------------------------------------- child

/// The child roles: `setup`, `timed`, `count` and `traced`. Each prints
/// one JSON line on stdout.
fn child(args: &[String]) -> Result<(), String> {
    let role = args.first().ok_or("child needs a role")?.clone();
    let opts = options(
        &args[1..],
        &["workload", "seed", "cache", "journal", "lane-branches"],
    )?;
    let workload: Workload = required(&opts, "workload")?;
    let seed: u64 = required(&opts, "seed")?;
    let cache: String = required(&opts, "cache")?;
    let cache = Path::new(&cache);
    let out = match role.as_str() {
        "setup" => {
            let (out, t) = timed(|| -> Result<Json, String> {
                let ctx = context(cache).map_err(io_err)?;
                Ok(match workload {
                    Workload::StudyCold => Json::obj(),
                    Workload::StudyWarm => {
                        study_pass(&ctx);
                        Json::obj()
                    }
                    Workload::MatrixWide => {
                        let outcomes = ctx.run_cells(matrix_cells(&ctx.suite(None), seed));
                        Json::obj().field("digests", hex_array(&matrix_summary(&outcomes).0))
                    }
                })
            });
            out?.field("setup_s", t.wall_s)
        }
        "timed" => {
            let ctx = context(cache).map_err(io_err)?;
            timed_pass(&ctx, workload, seed).0
        }
        "count" => {
            let journal: String = required(&opts, "journal")?;
            let total =
                workload::study_lane_branches(cache, Path::new(&journal)).map_err(io_err)?;
            Json::obj().field("lane_branches", total)
        }
        "traced" => {
            let lane_branches: u64 = required(&opts, "lane-branches")?;
            traced(workload, seed, cache, lane_branches)?
        }
        other => return Err(format!("unknown child role `{other}`")),
    };
    println!("{}", out.render());
    Ok(())
}

/// One timed pass of `workload` over `ctx`: its timing, peak memory,
/// cache traffic and output digests. Also returns the matrix pass's
/// conditional branches per lane spec (empty for the study).
fn timed_pass(ctx: &RunContext, workload: Workload, seed: u64) -> (Json, Vec<u64>) {
    let (out, spec_branches, t) = if workload.is_study() {
        let (runs, t) = timed(|| study_pass(ctx));
        let experiments = runs
            .iter()
            .map(|r| {
                Json::obj()
                    .field("id", r.id)
                    .field("s", r.seconds)
                    .field("digest", format!("{:016x}", r.digest))
            })
            .collect::<Vec<_>>();
        (Json::obj().field("experiments", experiments), Vec::new(), t)
    } else {
        let cells = matrix_cells(&ctx.suite(None), seed);
        let (outcomes, t) = timed(|| ctx.run_cells(cells));
        let (digests, lane_branches) = matrix_summary(&outcomes);
        let lanes = matrix_spec_strings().len();
        let mut spec_branches = vec![0; lanes];
        for (i, outcome) in outcomes.iter().enumerate() {
            spec_branches[i % lanes] += outcome.summary.conditional_branches;
        }
        (
            Json::obj()
                .field("digests", hex_array(&digests))
                .field("lane_branches", lane_branches),
            spec_branches,
            t,
        )
    };
    let stats = ctx.stats();
    let out = out
        .field("wall_s", t.wall_s)
        .field("cpu_s", t.cpu_s)
        .field("peak_rss_mb", host::peak_rss_mb())
        .field("replays", stats.replays)
        .field("recordings", stats.recordings);
    (out, spec_branches)
}

/// The traced child: one pass like a timed one, then every layer's rate
/// on the streams the pass used, and the attribution of the pass's CPU
/// time to layers.
fn traced(workload: Workload, seed: u64, cache: &Path, study_lanes: u64) -> Result<Json, String> {
    let ctx = context(cache).map_err(io_err)?;
    let (pass, spec_branches) = timed_pass(&ctx, workload, seed);
    let wall_s = num(&pass, "wall_s")?;
    let cpu_s = num(&pass, "cpu_s")?;
    let replays = num(&pass, "replays")?;
    let recordings = num(&pass, "recordings")?;
    drop(ctx);

    // per-experiment times: this pass's for the study; a cold study pass
    // of its own for the matrix, which runs no experiments
    let experiments = if workload.is_study() {
        pass.clone()
    } else {
        let scratch = Scratch::new().map_err(io_err)?;
        let study = context(scratch.path()).map_err(io_err)?;
        timed_pass(&study, Workload::StudyCold, seed).0
    };

    let (suite, compile) = timed(|| compiled_suite(None));
    let specs = matrix_spec_strings();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let scratch = Scratch::new().map_err(io_err)?;
    let rates = layers::measure(cache, &suite, &spec_refs, scratch.path()).map_err(io_err)?;

    let lane_branches = if workload.is_study() {
        study_lanes
    } else {
        num(&pass, "lane_branches")? as u64
    };
    let sim_events = if workload == Workload::StudyCold {
        rates.stream_events
    } else {
        0
    };
    let rows = attribution(
        workload,
        &rates,
        sim_events,
        replays,
        recordings,
        lane_branches,
        &specs,
        &spec_branches,
    );
    let attributed: f64 = rows.iter().map(|r| r.seconds).sum();

    let mut metrics = Json::obj();
    for run in experiments
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("pass lists no experiments")?
    {
        let id = run
            .get("id")
            .and_then(Json::as_str)
            .ok_or("experiment id")?;
        metrics = metrics.field(&format!("bench.{id}_s"), num(run, "s")?);
    }
    metrics = metrics
        .field("workloads.compile_s", compile.wall_s)
        .field("sim.exec_ns_per_event", rates.exec_ns)
        .field("sim.events", sim_events)
        .field("trace.record_ns_per_event", rates.record_ns)
        .field("trace.publish_ns_per_event", rates.publish_ns)
        .field("trace.open_ns_per_event", rates.open_ns)
        .field("trace.serve_ns_per_event", rates.serve_ns)
        .field("trace.streams", rates.streams)
        .field("trace.replays", replays)
        .field("trace.recordings", recordings)
        .field("core.harness_ns_per_branch", rates.harness_ns)
        .field("core.extra_lane_ns_per_branch", rates.extra_lane_ns)
        .field("core.lane_branches", lane_branches)
        .field("characterize.ns_per_event", rates.characterize_ns)
        .field("sweep.busy_frac", cpu_s / (JOBS as f64 * wall_s))
        .field("attrib.unattributed_s", cpu_s - attributed);
    for (prefix, spec) in NAMED_PREDICTORS {
        metrics = metrics.field(&format!("{prefix}.ns_per_branch"), rates.predictor_ns(spec));
    }

    let mut table = format!(
        "attribution of {cpu_s:.3} CPU s ({wall_s:.3} wall s, {} of {} streams sampled)\n\
         {:<18} {:>12} {:>14} {:>10} {:>7}\n",
        rates.sampled_streams, rates.streams, "layer", "ns/unit", "units", "seconds", "share"
    );
    for row in &rows {
        table += &format!(
            "{:<18} {:>12.2} {:>14} {:>10.3} {:>6.1}%\n",
            row.layer,
            row.rate_ns,
            row.units,
            row.seconds,
            100.0 * row.seconds / cpu_s
        );
    }
    table += &format!(
        "{:<18} {:>12} {:>14} {:>10.3} {:>6.1}%\n",
        "unattributed",
        "",
        "",
        cpu_s - attributed,
        100.0 * (cpu_s - attributed) / cpu_s
    );
    Ok(Json::obj()
        .field("wall_s", wall_s)
        .field("metrics", metrics)
        .field("table", table))
}

/// One line of the attribution table: a layer's rate times its traffic.
struct Row {
    layer: &'static str,
    rate_ns: f64,
    units: u64,
    seconds: f64,
}

/// Splits a pass's CPU time over the layers: each layer's measured rate
/// times the traffic the pass sent it. Where a pass's traffic per layer
/// is not observable from outside, the row states the estimate it uses
/// (see README.md); the remainder is what no row explains.
#[allow(clippy::too_many_arguments)]
fn attribution(
    workload: Workload,
    rates: &LayerRates,
    sim_events: u64,
    replays: f64,
    recordings: f64,
    lane_branches: u64,
    specs: &[String],
    spec_branches: &[u64],
) -> Vec<Row> {
    let streams = rates.streams.max(1) as f64;
    let mean_events = rates.stream_events as f64 / streams;
    let pass_branches = ((replays + recordings) * rates.stream_branches as f64 / streams) as u64;
    let row = |layer, rate_ns: f64, units: u64| Row {
        layer,
        rate_ns,
        units,
        seconds: rate_ns * units as f64 * 1e-9,
    };
    let predictors = if workload.is_study() {
        // the study's lanes are mostly the four headline gshare configs
        let gshare: Vec<f64> = specs
            .iter()
            .filter(|s| s.starts_with("gshare"))
            .map(|s| rates.predictor_ns(s))
            .collect();
        row(
            "predictors",
            gshare.iter().sum::<f64>() / gshare.len() as f64,
            lane_branches,
        )
    } else {
        let seconds: f64 = specs
            .iter()
            .zip(spec_branches)
            .map(|(spec, &b)| rates.predictor_ns(spec) * b as f64 * 1e-9)
            .sum();
        Row {
            layer: "predictors",
            rate_ns: seconds * 1e9 / lane_branches.max(1) as f64,
            units: lane_branches,
            seconds,
        }
    };
    let characterized = if workload.is_study() {
        // F17 and F19 each characterize every predicated stream once
        2 * rates.characterized_events
    } else {
        0
    };
    vec![
        row("sim.exec", rates.exec_ns, sim_events),
        row("trace.record", rates.record_ns, sim_events),
        row("trace.publish", rates.publish_ns, sim_events),
        row("trace.open", rates.open_ns, rates.stream_events),
        row(
            "trace.serve",
            rates.serve_ns,
            (replays * mean_events) as u64,
        ),
        row("core.harness", rates.harness_ns, pass_branches),
        row(
            "core.extra_lanes",
            rates.extra_lane_ns,
            lane_branches.saturating_sub(pass_branches),
        ),
        predictors,
        row("characterize", rates.characterize_ns, characterized),
    ]
}

// ---------------------------------------------------------------- pin

/// Prints the digest table of a cold and a warm study pass, refusing if
/// the two disagree.
fn pin() -> Result<(), String> {
    let scratch = Scratch::new().map_err(io_err)?;
    let ctx = context(scratch.path()).map_err(io_err)?;
    let digests = |ctx: &RunContext| -> Vec<(String, u64)> {
        study_pass(ctx)
            .into_iter()
            .map(|r| (r.id.to_string(), r.digest))
            .collect()
    };
    let cold = digests(&ctx);
    let warm = digests(&ctx);
    if cold != warm {
        return Err("cold and warm study passes rendered different artifacts".into());
    }
    print!("{}", format_pinned(&cold));
    Ok(())
}

// ---------------------------------------------------------------- run

/// Spawns `perfbench child <role>` and returns its output line.
fn spawn(
    role: &str,
    workload: Workload,
    seed: u64,
    cache: &Path,
    extra: &[String],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(io_err)?;
    let output = Command::new(exe)
        .arg("child")
        .arg(role)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .arg("--cache")
        .arg(cache)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(io_err)?;
    if !output.status.success() {
        return Err(format!("child {role} failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child {role} output: {e}"))
}

/// Operations attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// Figures of the passes that checked out.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    cache_mb: Vec<f64>,
    lane_branches: Vec<f64>,
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = options(args, &["workload", "seed", "seconds", "trace"])?;
    let workload: Workload = required(&opts, "workload")?;
    let seed: u64 = required(&opts, "seed")?;
    let seconds: u64 = required(&opts, "seconds")?;
    let trace = match opts.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    println!(
        "{}",
        Json::obj()
            .field("machine", host::machine(workload.name(), seed))
            .render()
    );
    let pinned = parse_pinned(PINNED_STUDY);
    let mut tally = Tally::default();
    // Caches are deleted only when the run ends: deleting hundreds of MB
    // can stall the disk for seconds (discard on ext4, for one), and a
    // stall inside a timed pass would read as the program's cost.
    let mut used: Vec<Scratch> = Vec::new();

    // set-up: compile, and populate the cache the timed passes read
    let mut setup_s = Vec::new();
    let mut cache: Option<Scratch> = None;
    let mut reference: Option<Vec<u64>> = None;
    let more_setup = |times: &[f64]| match times.len() {
        0 => true,
        _ if trace => false,
        n if n < SETUP_REPS => true,
        n => n < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_SECONDS,
    };
    while more_setup(&setup_s) {
        let dir = Scratch::new().map_err(io_err)?;
        let out = spawn("setup", workload, seed, dir.path(), &[])?;
        setup_s.push(num(&out, "setup_s")?);
        if workload == Workload::MatrixWide {
            let digests = parse_hex_array(&out, "digests")?;
            match &reference {
                None => reference = Some(digests),
                Some(first) => {
                    // set-up passes must agree with each other too
                    tally.attempted += first.len();
                    tally.failed += cell_failures(first, &digests);
                }
            }
        }
        used.extend(cache.replace(dir));
    }
    let cache = cache.expect("at least one set-up");
    let reference = reference.unwrap_or_default();
    // a cold pass gets an empty cache of its own; the others share set-up's
    let fresh = || -> Result<Option<Scratch>, String> {
        (workload == Workload::StudyCold)
            .then(Scratch::new)
            .transpose()
            .map_err(io_err)
    };

    let mut samples = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        let empty = fresh()?;
        let dir = empty.as_ref().map_or(cache.path(), Scratch::path);
        let ops = if workload.is_study() {
            pinned.len()
        } else {
            reference.len()
        };
        tally.attempted += ops;
        let checked = spawn("timed", workload, seed, dir, &[]).and_then(|out| {
            let failures = if workload.is_study() {
                let mut got = Vec::new();
                for run in out.get("experiments").and_then(Json::as_arr).unwrap_or(&[]) {
                    let id = run.get("id").and_then(Json::as_str).unwrap_or("");
                    let digest = run.get("digest").and_then(Json::as_str).unwrap_or("");
                    got.push((id.to_string(), u64::from_str_radix(digest, 16).unwrap_or(0)));
                }
                study_failures(&pinned, &got)
            } else {
                cell_failures(&reference, &parse_hex_array(&out, "digests")?)
            };
            // the warm workloads must not execute anything
            let executed = workload != Workload::StudyCold && num(&out, "recordings")? != 0.0;
            Ok((if executed { ops } else { failures }, out))
        });
        match checked {
            Ok((0, out)) => {
                samples.wall_s.push(num(&out, "wall_s")?);
                samples.cpu_s.push(num(&out, "cpu_s")?);
                samples.peak_rss_mb.push(num(&out, "peak_rss_mb")?);
                samples
                    .cache_mb
                    .push(dir_bytes(dir).map_err(io_err)? as f64 / MIB);
                if !workload.is_study() {
                    samples.lane_branches.push(num(&out, "lane_branches")?);
                }
            }
            Ok((failures, _)) => {
                eprintln!("perfbench: {failures} of {ops} outputs differ from the reference");
                tally.failed += failures;
            }
            Err(e) => {
                eprintln!("perfbench: timed pass failed: {e}");
                tally.failed += ops;
            }
        }
        used.extend(empty);
        if Instant::now() >= deadline {
            break;
        }
    }
    if samples.wall_s.is_empty() {
        return Err("no timed pass succeeded".into());
    }

    // The study's lanes, counted by a journaling pass after the timed
    // ones, over a cache they filled, so it writes nothing.
    let study_lanes = if workload.is_study() {
        let journal = Scratch::new().map_err(io_err)?;
        let dir = match workload {
            Workload::StudyCold => used.last().expect("a cold pass ran").path(),
            _ => cache.path(),
        };
        let path = journal.path().join("count.ckpt");
        let out = spawn(
            "count",
            workload,
            seed,
            dir,
            &["--journal".into(), path.display().to_string()],
        )?;
        let lanes = num(&out, "lane_branches")?;
        samples.lane_branches = vec![lanes; samples.wall_s.len()];
        lanes
    } else {
        0.0
    };
    let lane_branches_per_s: Vec<f64> = samples
        .lane_branches
        .iter()
        .zip(&samples.wall_s)
        .map(|(lanes, wall)| lanes / wall)
        .collect();
    eprintln!(
        "perfbench: {} timed passes, wall_s {:?}",
        samples.wall_s.len(),
        samples.wall_s
    );

    let metric = |value: f64, unit: &str| Json::obj().field("value", value).field("unit", unit);
    let metrics = if trace {
        let empty = fresh()?;
        let dir = empty.as_ref().map_or(cache.path(), Scratch::path);
        let out = spawn(
            "traced",
            workload,
            seed,
            dir,
            &["--lane-branches".into(), (study_lanes as u64).to_string()],
        )?;
        eprint!("{}", out.get("table").and_then(Json::as_str).unwrap_or(""));
        let overhead = num(&out, "wall_s")? / median(&samples.wall_s) - 1.0;
        eprintln!(
            "traced pass overhead vs untraced median wall_s: {:+.1}%",
            100.0 * overhead
        );
        let layers = out
            .get("metrics")
            .ok_or("traced child printed no metrics")?;
        let mut metrics = Json::obj();
        for (name, unit) in per_layer() {
            let value = if name == "attrib.trace_overhead_frac" {
                overhead
            } else {
                num(layers, &name)?
            };
            metrics = metrics.field(&name, metric(value, unit));
        }
        metrics
    } else {
        // Timings report the fastest pass. On a shared host a neighbour's
        // load only ever slows a pass, and it moves even the user CPU time
        // of identical passes by half, so the median of a run tracks the
        // neighbours while the fastest pass tracks the program. Sizes and
        // set-up report the median.
        let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
        // in END_TO_END order
        let values = [
            fastest(&samples.wall_s),
            fastest(&samples.cpu_s),
            lane_branches_per_s.iter().copied().fold(0.0, f64::max),
            median(&samples.peak_rss_mb),
            median(&samples.cache_mb),
            median(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .fold(Json::obj(), |metrics, ((name, unit), value)| {
                metrics.field(name, metric(value, unit))
            })
    };
    println!(
        "{}",
        Json::obj()
            .field("correct", tally.failed == 0)
            .field("attempted", tally.attempted)
            .field("failed", tally.failed)
            .field("metrics", metrics)
            .render()
    );
    Ok(())
}
