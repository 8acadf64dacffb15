//! The three workloads and the passes a run times.
//!
//! * `study_cold` — all 21 experiments at full scale over an empty trace
//!   cache: functional execution, trace recording and sidecar publishing
//!   do most of the work.
//! * `study_warm` — the same study over the cache a cold pass left
//!   behind: every stream is opened and served from its sidecar.
//! * `matrix_wide` — a wide predictor matrix over seeded inputs, replayed
//!   from a cache recorded in set-up: predictor and harness lanes do
//!   nearly all the work and nothing is executed.

use std::io;
use std::path::Path;
use std::time::Instant;

use predbranch_bench::runner::outcome_from_json;
use predbranch_bench::{all_experiments, CellSpec, RunContext, RunOutcome, Scale, SuiteEntry};
use predbranch_core::{InsertFilter, Timing};
use predbranch_modern::ModernSpec;
use predbranch_sweep::{Checkpoint, Json, ManifestBuilder};

use crate::check::{artifact_digest, outcome_digest};
use crate::host::cpu_seconds;

/// Worker lanes every pass runs on: the machine the benchmark was
/// defined on has two cores.
pub const JOBS: usize = 2;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The study over an empty trace cache.
    StudyCold,
    /// The study over a cache a cold pass populated in set-up.
    StudyWarm,
    /// The predictor matrix over a cache recorded in set-up.
    MatrixWide,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "study_cold" => Ok(Workload::StudyCold),
            "study_warm" => Ok(Workload::StudyWarm),
            "matrix_wide" => Ok(Workload::MatrixWide),
            other => Err(format!(
                "unknown workload `{other}` (expected study_cold|study_warm|matrix_wide)"
            )),
        }
    }
}

impl Workload {
    /// Every workload the benchmark can drive. `BENCHMARK.json` lists the
    /// study workloads only; see README.md for why `matrix_wide` is not
    /// among them.
    pub const ALL: [Workload; 3] = [
        Workload::StudyCold,
        Workload::StudyWarm,
        Workload::MatrixWide,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyCold => "study_cold",
            Workload::StudyWarm => "study_warm",
            Workload::MatrixWide => "matrix_wide",
        }
    }

    /// Whether the workload runs the study (otherwise the matrix).
    pub fn is_study(self) -> bool {
        self != Workload::MatrixWide
    }
}

/// A two-lane context over the trace cache at `cache`, with the full
/// suite compiled up front so no pass times compilation.
pub fn context(cache: &Path) -> io::Result<RunContext> {
    let ctx = RunContext::new().with_jobs(JOBS).with_trace_cache(cache)?;
    ctx.suite(None);
    Ok(ctx)
}

/// Wall and CPU seconds of a timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Runs `f`, timing it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu = cpu_seconds();
    let started = Instant::now();
    let value = f();
    let wall_s = started.elapsed().as_secs_f64();
    (
        value,
        Timed {
            wall_s,
            cpu_s: cpu_seconds() - cpu,
        },
    )
}

/// One experiment of a study pass.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment id (`t1`, `f3`, ...).
    pub id: &'static str,
    /// Wall seconds the experiment took.
    pub seconds: f64,
    /// Digest of its rendered artifacts.
    pub digest: u64,
}

/// All 21 experiments at full scale, in registry order.
pub fn study_pass(ctx: &RunContext) -> Vec<ExperimentRun> {
    let scale = Scale::full();
    all_experiments()
        .into_iter()
        .map(|exp| {
            let started = Instant::now();
            let artifacts = (exp.run)(ctx, &scale);
            ExperimentRun {
                id: exp.id,
                seconds: started.elapsed().as_secs_f64(),
                digest: artifact_digest(&artifacts),
            }
        })
        .collect()
}

/// Conditional branches summed over every predictor lane of a study
/// pass. A counting pass journals each distinct cell's outcome and
/// manifests every submitted cell, so the sum is exact although the
/// journal restores repeated cells instead of re-running them.
pub fn study_lane_branches(cache: &Path, journal: &Path) -> io::Result<u64> {
    let ctx = context(cache)?
        .with_checkpoint(journal)?
        .with_manifest(ManifestBuilder::new("perfbench count", JOBS));
    study_pass(&ctx);
    let manifest = ctx.manifest().expect("manifest attached").finish(None);
    let journal = Checkpoint::open(journal)?;
    let cells = manifest
        .get("cells")
        .and_then(Json::as_arr)
        .expect("manifest lists its cells");
    let mut total = 0;
    for cell in cells {
        let key = cell.get("key").and_then(Json::as_str).expect("cell key");
        let outcome = journal
            .lookup(key)
            .and_then(outcome_from_json)
            .ok_or_else(|| io::Error::other(format!("cell {key} missing from the journal")))?;
        total += outcome.summary.conditional_branches;
    }
    Ok(total)
}

/// The predictor lanes of `matrix_wide`: four families, each bare, with
/// SFPF, with PGU and with both, plus the two predicate-aware modern
/// shapes.
pub fn matrix_spec_strings() -> Vec<String> {
    let mut specs = Vec::new();
    for base in ["gshare:13/13", "perceptron:7/14", "tage:4/10/64", "mpp:12"] {
        for modifiers in ["", "+sfpf", "+pgu8", "+sfpf+pgu8"] {
            specs.push(format!("{base}{modifiers}"));
        }
    }
    specs.push("ptage:4/10/64".into());
    specs.push("pmpp:12".into());
    specs
}

fn matrix_specs() -> Vec<ModernSpec> {
    matrix_spec_strings()
        .iter()
        .map(|s| s.parse().expect("matrix specs are valid"))
        .collect()
}

/// Evaluation inputs per benchmark in `matrix_wide`.
pub const MATRIX_INPUTS: usize = 6;

/// The input seeds `matrix_wide` derives from the benchmark seed
/// (splitmix64 steps, so nearby seeds give unrelated inputs).
pub fn matrix_seeds(seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..MATRIX_INPUTS)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Every cell of `matrix_wide`: each suite benchmark's predicated binary
/// on each derived input, under each matrix lane.
pub fn matrix_cells(suite: &[SuiteEntry], seed: u64) -> Vec<CellSpec> {
    let specs = matrix_specs();
    let timing = Timing::immediate(predbranch_bench::DEFAULT_LATENCY);
    let mut cells = Vec::new();
    for entry in suite {
        for input in matrix_seeds(seed) {
            for spec in &specs {
                cells.push(CellSpec::seeded(
                    entry,
                    format!("mw/{}/{input:016x}/{spec:?}", entry.compiled.name),
                    input,
                    spec.clone(),
                    timing,
                    InsertFilter::All,
                ));
            }
        }
    }
    cells
}

/// Per-cell outcome digests and the lane-branch total of a matrix pass.
pub fn matrix_summary(outcomes: &[RunOutcome]) -> (Vec<u64>, u64) {
    let digests = outcomes.iter().map(outcome_digest).collect();
    let lane_branches = outcomes
        .iter()
        .map(|o| o.summary.conditional_branches)
        .sum();
    (digests, lane_branches)
}
