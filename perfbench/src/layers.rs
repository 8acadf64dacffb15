//! Per-layer rates, measured from outside by timing calls into each
//! layer's public functions on one workload's own streams.
//!
//! The streams are the trace-cache entries the workload's pass left
//! behind ([`TraceCache::scan`]). Every stream is opened, so the open
//! rate and the stream totals cover the whole workload; the costlier
//! layers run on an evenly spaced sample of streams capped at
//! [`SAMPLE_BRANCHES`] conditional branches. All rates are single-thread
//! host time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use predbranch_bench::{SuiteEntry, DEFAULT_LATENCY};
use predbranch_characterize::Characterizer;
use predbranch_core::{GangHarness, HarnessConfig, InsertFilter, Timing};
use predbranch_modern::{build_modern_stack, ModernSpec};
use predbranch_sim::{
    BranchEvent, Event, EventSink, Executor, Memory, PredWriteEvent, EVENT_BATCH_CAPACITY,
};
use predbranch_trace::{
    publish_segment, trace_tail_checksum, CacheKey, TraceCache, TraceMap, TraceReader, TraceWriter,
};
use predbranch_workloads::{DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED};

/// Instruction budget of every experiment cell (the runner's).
const CELL_BUDGET: u64 = 2 * DEFAULT_MAX_INSTRUCTIONS;

/// Conditional branches the sampled layers run over, per workload.
pub const SAMPLE_BRANCHES: u64 = 400_000;

/// Extra `nt` lanes the marginal-lane measurement adds to one.
const EXTRA_LANES: usize = 4;

/// A sink that only counts, keeping each batch observable so the
/// producer's work cannot be optimized away.
#[derive(Debug, Default)]
struct CountSink(u64);

impl EventSink for CountSink {
    fn branch(&mut self, event: &BranchEvent) {
        black_box(event);
        self.0 += 1;
    }
    fn pred_write(&mut self, event: &PredWriteEvent) {
        black_box(event);
        self.0 += 1;
    }
    fn events(&mut self, events: &[Event]) {
        self.0 += black_box(events).len() as u64;
    }
}

/// Accumulated nanoseconds over accumulated work units.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    nanos: f64,
    units: u64,
}

impl Rate {
    fn add(&mut self, started: Instant, units: u64) {
        self.nanos += started.elapsed().as_nanos() as f64;
        self.units += units;
    }

    fn per_unit(self) -> f64 {
        self.nanos / self.units.max(1) as f64
    }
}

/// What [`measure`] found.
#[derive(Debug, Clone)]
pub struct LayerRates {
    /// Streams in the cache.
    pub streams: u64,
    /// Events over every stream in the cache.
    pub stream_events: u64,
    /// Conditional branches over every stream in the cache.
    pub stream_branches: u64,
    /// Events over the suite's `<bench>-pred` streams, the ones F17 and
    /// F19 characterize.
    pub characterized_events: u64,
    /// Streams the sampled layers ran on.
    pub sampled_streams: u64,
    /// ns per event: functional execution.
    pub exec_ns: f64,
    /// ns per event: v1 trace recording (encode, write, fsync).
    pub record_ns: f64,
    /// ns per event: sidecar publishing (tail checksum, write, fsync).
    pub publish_ns: f64,
    /// ns per event: validated sidecar open.
    pub open_ns: f64,
    /// ns per event: sidecar replay into a sink.
    pub serve_ns: f64,
    /// ns per event: characterization.
    pub characterize_ns: f64,
    /// ns per conditional branch: one `nt` lane.
    pub harness_ns: f64,
    /// ns per conditional branch: each further `nt` lane of a gang.
    pub extra_lane_ns: f64,
    /// ns per conditional branch of one lane of each measured spec,
    /// harness included, keyed by the spec as written.
    pub lane_ns: BTreeMap<String, f64>,
}

impl LayerRates {
    /// A predictor's own cost: its lane's cost minus the `nt` lane's.
    pub fn predictor_ns(&self, spec: &str) -> f64 {
        self.lane_ns[spec] - self.harness_ns
    }
}

/// The program and input a cache label names, when it is one of the
/// suite's plain, predicated or seeded streams and its cache key proves
/// the reconstruction exact.
fn reconstruct<'a>(
    suite: &'a [SuiteEntry],
    label: &str,
    path: &Path,
) -> Option<(&'a predbranch_isa::Program, Memory)> {
    let (name, variant) = label.split_once('-')?;
    let entry = suite.iter().find(|e| e.compiled.name == name)?;
    let (program, memory) = match variant {
        "plain" => (&entry.compiled.plain, entry.bench.input(EVAL_SEED)),
        "pred" => (&entry.compiled.predicated, entry.bench.input(EVAL_SEED)),
        _ => {
            let seed = u64::from_str_radix(variant.strip_prefix("pred-")?, 16).ok()?;
            (&entry.compiled.predicated, entry.bench.input(seed))
        }
    };
    let key = CacheKey::for_run(label, program, &memory, CELL_BUDGET);
    (path.file_name()?.to_str()? == key.file_name()).then_some((program, memory))
}

/// Feeds `events` to a gang of one lane per spec and returns the
/// nanoseconds it took.
fn lane_nanos(specs: &[ModernSpec], events: &[Event]) -> f64 {
    let config = HarnessConfig {
        timing: Timing::immediate(DEFAULT_LATENCY),
        insert: InsertFilter::All,
    };
    let started = Instant::now();
    let mut gang = GangHarness::new();
    for spec in specs {
        gang.push_lane(build_modern_stack(spec), config.clone());
    }
    for chunk in events.chunks(EVENT_BATCH_CAPACITY) {
        gang.events(chunk);
    }
    black_box(gang.into_metrics());
    started.elapsed().as_nanos() as f64
}

/// Measures every layer on the streams cached in `cache_dir`. `scratch`
/// receives the re-recorded traces and sidecars and is emptied per
/// stream. `lane_specs` are the predictor lanes to cost.
pub fn measure(
    cache_dir: &Path,
    suite: &[SuiteEntry],
    lane_specs: &[&str],
    scratch: &Path,
) -> io::Result<LayerRates> {
    let to_io = |e: predbranch_trace::TraceError| io::Error::other(e.to_string());
    let entries = TraceCache::open(cache_dir)?.scan()?;

    let mut open = Rate::default();
    let mut maps: Vec<(PathBuf, String, TraceMap)> = Vec::new();
    for entry in entries {
        let started = Instant::now();
        let map = TraceMap::open_bound(&entry.path).map_err(to_io)?;
        open.add(started, map.header().event_count);
        let label = entry.name.unwrap_or_default();
        maps.push((entry.path, label, map));
    }
    let stream_events: u64 = maps.iter().map(|(_, _, m)| m.header().event_count).sum();
    let stream_branches: u64 = maps
        .iter()
        .map(|(_, _, m)| m.summary().conditional_branches)
        .sum();
    let characterized_events = maps
        .iter()
        .filter(|(_, label, _)| label.ends_with("-pred"))
        .map(|(_, _, m)| m.header().event_count)
        .sum();

    // every stride-th stream, stride chosen so the sample stays near the
    // branch budget whatever the workload's size
    let stride = (stream_branches / SAMPLE_BRANCHES).max(1) as usize;
    let specs: Vec<ModernSpec> = lane_specs
        .iter()
        .map(|s| s.parse().expect("lane specs are valid"))
        .collect();
    let nt: ModernSpec = "nt".parse().expect("nt is a valid spec");
    let (mut exec, mut record, mut publish, mut serve, mut characterize): (
        Rate,
        Rate,
        Rate,
        Rate,
        Rate,
    ) = Default::default();
    let (mut harness, mut extra): (Rate, Rate) = Default::default();
    let mut lanes = vec![Rate::default(); specs.len()];
    let mut buffer = Vec::with_capacity(EVENT_BATCH_CAPACITY);
    let mut sampled_streams = 0;
    for (path, label, map) in maps.iter().step_by(stride) {
        sampled_streams += 1;
        let summary = map.summary();
        let count = map.header().event_count;
        let branches = summary.conditional_branches;

        let started = Instant::now();
        let mut sink = CountSink::default();
        map.replay(&mut sink, &mut buffer).map_err(to_io)?;
        serve.add(started, count);
        let events = map.read_events().map_err(to_io)?;

        if let Some((program, memory)) = reconstruct(suite, label, path) {
            let started = Instant::now();
            let ran = Executor::new(program, memory).run(&mut CountSink::default(), CELL_BUDGET);
            exec.add(started, count);
            if ran != summary {
                return Err(io::Error::other(format!(
                    "{label}: re-execution disagrees with its trace"
                )));
            }
        }

        let header = TraceReader::open(path).map_err(to_io)?.header().clone();
        let copy = scratch.join(path.file_name().expect("cache entries are files"));
        let started = Instant::now();
        let mut writer = TraceWriter::create(&copy, &header)?;
        for event in &events {
            writer.record(event);
        }
        let file = writer
            .finish(&summary)?
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        file.sync_all()?;
        drop(file);
        record.add(started, count);

        let started = Instant::now();
        let tail = trace_tail_checksum(&copy).map_err(to_io)?;
        publish_segment(&copy, header.program_hash, tail, &summary, &events).map_err(to_io)?;
        publish.add(started, count);
        for file in std::fs::read_dir(scratch)? {
            std::fs::remove_file(file?.path())?;
        }

        let started = Instant::now();
        let mut characterizer = Characterizer::new();
        for chunk in events.chunks(EVENT_BATCH_CAPACITY) {
            characterizer.events(chunk);
        }
        black_box(characterizer.finish());
        characterize.add(started, count);

        let one = lane_nanos(std::slice::from_ref(&nt), &events);
        harness.nanos += one;
        harness.units += branches;
        let many = lane_nanos(&vec![nt.clone(); 1 + EXTRA_LANES], &events);
        extra.nanos += (many - one) / EXTRA_LANES as f64;
        extra.units += branches;
        for (rate, spec) in lanes.iter_mut().zip(&specs) {
            rate.nanos += lane_nanos(std::slice::from_ref(spec), &events);
            rate.units += branches;
        }
    }

    Ok(LayerRates {
        streams: maps.len() as u64,
        stream_events,
        stream_branches,
        characterized_events,
        sampled_streams,
        exec_ns: exec.per_unit(),
        record_ns: record.per_unit(),
        publish_ns: publish.per_unit(),
        open_ns: open.per_unit(),
        serve_ns: serve.per_unit(),
        characterize_ns: characterize.per_unit(),
        harness_ns: harness.per_unit(),
        extra_lane_ns: extra.per_unit(),
        lane_ns: lane_specs
            .iter()
            .zip(&lanes)
            .map(|(spec, rate)| (spec.to_string(), rate.per_unit()))
            .collect(),
    })
}
