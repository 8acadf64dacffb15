//! Shared run machinery for the experiments.
//!
//! The central type is [`RunContext`]: an explicit context threaded
//! through every experiment module that holds the sweep's lane count,
//! the optional on-disk trace cache, the optional checkpoint journal,
//! and the optional run manifest.
//!
//! Experiments decompose their grids into [`CellSpec`]s — one
//! (stream, predictor spec, machine options) point each, where a
//! [`Stream`] is a binary and its input, digested once and shared by
//! every cell over it — and call [`RunContext::run_cells`], which
//! restores every cell whose key the context has already produced,
//! groups the rest that share an event stream and a resolve latency
//! into gang units, runs each unit's one pass on a lane of [`par_map`],
//! and returns every cell's outcome **in submission order**.
//! Because every cell is a pure function of its spec, aggregation over
//! that vector is byte-identical to the sequential loop it replaced, at
//! any `--jobs N`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use predbranch_core::{GangHarness, HarnessConfig, InsertFilter, PredictionMetrics, Timing};
use predbranch_isa::Program;
use predbranch_modern::{build_modern_stack, ModernSpec};
use predbranch_sim::{Event, EventSink, Executor, Memory, RunSummary, EVENT_BATCH_CAPACITY};
use predbranch_sweep::{par_map, CellRecord, CellSource, Checkpoint, Json, ManifestBuilder};
use predbranch_trace::{memory_fingerprint, program_hash, CacheKey, TraceCache};
use predbranch_workloads::{
    compile_benchmark, suite, Benchmark, CompileOptions, CompiledBenchmark,
    DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED,
};

/// The machine's predicate resolve latency used throughout the study
/// (compare execute → first fetch that can observe the result) — the
/// single source of truth lives in `predbranch_sim`.
pub const DEFAULT_LATENCY: u64 = predbranch_sim::DEFAULT_RESOLVE_LATENCY;

/// The realistic PGU insertion delay: predicate bits become visible to
/// the history register one resolve latency after the defining compare.
pub const PGU_DELAY: u64 = DEFAULT_LATENCY;

/// Instruction budget for every experiment cell.
const CELL_BUDGET: u64 = 2 * DEFAULT_MAX_INSTRUCTIONS;

/// What a stream executes: a binary and the input image it starts
/// from. A [`CellSpec`] dereferences to its stream's source, so code
/// written against the cell's former `program` and `memory` fields
/// (`perfbench`'s self-test reads `cell.memory`) still reads them,
/// without a copy per cell.
#[derive(Debug)]
pub struct StreamSource {
    /// The compiled binary.
    pub program: Program,
    /// The input image.
    pub memory: Memory,
}

/// One (binary, input) execution stream, keyed once: the program, its
/// input image, and their [`program_hash`] / [`memory_fingerprint`]
/// digests, computed in [`Stream::new`] and immutable after. Cells
/// share a stream through an `Arc`, and the digests feed gang
/// grouping, the trace-cache key and the cell key without hashing the
/// image again.
#[derive(Debug)]
pub struct Stream {
    source: StreamSource,
    program_hash: u64,
    memory_fingerprint: u64,
}

impl Stream {
    /// Digests `program` and `memory` into a stream.
    pub fn new(program: Program, memory: Memory) -> Self {
        Stream {
            program_hash: program_hash(&program),
            memory_fingerprint: memory_fingerprint(&memory),
            source: StreamSource { program, memory },
        }
    }

    /// The binary the stream executes.
    pub fn program(&self) -> &Program {
        &self.source.program
    }

    /// The input image the stream starts from.
    pub fn memory(&self) -> &Memory {
        &self.source.memory
    }

    /// [`program_hash`] of [`Stream::program`].
    pub fn program_hash(&self) -> u64 {
        self.program_hash
    }

    /// [`memory_fingerprint`] of [`Stream::memory`].
    pub fn memory_fingerprint(&self) -> u64 {
        self.memory_fingerprint
    }
}

/// Which of a [`SuiteEntry`]'s two binaries a stream runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Binary {
    /// The plain (branchy) binary.
    Plain,
    /// The if-converted, predicated binary.
    Predicated,
}

/// A benchmark plus its two compiled binaries, and the streams cells
/// have drawn from them.
#[derive(Debug)]
pub struct SuiteEntry {
    /// The benchmark descriptor (inputs, name).
    pub bench: Benchmark,
    /// Plain + predicated binaries and region metadata.
    pub compiled: CompiledBenchmark,
    /// One stream per (binary, seed), built on first request.
    streams: Mutex<Vec<(Binary, u64, Arc<Stream>)>>,
}

impl SuiteEntry {
    /// An entry with no streams built yet.
    pub fn new(bench: Benchmark, compiled: CompiledBenchmark) -> Self {
        SuiteEntry {
            bench,
            compiled,
            streams: Mutex::new(Vec::new()),
        }
    }

    /// `binary` over the input drawn with `seed`, generated and
    /// digested on the first request and shared by every later one.
    pub(crate) fn stream(&self, binary: Binary, seed: u64) -> Arc<Stream> {
        let mut streams = self
            .streams
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, _, stream)) = streams.iter().find(|(b, s, _)| (*b, *s) == (binary, seed)) {
            return Arc::clone(stream);
        }
        let program = match binary {
            Binary::Plain => &self.compiled.plain,
            Binary::Predicated => &self.compiled.predicated,
        };
        let stream = Arc::new(Stream::new(program.clone(), self.bench.input(seed)));
        streams.push((binary, seed, Arc::clone(&stream)));
        stream
    }
}

/// Compiles the whole suite (optionally only the first `limit`
/// benchmarks, for quick modes). Streams are built lazily, when cells
/// first ask for them.
pub fn compiled_suite(limit: Option<usize>) -> Vec<SuiteEntry> {
    let opts = CompileOptions::default();
    suite()
        .into_iter()
        .take(limit.unwrap_or(usize::MAX))
        .map(|bench| {
            let compiled = compile_benchmark(&bench, &opts);
            SuiteEntry::new(bench, compiled)
        })
        .collect()
}

/// The result of one predictor × binary run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Prediction metrics by branch class.
    pub metrics: PredictionMetrics,
    /// Execution summary (instructions, branch counts, halted).
    pub summary: RunSummary,
}

impl RunOutcome {
    /// Overall conditional-branch misprediction rate, percent.
    pub fn misp_percent(&self) -> f64 {
        self.metrics.all.misp_rate().percent()
    }

    /// Region-branch misprediction rate, percent.
    pub fn region_misp_percent(&self) -> f64 {
        self.metrics.region.misp_rate().percent()
    }

    /// Mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        self.metrics.mpki(self.summary.instructions)
    }

    /// Dynamic taken branches of any kind (for taken-bubble accounting).
    pub fn taken_branches(&self) -> u64 {
        let unconditional = self.summary.branches - self.summary.conditional_branches;
        self.summary.taken_conditional + unconditional
    }
}

/// One point of an experiment grid: a stream (binary and input), a
/// predictor spec, and the machine options — everything that determines
/// a [`RunOutcome`]. Every cell over one (binary, input) shares its
/// entry's [`Stream`] instead of owning a copy.
///
/// The spec is a [`ModernSpec`], the one spec type for paper-era and
/// modern predictors alike. Constructors take a spec or a reference to
/// one (`impl Into<ModernSpec>`), so experiments pass `&spec` from their
/// grids. The spec's `Debug` rendering enters [`CellSpec::key`].
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Manifest/checkpoint display label, e.g. `f3/gzip/+PGU`.
    pub label: String,
    /// Trace-cache file label — shared by every cell over the same
    /// (binary, input) so the cache stores one trace per execution, not
    /// one per predictor config. Typically `"<bench>-<variant>"`.
    pub cache_label: String,
    /// The binary and input image to run, with their digests.
    pub stream: Arc<Stream>,
    /// Predictor configuration.
    pub spec: ModernSpec,
    /// Update-timing knobs (resolve and retire latencies).
    pub timing: Timing,
    /// Which predicate definitions reach the predictor.
    pub insert: InsertFilter,
}

impl CellSpec {
    /// A cell over a suite entry's *predicated* binary and its
    /// evaluation input.
    pub fn predicated(
        entry: &SuiteEntry,
        label: impl Into<String>,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-pred", entry.compiled.name),
            stream: entry.stream(Binary::Predicated, EVAL_SEED),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// A cell over a suite entry's *plain* binary and its evaluation
    /// input.
    pub fn plain(
        entry: &SuiteEntry,
        label: impl Into<String>,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-plain", entry.compiled.name),
            stream: entry.stream(Binary::Plain, EVAL_SEED),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// A cell over the predicated binary with a non-default input seed
    /// (seed-stability experiments).
    pub fn seeded(
        entry: &SuiteEntry,
        label: impl Into<String>,
        seed: u64,
        spec: impl Into<ModernSpec>,
        timing: Timing,
        insert: InsertFilter,
    ) -> Self {
        CellSpec {
            label: label.into(),
            cache_label: format!("{}-pred-{seed:x}", entry.compiled.name),
            stream: entry.stream(Binary::Predicated, seed),
            spec: spec.into(),
            timing,
            insert,
        }
    }

    /// The cell's stable, content-addressed checkpoint key: a digest of
    /// the program encoding, input image, budget, machine options, and
    /// predictor spec. Equal keys ⇒ equal outcomes, so a resumed sweep
    /// may trust a checkpointed result with this key no matter which
    /// experiment, process, or `--jobs` level produced it. The program
    /// and input enter through their stream's stored digests.
    pub fn key(&self) -> String {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(&self.stream.program_hash().to_le_bytes());
        mix(&self.stream.memory_fingerprint().to_le_bytes());
        mix(&CELL_BUDGET.to_le_bytes());
        mix(&self.timing.resolve_latency.to_le_bytes());
        mix(&self.timing.retire_latency.to_le_bytes());
        mix(format!("{:?}", self.spec).as_bytes());
        match &self.insert {
            InsertFilter::All => mix(b"insert:all"),
            InsertFilter::None => mix(b"insert:none"),
            InsertFilter::Pcs(pcs) => {
                mix(b"insert:pcs");
                let mut sorted: Vec<u32> = pcs.iter().copied().collect();
                sorted.sort_unstable();
                for pc in sorted {
                    mix(&pc.to_le_bytes());
                }
            }
        }
        format!("v2-{digest:016x}")
    }

    /// The harness configuration this cell's lane runs under.
    fn harness_config(&self) -> HarnessConfig {
        HarnessConfig {
            timing: self.timing,
            insert: self.insert.clone(),
        }
    }
}

impl std::ops::Deref for CellSpec {
    type Target = StreamSource;

    fn deref(&self) -> &StreamSource {
        &self.stream.source
    }
}

/// Sweep-level counters (all monotone, all thread-safe).
#[derive(Debug, Default)]
struct RunCounters {
    /// Trace-cache replays.
    replays: AtomicU64,
    /// Trace-cache recordings (cold executions through the cache).
    recordings: AtomicU64,
    /// Cells restored from the checkpoint journal without running.
    checkpoint_hits: AtomicU64,
    /// Cells restored from an earlier cell with the same key.
    repeats: AtomicU64,
    /// Live execution passes (no cache attached).
    live_runs: AtomicU64,
}

/// A snapshot of [`RunContext`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Trace-cache replays.
    pub replays: u64,
    /// Trace-cache recordings.
    pub recordings: u64,
    /// Cells restored from the checkpoint journal.
    pub checkpoint_hits: u64,
    /// Cells restored from an earlier cell with the same key, run by
    /// this context in an earlier call or earlier in the same one.
    pub repeats: u64,
    /// Live execution passes (no cache attached).
    pub live_runs: u64,
}

/// Compiled-suite memo: one shared suite per `limit` value.
type SuiteMemo = Vec<(Option<usize>, Arc<Vec<SuiteEntry>>)>;

/// A cell waiting for its gang unit: its submission index and its key.
struct PendingCell {
    index: usize,
    cell: CellSpec,
    key: String,
}

/// The sweep's execution context: lane count, trace cache, checkpoint
/// journal, manifest recorder, and the outcomes its cells ran to,
/// threaded explicitly through every experiment. Lanes borrow the one
/// context, so they share its counters, suite memo, journal and
/// manifest.
#[derive(Debug, Default)]
pub struct RunContext {
    jobs: usize,
    cache: Option<TraceCache>,
    checkpoint: Option<Checkpoint>,
    manifest: Option<ManifestBuilder>,
    counters: RunCounters,
    suites: Mutex<SuiteMemo>,
    /// Every outcome a cell of this context ran to, by
    /// [`CellSpec::key`]. Only the thread calling
    /// [`RunContext::run_cells`] touches it, before and after the
    /// lanes run.
    outcomes: Mutex<HashMap<String, RunOutcome>>,
}

impl RunContext {
    /// A sequential context with no cache, checkpoint, or manifest —
    /// the exact behavior of the pre-sweep harness.
    pub fn new() -> Self {
        RunContext::default()
    }

    /// Executes cells on `jobs` concurrent lanes, the calling thread
    /// being one of them (0 and 1 = sequential, spawning no threads).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Routes every cell through an on-disk trace cache rooted at `dir`
    /// (creating it if needed): each distinct (binary, input, budget)
    /// is executed through the functional simulator at most once per
    /// cache lifetime, and every further predictor run replays the
    /// recorded event stream. Keys are content-addressed
    /// ([`CacheKey::for_run`]), so results are numerically identical to
    /// live simulation.
    pub fn with_trace_cache(mut self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        self.cache = Some(TraceCache::open(dir.as_ref())?);
        Ok(self)
    }

    /// Journals every completed cell to `path` and, on reopen, restores
    /// completed cells instead of re-running them — interrupted sweeps
    /// resume from where they died.
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.checkpoint = Some(Checkpoint::open(path.as_ref().to_path_buf())?);
        Ok(self)
    }

    /// Records every cell (label, key, source, wall-clock) into
    /// `manifest` for the final run record.
    pub fn with_manifest(mut self, manifest: ManifestBuilder) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// The configured parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs.max(1)
    }

    /// The manifest recorder, when one is attached.
    pub fn manifest(&self) -> Option<&ManifestBuilder> {
        self.manifest.as_ref()
    }

    /// How many completed cells the checkpoint journal held when it was
    /// opened (`None` without a checkpoint).
    pub fn checkpoint_loaded(&self) -> Option<usize> {
        self.checkpoint.as_ref().map(|c| c.loaded())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RunStats {
        RunStats {
            replays: self.counters.replays.load(Ordering::Relaxed),
            recordings: self.counters.recordings.load(Ordering::Relaxed),
            checkpoint_hits: self.counters.checkpoint_hits.load(Ordering::Relaxed),
            repeats: self.counters.repeats.load(Ordering::Relaxed),
            live_runs: self.counters.live_runs.load(Ordering::Relaxed),
        }
    }

    /// The compiled suite, memoized per `limit` so a multi-experiment
    /// sweep compiles each benchmark once instead of once per
    /// experiment.
    pub fn suite(&self, limit: Option<usize>) -> Arc<Vec<SuiteEntry>> {
        let mut suites = self
            .suites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, entries)) = suites.iter().find(|(l, _)| *l == limit) {
            return Arc::clone(entries);
        }
        let entries = Arc::new(compiled_suite(limit));
        suites.push((limit, Arc::clone(&entries)));
        entries
    }

    /// Runs a grid of cells on [`RunContext::jobs`] lanes and returns
    /// outcomes **in submission order** at any lane count.
    ///
    /// Each distinct cell runs at most once per context: equal
    /// [`CellSpec::key`]s give equal outcomes. A cell is restored
    /// instead of run from the first of these that has its key:
    ///
    /// 1. the outcomes this context's earlier cells ran to;
    /// 2. the checkpoint journal;
    /// 3. an earlier cell of this call, whose outcome it copies once
    ///    that cell has run.
    ///
    /// The rest are grouped by (stream, resolve latency) into gang
    /// units — a lone cell is a unit of one — and each unit replays its
    /// stream **once**, feeding every member cell as an independent
    /// [`GangHarness`] lane with its own retire latency; the scheduling
    /// unit is the gang unit, not the cell. Per-cell outcomes, cache
    /// keys, checkpoint records, and manifest records do not depend on
    /// the grouping; the replay/record/live counters count passes, one
    /// per unit, so a stream whose every cell is restored costs none.
    ///
    /// # Panics
    ///
    /// Panics if a program fails to halt within the suite instruction
    /// budget (suite programs always halt; a hang is a harness bug).
    pub fn run_cells(&self, cells: Vec<CellSpec>) -> Vec<RunOutcome> {
        let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];
        let restored = |counter: &AtomicU64, cell: &CellSpec, key: &str, source| {
            counter.fetch_add(1, Ordering::Relaxed);
            self.record_manifest(cell, key, 0, source);
        };

        // Restores are per cell, so a unit runs only the lanes of cells
        // that no earlier cell produced.
        let mut pending: Vec<PendingCell> = Vec::new();
        let mut repeats: Vec<PendingCell> = Vec::new();
        let mut to_run: HashSet<String> = HashSet::new();
        {
            let ran = self
                .outcomes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (index, cell) in cells.into_iter().enumerate() {
                let key = cell.key();
                if let Some(&outcome) = ran.get(&key) {
                    restored(&self.counters.repeats, &cell, &key, CellSource::Repeat);
                    slots[index] = Some(outcome);
                } else if let Some(outcome) = self
                    .checkpoint
                    .as_ref()
                    .and_then(|checkpoint| checkpoint.lookup(&key))
                    .and_then(outcome_from_json)
                {
                    restored(
                        &self.counters.checkpoint_hits,
                        &cell,
                        &key,
                        CellSource::Checkpoint,
                    );
                    slots[index] = Some(outcome);
                } else if to_run.contains(&key) {
                    repeats.push(PendingCell { index, cell, key });
                } else {
                    to_run.insert(key.clone());
                    pending.push(PendingCell { index, cell, key });
                }
            }
        }

        // Group by (stream identity, resolve latency) in
        // first-appearance order. The content digests — not just the
        // cache label — define the stream, so two cells gang only if
        // they replay byte-identical events; the resolve latency joins
        // the key because a unit's lanes share one predicate
        // scoreboard. Each lane keeps its own retire latency.
        let mut units: Vec<Vec<PendingCell>> = Vec::new();
        let mut by_stream: HashMap<(String, u64, u64, u64), usize> = HashMap::new();
        for pending in pending {
            let cell = &pending.cell;
            let stream = (
                cell.cache_label.clone(),
                cell.stream.program_hash(),
                cell.stream.memory_fingerprint(),
                cell.timing.resolve_latency,
            );
            match by_stream.entry(stream) {
                Entry::Occupied(slot) => units[*slot.get()].push(pending),
                Entry::Vacant(slot) => {
                    slot.insert(units.len());
                    units.push(vec![pending]);
                }
            }
        }

        let unit_outcomes = par_map(self.jobs(), units, |unit| self.run_gang_unit(unit));
        let mut ran = self
            .outcomes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (index, key, outcome) in unit_outcomes.into_iter().flatten() {
            slots[index] = Some(outcome);
            ran.insert(key, outcome);
        }
        for PendingCell { index, cell, key } in repeats {
            restored(&self.counters.repeats, &cell, &key, CellSource::Repeat);
            slots[index] = Some(ran[&key]);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every submitted cell resolves to an outcome"))
            .collect()
    }

    /// Runs one gang unit — cells sharing a (stream, resolve latency) —
    /// with a single replay/execution pass that drives one
    /// [`build_modern_stack`] lane per member cell, then journals and
    /// records each member under its own per-cell key. Outcomes are
    /// returned in unit order, tagged with their submission index and
    /// key.
    fn run_gang_unit(&self, unit: Vec<PendingCell>) -> Vec<(usize, String, RunOutcome)> {
        let started = Instant::now();
        let mut gang = GangHarness::new();
        for PendingCell { cell, .. } in &unit {
            gang.push_lane(build_modern_stack(&cell.spec), cell.harness_config());
        }
        let lead = &unit[0].cell;
        let (summary, source) = self.deliver(&lead.cache_label, &lead.stream, &mut gang);
        let wall_ms = started.elapsed().as_millis() as u64;
        unit.into_iter()
            .zip(gang.into_metrics())
            .map(|(PendingCell { index, cell, key }, metrics)| {
                let outcome = RunOutcome { metrics, summary };
                if let Some(checkpoint) = &self.checkpoint {
                    if let Err(e) = checkpoint.record(&key, wall_ms, &outcome_to_json(&outcome)) {
                        eprintln!(
                            "warning: checkpoint append failed for {} ({e}); cell will re-run on resume",
                            cell.label
                        );
                    }
                }
                self.record_manifest(&cell, &key, wall_ms, source);
                (index, key, outcome)
            })
            .collect()
    }

    /// Maps `f` over `items` on [`RunContext::jobs`] lanes, results in
    /// item order. For experiment work that is not a predictor cell —
    /// custom sinks, recompilation sweeps — which wants the same
    /// determinism-under-parallelism contract but no caching or
    /// checkpointing.
    pub fn map_batch<I: Send, T: Send>(
        &self,
        items: impl IntoIterator<Item = I>,
        f: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        par_map(self.jobs(), items, f)
    }

    /// Streams one execution's decoded event stream into an arbitrary
    /// [`EventSink`] at the standard cell budget — through the trace
    /// cache when one is attached (recording on first touch, replaying
    /// after), live otherwise. Events arrive in
    /// [`EVENT_BATCH_CAPACITY`]-sized batches on every path (record,
    /// replay, live), so custom analyses (characterization, attribution,
    /// F8's fetch timeline) see the identical calls a predictor cell
    /// would, from at most one decode.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to halt within the suite instruction
    /// budget, or on trace-cache I/O failure.
    pub fn stream_events<S: EventSink>(
        &self,
        cache_label: &str,
        stream: &Stream,
        sink: &mut S,
    ) -> RunSummary {
        self.deliver(cache_label, stream, sink).0
    }

    /// The stream-delivery primitive behind both [`RunContext::run_cells`]
    /// and [`RunContext::stream_events`]: one decode/execution pass over
    /// `stream` at the cell budget, through the trace cache when
    /// attached (recording on first touch) and the live batched
    /// executor otherwise. Exactly one pass counter — replays,
    /// recordings, or live_runs — moves per call, so the counters
    /// report *passes*, which a gang unit amortizes across its lanes.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to halt within the budget, or on
    /// trace-cache I/O failure.
    fn deliver<S: EventSink>(
        &self,
        cache_label: &str,
        stream: &Stream,
        sink: &mut S,
    ) -> (RunSummary, CellSource) {
        let (program, memory) = (stream.program(), stream.memory());
        let (summary, source) = match &self.cache {
            Some(cache) => {
                let key = CacheKey::from_digests(
                    cache_label,
                    stream.program_hash(),
                    stream.memory_fingerprint(),
                    CELL_BUDGET,
                );
                let (summary, hit) = cache
                    .replay_or_record(&key, program, memory.clone(), CELL_BUDGET, sink)
                    .expect("trace cache I/O failed");
                if hit {
                    self.counters.replays.fetch_add(1, Ordering::Relaxed);
                    (summary, CellSource::Replayed)
                } else {
                    self.counters.recordings.fetch_add(1, Ordering::Relaxed);
                    (summary, CellSource::Recorded)
                }
            }
            None => {
                self.counters.live_runs.fetch_add(1, Ordering::Relaxed);
                let mut buffer: Vec<Event> = Vec::with_capacity(EVENT_BATCH_CAPACITY);
                let summary = Executor::new(program, memory.clone()).run_batched(
                    sink,
                    CELL_BUDGET,
                    &mut buffer,
                );
                (summary, CellSource::Live)
            }
        };
        assert!(summary.halted, "experiment program did not halt");
        (summary, source)
    }

    fn record_manifest(&self, cell: &CellSpec, key: &str, wall_ms: u64, source: CellSource) {
        if let Some(manifest) = &self.manifest {
            manifest.record_cell(CellRecord {
                key: key.to_string(),
                label: cell.label.clone(),
                wall_ms,
                source,
            });
        }
    }
}

fn counts_json(counts: &predbranch_core::ClassCounts) -> Json {
    Json::Arr(vec![
        Json::from(counts.branches.get()),
        Json::from(counts.mispredictions.get()),
    ])
}

fn counts_from_json(json: &Json) -> Option<predbranch_core::ClassCounts> {
    let items = json.as_arr()?;
    match items {
        [branches, mispredictions] => Some(predbranch_core::ClassCounts {
            branches: predbranch_stats::Counter::with_value(branches.as_u64()?),
            mispredictions: predbranch_stats::Counter::with_value(mispredictions.as_u64()?),
        }),
        _ => None,
    }
}

/// Serializes an outcome for the checkpoint journal. All counts are far
/// below 2^53, so the JSON number representation is exact.
pub fn outcome_to_json(outcome: &RunOutcome) -> Json {
    let m = &outcome.metrics;
    let s = &outcome.summary;
    Json::obj()
        .field(
            "metrics",
            Json::obj()
                .field("all", counts_json(&m.all))
                .field("region", counts_json(&m.region))
                .field("non_region", counts_json(&m.non_region))
                .field("kf", m.known_false_guard.get())
                .field("kfm", m.known_false_mispredicted.get())
                .field("pw", m.pred_writes.get()),
        )
        .field(
            "summary",
            Json::obj()
                .field("instructions", s.instructions)
                .field("branches", s.branches)
                .field("conditional", s.conditional_branches)
                .field("region", s.region_branches)
                .field("taken_cond", s.taken_conditional)
                .field("pred_writes", s.pred_writes)
                .field("halted", s.halted),
        )
}

/// Restores an outcome from its journal form; `None` on any shape
/// mismatch (the cell then simply re-runs).
pub fn outcome_from_json(json: &Json) -> Option<RunOutcome> {
    let m = json.get("metrics")?;
    let s = json.get("summary")?;
    let counter = |j: &Json, key: &str| -> Option<predbranch_stats::Counter> {
        Some(predbranch_stats::Counter::with_value(j.get(key)?.as_u64()?))
    };
    let metrics = PredictionMetrics {
        all: counts_from_json(m.get("all")?)?,
        region: counts_from_json(m.get("region")?)?,
        non_region: counts_from_json(m.get("non_region")?)?,
        known_false_guard: counter(m, "kf")?,
        known_false_mispredicted: counter(m, "kfm")?,
        pred_writes: counter(m, "pw")?,
    };
    let summary = RunSummary {
        instructions: s.get("instructions")?.as_u64()?,
        branches: s.get("branches")?.as_u64()?,
        conditional_branches: s.get("conditional")?.as_u64()?,
        region_branches: s.get("region")?.as_u64()?,
        taken_conditional: s.get("taken_cond")?.as_u64()?,
        pred_writes: s.get("pred_writes")?.as_u64()?,
        halted: matches!(s.get("halted"), Some(Json::Bool(true))),
    };
    Some(RunOutcome { metrics, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_suite_limit() {
        let entries = compiled_suite(Some(2));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].bench.name(), entries[0].compiled.name);
    }

    #[test]
    fn run_outcome_accessors_consistent() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let cell = CellSpec::predicated(
            &entries[0],
            "test/static",
            &ModernSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        let [out] = ctx.run_cells(vec![cell])[..] else {
            panic!("one cell in, one outcome out");
        };
        assert!(out.summary.halted);
        assert!(out.misp_percent() >= 0.0);
        assert!(out.taken_branches() <= out.summary.branches);
        assert!(out.mpki() >= 0.0);
        assert_eq!(ctx.stats().live_runs, 1);
    }

    #[test]
    fn suite_is_memoized_per_limit() {
        let ctx = RunContext::new();
        let a = ctx.suite(Some(1));
        let b = ctx.suite(Some(1));
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.suite(Some(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cell_keys_are_stable_and_discriminating() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let base = CellSpec::predicated(
            &entries[0],
            "a",
            &ModernSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        // the label is cosmetic: same content, same key
        let relabeled = CellSpec {
            label: "b".into(),
            ..base.clone()
        };
        assert_eq!(base.key(), relabeled.key());
        // but every content knob separates
        let other_spec = CellSpec {
            spec: ModernSpec::StaticBtfn,
            ..base.clone()
        };
        assert_ne!(base.key(), other_spec.key());
        let modern_spec = CellSpec {
            spec: "tage:4/10/64".parse::<ModernSpec>().unwrap(),
            ..base.clone()
        };
        assert_ne!(base.key(), modern_spec.key());
        let other_latency = CellSpec {
            timing: Timing::immediate(DEFAULT_LATENCY + 1),
            ..base.clone()
        };
        assert_ne!(base.key(), other_latency.key());
        let other_retire = CellSpec {
            timing: Timing::new(DEFAULT_LATENCY, 4),
            ..base.clone()
        };
        assert_ne!(base.key(), other_retire.key());
        let other_insert = CellSpec {
            insert: InsertFilter::None,
            ..base.clone()
        };
        assert_ne!(base.key(), other_insert.key());
        let plain = CellSpec::plain(
            &entries[0],
            "a",
            &ModernSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        assert_ne!(base.key(), plain.key());
    }

    #[test]
    fn key_derivations_are_pinned() {
        let entries = compiled_suite(Some(1));
        let gzip = &entries[0];
        assert_eq!(gzip.compiled.name, "gzip");
        let timing = Timing::immediate(DEFAULT_LATENCY);
        let static_nt = &ModernSpec::StaticNotTaken;
        let eval = CellSpec::predicated(gzip, "a", static_nt, timing, InsertFilter::All);
        assert_eq!(eval.key(), "v2-5ae9805b18a555bc");
        let seeded = CellSpec::seeded(gzip, "a", 11, static_nt, timing, InsertFilter::All);
        assert_eq!(seeded.key(), "v2-402896545337449f");

        let predicated = &gzip.compiled.predicated;
        let for_run = |label: &str, seed: u64| {
            CacheKey::for_run(label, predicated, &gzip.bench.input(seed), CELL_BUDGET)
        };
        assert_eq!(
            for_run("gzip-pred", EVAL_SEED).file_name(),
            "gzip-pred-cecfe610f9b8b816.pbt"
        );
        assert_eq!(
            for_run("gzip-pred-b", 11).file_name(),
            "gzip-pred-b-acc1959b1c99d409.pbt"
        );
        // the digest constructor is the same derivation
        for (cell, seed) in [(&eval, EVAL_SEED), (&seeded, 11)] {
            let stream = &cell.stream;
            let from_digests = CacheKey::from_digests(
                &cell.cache_label,
                stream.program_hash(),
                stream.memory_fingerprint(),
                CELL_BUDGET,
            );
            assert_eq!(from_digests, for_run(&cell.cache_label, seed));
        }
    }

    #[test]
    fn streams_are_memoized_per_binary_and_seed() {
        let entries = compiled_suite(Some(1));
        let entry = &entries[0];
        let eval = entry.stream(Binary::Predicated, EVAL_SEED);
        assert!(Arc::ptr_eq(
            &eval,
            &entry.stream(Binary::Predicated, EVAL_SEED)
        ));
        let cell = CellSpec::predicated(
            entry,
            "a",
            &ModernSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        assert!(Arc::ptr_eq(&eval, &cell.stream));

        let requests = [
            (Binary::Predicated, EVAL_SEED),
            (Binary::Plain, EVAL_SEED),
            (Binary::Predicated, 11),
            (Binary::Plain, 11),
        ];
        let streams: Vec<Arc<Stream>> = requests
            .iter()
            .map(|&(binary, seed)| entry.stream(binary, seed))
            .collect();
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        for (&(binary, seed), stream) in requests.iter().zip(&streams) {
            let program = match binary {
                Binary::Plain => &entry.compiled.plain,
                Binary::Predicated => &entry.compiled.predicated,
            };
            let memory = entry.bench.input(seed);
            assert_eq!(stream.program(), program);
            assert_eq!(stream.program_hash(), program_hash(program));
            assert_eq!(stream.memory_fingerprint(), memory_fingerprint(&memory));
        }
        // the seed changes the input, not the binary
        assert_eq!(streams[0].program_hash(), streams[2].program_hash());
        assert_ne!(
            streams[0].memory_fingerprint(),
            streams[2].memory_fingerprint()
        );
    }

    /// A gshare cell over `entry`'s predicated binary.
    fn gshare_cell(entry: &SuiteEntry, label: &str, history_bits: u32) -> CellSpec {
        CellSpec::predicated(
            entry,
            label,
            &ModernSpec::Gshare {
                index_bits: 12,
                history_bits,
            },
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        )
    }

    #[test]
    fn a_cell_listed_twice_runs_on_one_lane() {
        let ctx = RunContext::new().with_manifest(ManifestBuilder::new("test", 1));
        let entries = ctx.suite(Some(2));
        let mut cells: Vec<CellSpec> = entries
            .iter()
            .flat_map(|entry| {
                [4, 8].map(|bits| {
                    gshare_cell(entry, &format!("{}/{bits}", entry.compiled.name), bits)
                })
            })
            .collect();
        cells.push(CellSpec {
            label: "again".into(),
            ..cells[1].clone()
        });
        let outs = ctx.run_cells(cells.clone());
        assert_eq!(outs[4], outs[1]);
        assert_ne!(outs[0], outs[1], "the specs differ, so must the outcomes");
        let stats = ctx.stats();
        assert_eq!((stats.live_runs, stats.repeats), (2, 1), "{stats:?}");

        // the repeated key ran once, as a lane of its stream's pass
        let manifest = ctx.manifest().unwrap().finish(None);
        let key = cells[1].key();
        let mut sources: Vec<&str> = manifest
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|cell| cell.get("key").and_then(Json::as_str) == Some(key.as_str()))
            .filter_map(|cell| cell.get("source").and_then(Json::as_str))
            .collect();
        sources.sort_unstable();
        assert_eq!(sources, ["live", "repeat"]);
    }

    #[test]
    fn a_recompiled_entry_restores_as_a_repeat() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let entry = &entries[0];
        let recompiled = SuiteEntry::new(
            entry.bench.clone(),
            compile_benchmark(&entry.bench, &CompileOptions::default()),
        );
        let first = gshare_cell(entry, "first", 8);
        let again = gshare_cell(&recompiled, "again", 8);
        assert!(!Arc::ptr_eq(&first.stream, &again.stream));
        assert_eq!(first.key(), again.key());

        let outs = ctx.run_cells(vec![first]);
        assert_eq!(ctx.run_cells(vec![again]), outs);
        let stats = ctx.stats();
        assert_eq!((stats.live_runs, stats.repeats), (1, 1), "{stats:?}");

        // the same stream under another spec is a new cell
        let other = ctx.run_cells(vec![gshare_cell(&recompiled, "other", 4)]);
        assert_ne!(other, outs);
        let stats = ctx.stats();
        assert_eq!((stats.live_runs, stats.repeats), (2, 1), "{stats:?}");
    }

    #[test]
    fn outcome_json_roundtrips_exactly() {
        let ctx = RunContext::new();
        let entries = ctx.suite(Some(1));
        let cell = CellSpec::predicated(
            &entries[0],
            "test/roundtrip",
            &ModernSpec::StaticNotTaken,
            Timing::immediate(DEFAULT_LATENCY),
            InsertFilter::All,
        );
        let [out] = ctx.run_cells(vec![cell])[..] else {
            panic!("one cell in, one outcome out");
        };
        let json = outcome_to_json(&out);
        let parsed = Json::parse(&json.render()).unwrap();
        assert_eq!(outcome_from_json(&parsed), Some(out));
        assert_eq!(outcome_from_json(&Json::Null), None);
        assert_eq!(outcome_from_json(&Json::obj()), None);
    }
}
