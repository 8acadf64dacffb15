//! # predbranch — Incorporating Predicate Information into Branch Predictors
//!
//! A full reimplementation of the HPCA-9 (2003) study by Simon, Calder &
//! Ferrante as a Rust workspace, from the predicated ISA up to the
//! experiment harness. This facade crate re-exports every subsystem:
//!
//! * [`isa`] — the EPIC-style predicated instruction set (assembler,
//!   disassembler, binary encoding);
//! * [`compiler`] — CFG construction, profiling, and IMPACT-style
//!   if-conversion that leaves *region-based branches*;
//! * [`sim`] — the functional executor, predicate scoreboard, and
//!   pipeline timing model;
//! * [`core`] — the paper's predictors: the squash false-path filter and
//!   the predicate global-update predictor, over conventional baselines;
//! * [`modern`] — the post-2003 tier: TAGE and a multiperspective
//!   perceptron, each with a predicate-aware variant, asking the
//!   paper's question against modern baselines;
//! * [`workloads`] — eleven SPECint-2000-analog benchmarks;
//! * [`stats`] — counters, histograms, and table/series rendering;
//! * [`trace`] — binary trace record/replay with an on-disk trace
//!   cache, so sweeps execute each (binary, input) once;
//! * [`sweep`] — a deterministic sweep engine (an order-preserving
//!   scoped `par_map`, run manifests, resumable checkpoints) whose
//!   parallel output is byte-identical to sequential; sweeps run
//!   *gang-replayed* — one pass over each event stream feeds every
//!   predictor configuration as an independent `GangHarness` lane;
//! * [`characterize`] — streaming predictability characterization:
//!   per-branch entropy / mutual-information metrics and the four-way
//!   H2P taxonomy (biased / history-predictable / predicate-predictable
//!   / fundamentally-hard) computed in one pass over an event stream.
//!
//! # Quickstart
//!
//! ```
//! use predbranch::core::{Gshare, HarnessConfig, PredictionHarness, SquashFilter};
//! use predbranch::sim::Executor;
//! use predbranch::workloads::{compile_benchmark, suite, CompileOptions, EVAL_SEED};
//!
//! // 1. take a benchmark and compile it with profile-guided if-conversion
//! let bench = &suite()[0];
//! let compiled = compile_benchmark(bench, &CompileOptions::default());
//! assert!(compiled.predicated.stats().region_branches > 0);
//!
//! // 2. predict its branches with gshare + the squash false-path filter
//! let predictor = SquashFilter::new(Gshare::new(13, 13));
//! let mut harness = PredictionHarness::new(predictor, HarnessConfig::default());
//! Executor::new(&compiled.predicated, bench.input(EVAL_SEED))
//!     .run(&mut harness, 8_000_000);
//!
//! let metrics = harness.metrics();
//! assert!(metrics.all.branches.get() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use predbranch_characterize as characterize;
pub use predbranch_compiler as compiler;
pub use predbranch_core as core;
pub use predbranch_isa as isa;
pub use predbranch_modern as modern;
pub use predbranch_sim as sim;
pub use predbranch_stats as stats;
pub use predbranch_sweep as sweep;
pub use predbranch_trace as trace;
pub use predbranch_workloads as workloads;

/// Everything a typical experiment needs, in one import.
///
/// # Examples
///
/// ```
/// use predbranch::prelude::*;
///
/// let bench = &suite()[7]; // "gap"
/// let compiled = compile_benchmark(bench, &CompileOptions::default());
/// let spec: PredictorSpec = "gshare:12/12+pgu8".parse().unwrap();
/// let mut harness = PredictionHarness::new(
///     build_predictor(&spec),
///     HarnessConfig::default(),
/// );
/// Executor::new(&compiled.predicated, bench.input(EVAL_SEED)).run(&mut harness, 8_000_000);
/// assert!(harness.metrics().all.misp_rate().percent() < 1.0);
/// ```
pub mod prelude {
    pub use predbranch_compiler::{
        hoist_compares, if_convert, lower, profile_cfg, CfgBuilder, Cond, IfConvertConfig,
    };
    pub use predbranch_core::{
        build_predictor, BranchPredictor, HarnessConfig, InsertFilter, PredictionHarness,
        PredictorSpec,
    };
    pub use predbranch_isa::{assemble, Gpr, PredReg, Program};
    pub use predbranch_sim::{Executor, Memory, PipelineConfig};
    pub use predbranch_stats::{Cell, Series, Table};
    pub use predbranch_sweep::{par_map, Checkpoint, ManifestBuilder};
    pub use predbranch_trace::{CacheKey, TraceCache, TraceReader, TraceWriter};
    pub use predbranch_workloads::{
        compile_benchmark, suite, CompileOptions, EVAL_SEED, TRAIN_SEED,
    };
}
