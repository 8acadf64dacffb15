//! Experiment harness: regenerates every table and figure of the study.
//!
//! Each experiment in [`experiments`] is a pure function from a
//! ([`runner::RunContext`], [`Scale`]) pair to text artifacts
//! ([`predbranch_stats::Table`] / [`predbranch_stats::Series`]); the
//! `experiments` binary prints them, `perfbench/` times them, and
//! EXPERIMENTS.md records their output against the paper's claims.
//! The context carries the sweep machinery — worker pool, trace cache,
//! checkpoint journal, manifest — and experiments decompose their grids
//! into [`runner::CellSpec`]s so output stays byte-identical at any
//! `--jobs` level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod runner;

pub use experiments::{all_experiments, Artifact, Experiment, Scale};
pub use runner::{
    compiled_suite, CellSpec, RunContext, RunOutcome, RunStats, Shard, Stream, StreamSource,
    SuiteEntry, DEFAULT_LATENCY, PGU_DELAY,
};
