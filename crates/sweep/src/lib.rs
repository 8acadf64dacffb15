//! # predbranch-sweep — deterministic parallel experiment sweeps
//!
//! The study's cost is dominated by its experiment grid: benchmarks ×
//! predictor specs × machine options, every cell independent of every
//! other. This crate supplies the machinery to execute such grids in
//! parallel **without changing a byte of output**:
//!
//! * [`par_map`] — the scheduler: maps a batch of independent items on
//!   at most `N` lanes (the caller plus scoped threads drawing from one
//!   shared queue) and returns the results in item order no matter
//!   which lane computed what when, which is the whole determinism
//!   story: callers aggregate over the returned vector exactly as a
//!   sequential loop would. The item is whatever the caller makes it —
//!   the bench runner maps *gang units* (all cells sharing one event
//!   stream and resolve latency, replayed in a single pass) rather than
//!   individual cells, and flattens each unit's per-lane results back
//!   into cell submission order.
//! * [`Checkpoint`] — an append-only, per-line-flushed JSONL journal of
//!   completed cells keyed by content digests, so an interrupted sweep
//!   resumes from completed cells only (a torn tail is truncated and
//!   the affected cell re-runs).
//! * [`ManifestBuilder`] / [`CellRecord`] — a JSON run record: every
//!   cell's label, key, result source (live / trace-cache replay /
//!   recording / checkpoint), and wall-clock, in canonical order.
//! * [`Json`] — the minimal ordered JSON value the two above share
//!   (the build environment is offline; serde is not available).
//!
//! The `predbranch-bench` crate builds its `RunContext` on these pieces
//! and exposes them as `experiments --jobs N --manifest <path>
//! --checkpoint <path>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod json;
mod manifest;
mod pool;

pub use checkpoint::Checkpoint;
pub use json::Json;
pub use manifest::{CellRecord, CellSource, ManifestBuilder};
pub use pool::par_map;
