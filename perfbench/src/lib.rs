//! Host-cost benchmark of the predbranch study.
//!
//! The study's misprediction rates are deterministic; what this package
//! measures is what producing them costs the host: wall time, CPU time,
//! peak memory and trace-cache footprint end to end, and per-event or
//! per-branch cost of each layer a branch passes through. See README.md
//! for the workloads, the metric map and how to run it.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod check;
pub mod host;
pub mod layers;
pub mod workload;
