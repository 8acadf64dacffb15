//! Modern predictor tier for the predicate-branch study: TAGE and a
//! multiperspective perceptron, with predicate-aware variants, plus the
//! one predictor spec that names every configuration the study runs.
//!
//! The paper's two techniques — the squash false-path filter (SFPF) and
//! predicate global update (PGU) — were evaluated against circa-2003
//! baselines (gshare, local, tournament). This crate asks whether the
//! paper's conclusion survives modern baselines by implementing two
//! predictors from the decade after it as first-class citizens of the
//! same four-phase speculate/commit/squash lifecycle:
//!
//! * [`Tage`] — tagged geometric-history tables over a >64-bit global
//!   history, with folded-history indexing, usefulness counters,
//!   provider/altpred selection, and allocate-on-mispredict.
//! * [`Mpp`] — a multiperspective perceptron that sums small weights
//!   read through several *feature views* (global-history slices, path
//!   history, per-PC local history, bias) and trains with an adaptive
//!   threshold.
//!
//! Each has a predicate-aware variant (`ptage` / `pmpp`) that adds a
//! dedicated *predicate-history* feature — a register of recently
//! resolved predicate-definition outcomes, hashed into the TAGE index
//! or read as an extra perceptron view. That is the paper's PGU idea
//! expressed natively instead of by splicing bits into the
//! branch-outcome history; the classic PGU and SFPF wrappers also
//! compose around both predictors via [`predbranch_core::Pgu`] (through
//! [`predbranch_core::HistoryInsert`]) and
//! [`predbranch_core::SquashFilter`].
//!
//! [`ModernSpec`] is the workspace's one predictor spec: one enum over
//! the nine paper-era bases (`gshare:I/H`, `perceptron:I/H`, ...), the
//! modern ones (`tage:T/I/H`, `ptage:T/I/H`, `mpp:I`, `pmpp:I`) and the
//! `+sfpf` / `+pguN` wrappers, with one text grammar.
//! [`build_modern_stack`] builds any spec as a [`ModernStack`], the
//! statically-dispatched stack the sweeps run, in one walk that holds
//! every composition rule; [`build_modern`] returns the same stack
//! boxed.
//!
//! # Examples
//!
//! ```
//! use predbranch_core::BranchPredictor;
//! use predbranch_modern::{build_modern, ModernSpec};
//!
//! let spec: ModernSpec = "tage:4/10/64+sfpf".parse().unwrap();
//! assert_eq!(build_modern(&spec).name(), "sfpf+tage-4/10/64");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod config;
mod mpp;
mod predhist;
mod spec;
mod stack;
mod tage;

pub use mpp::Mpp;
pub use spec::{ModernSpec, ParseModernSpecError};
pub use stack::{build_modern, build_modern_stack, ModernStack, StackVariant};
pub use tage::Tage;
