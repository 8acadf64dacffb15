//! Modern predictor tier for the predicate-branch study: TAGE and a
//! multiperspective perceptron, with predicate-aware variants.
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
//! resolved predicate-definition outcomes ([`PredicateHistory`]) hashed
//! into the TAGE index or read as an extra perceptron view. That is the
//! paper's PGU idea expressed natively instead of by splicing bits into
//! the branch-outcome history; the classic PGU and SFPF wrappers also
//! compose around both predictors via [`predbranch_core::Pgu`] (through
//! [`predbranch_core::HistoryInsert`]) and
//! [`predbranch_core::SquashFilter`].
//!
//! [`ModernSpec`] is a strict superset of
//! [`predbranch_core::PredictorSpec`]: every classic spec string parses
//! to a transparent [`ModernSpec::Classic`], and `tage:T/I/H`,
//! `ptage:T/I/H`, `mpp:I`, `pmpp:I` join the base vocabulary with the
//! same `+sfpf` / `+pguN` modifier syntax. [`ModernStack`] is the one
//! statically-dispatched stack for classic and modern specs alike, built
//! by [`build_modern_stack`].
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

mod mpp;
mod predhist;
mod spec;
mod stack;
mod tage;

pub use mpp::Mpp;
pub use predhist::{PredicateHistory, PREDICATE_HISTORY_BITS};
pub use spec::{build_modern, ModernSpec, ParseModernSpecError};
pub use stack::{build_modern_stack, ModernStack, StackVariant};
pub use tage::{Tage, MAX_TAGE_TABLES};
