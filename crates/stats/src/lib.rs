//! Statistics utilities shared by the `predbranch` simulator and experiment
//! harness.
//!
//! This crate provides the small, dependency-free building blocks every
//! experiment in the study needs:
//!
//! * [`Counter`] / [`Ratio`] — saturating event counters and derived rates,
//! * [`Histogram`] — fixed-width bucketed histograms for distance
//!   distributions,
//! * [`Summary`] — running mean / variance / min / max accumulators,
//! * [`entropy_bits`] / [`JointDistribution`] — Shannon entropy and
//!   mutual-information accumulators for predictability characterization,
//! * [`geometric_mean`] and friends — suite-level aggregation used when a
//!   figure reports one bar per benchmark plus an average,
//! * [`Table`] and [`Series`] — plain-text renderers that print experiment
//!   output in the same rows/series layout the paper's tables and figures
//!   use.
//!
//! # Examples
//!
//! ```
//! use predbranch_stats::{Counter, Ratio};
//!
//! let mut branches = Counter::new();
//! let mut mispredicts = Counter::new();
//! for outcome in [true, false, true, true] {
//!     branches.add(1);
//!     if !outcome {
//!         mispredicts.add(1);
//!     }
//! }
//! let rate = Ratio::of(mispredicts.get(), branches.get());
//! assert_eq!(rate.percent(), 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counter;
mod entropy;
mod histogram;
mod series;
mod summary;
mod table;

pub use counter::{Counter, Ratio};
pub use entropy::{entropy_bits, JointDistribution};
pub use histogram::Histogram;
pub use series::Series;
pub use summary::{geometric_mean, mean, Summary};
pub use table::{Align, Cell, Table};
