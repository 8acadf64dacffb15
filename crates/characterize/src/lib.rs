//! Streaming predictability characterization and the hard-to-predict
//! (H2P) branch taxonomy.
//!
//! The experiment harness reports *aggregate* misprediction rates; this
//! crate explains them. A [`Characterizer`] is an
//! [`EventSink`](predbranch_sim::EventSink) that consumes one decoded
//! event stream — live execution, trace replay, or the trace cache's
//! decoded-event memo — in a single batched pass and computes, per
//! static conditional branch:
//!
//! * **bias** — the taken-rate and its marginal Shannon entropy
//!   `H(taken)`;
//! * **history-conditioned entropy** — the residual entropy
//!   `H(taken | history)` at several global and local outcome-history
//!   depths ([`GLOBAL_DEPTHS`], [`LOCAL_DEPTHS`]), taking the best
//!   (lowest) depth the sample count can support;
//! * **predicate correlation** — the mutual information between the
//!   branch's direction and the fetch-visible predicate state: the
//!   guard's [`PredKnowledge`](predbranch_sim::PredKnowledge) under the
//!   same [`PredicateScoreboard`](predbranch_sim::PredicateScoreboard)
//!   plumbing SFPF uses, joined with a PGU-style delayed register of
//!   the last [`PRED_HISTORY_BITS`] predicate-definition outcomes;
//! * **a bucket** — every static branch is classified into exactly one
//!   of the four [`Bucket`]s by [`classify`].
//!
//! # Thresholds
//!
//! The taxonomy is only useful if its thresholds are stable and
//! documented, so they are public constants:
//!
//! | constant | value | meaning |
//! |---|---|---|
//! | [`BIAS_THRESHOLD`] | 0.95 | taken-rate (either direction) at or above which a branch is *biased* |
//! | [`PREDICTABLE_ENTROPY_BITS`] | 0.25 | residual conditional entropy at or below which a context *explains* a branch |
//! | [`SUPPORT_PER_CONTEXT`] | 8 | minimum average samples per observed context before an empirical conditional entropy is trusted |
//!
//! The support rule guards against the classic small-sample bias:
//! deep-history conditional entropy tends to zero as contexts
//! proliferate (every context seen once looks deterministic), which
//! would classify genuinely random branches as history-predictable.
//! A depth whose joint table fails the rule is ignored.
//!
//! # Classification order
//!
//! [`classify`] checks buckets in a fixed priority: *biased* first
//! (a static prediction suffices — no predictor mechanism earns credit
//! for these), then *history-predictable* (a conventional
//! history-indexed predictor like gshare already captures these), then
//! *predicate-predictable* (only fetch-visible predicate state explains
//! them — the branches SFPF and PGU exist for), else *fundamentally
//! hard*. The ordering is what makes the F17 join meaningful: a branch
//! both history- and predicate-correlated lands in the history bucket
//! because the baseline predictor needs no help there, so mechanism
//! wins concentrate where the taxonomy says they should.
//!
//! # Examples
//!
//! ```
//! use predbranch_characterize::{Bucket, Characterizer};
//! use predbranch_sim::{Executor, Memory};
//!
//! let program = predbranch_isa::assemble(
//!     "mov r1 = 0\nloop: cmp.lt p1, p2 = r1, 50\n (p1) add r1 = r1, 1\n (p1) br loop\n halt",
//! )
//! .unwrap();
//! let mut sink = Characterizer::new();
//! Executor::new(&program, Memory::new()).run(&mut sink, 10_000);
//! let report = sink.finish();
//! assert_eq!(report.branches().len(), 1);
//! assert_eq!(report.branches()[0].bucket, Bucket::Biased);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod characterizer;
mod report;

pub use characterizer::Characterizer;
pub use report::{classify, BranchProfile, Bucket, Characterization, HistoryKind};

/// Taken-rate (towards either direction) at or above which a branch is
/// [`Bucket::Biased`]: a static always-taken/never-taken prediction is
/// already at least 95% accurate, so no dynamic mechanism earns credit.
pub const BIAS_THRESHOLD: f64 = 0.95;

/// Residual conditional entropy, in bits, at or below which a context
/// is considered to *explain* a branch. 0.25 bits corresponds to a
/// conditional distribution more skewed than ~96/4 — the residual
/// surprise a two-bit counter per context absorbs easily.
pub const PREDICTABLE_ENTROPY_BITS: f64 = 0.25;

/// Minimum average observations per distinct observed context before an
/// empirical conditional entropy is trusted (see the crate docs on
/// small-sample bias).
pub const SUPPORT_PER_CONTEXT: u64 = 8;

/// Global outcome-history depths (bits of all-branches direction
/// history) at which `H(taken | history)` is measured.
pub const GLOBAL_DEPTHS: [usize; 3] = [2, 4, 8];

/// Local outcome-history depths (bits of this branch's own direction
/// history) at which `H(taken | history)` is measured.
pub const LOCAL_DEPTHS: [usize; 3] = [2, 4, 8];

/// Number of recent fetch-visible predicate-definition outcomes joined
/// into the predicate-correlation context (the PGU-style register).
pub const PRED_HISTORY_BITS: usize = 4;

/// Fetch slots between a predicate definition and its visibility to the
/// predicate-history register — the same commit-time delay the
/// realistic PGU configuration models: one default resolve latency.
pub const PRED_VISIBILITY_DELAY: u64 = predbranch_sim::DEFAULT_RESOLVE_LATENCY;
