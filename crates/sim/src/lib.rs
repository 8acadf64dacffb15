//! Execution substrate for the predicated ISA: a functional executor that
//! streams branch and predicate-definition events, a predicate
//! scoreboard modelling what is *known at fetch time*, and a pipeline
//! timing model.
//!
//! This crate stands in for the cycle-level simulator the paper's authors
//! used. The predictor techniques under study consume exactly three
//! dynamic facts, all of which this simulator produces faithfully:
//!
//! 1. the stream of **conditional branches** with their guard predicate
//!    and outcome (a predicated branch is taken exactly when its guard is
//!    true) — [`BranchEvent`];
//! 2. the stream of **predicate definitions** (compare-to-predicate
//!    writes) — [`PredWriteEvent`];
//! 3. whether a guard predicate's value has **resolved by the time the
//!    branch is fetched**, which depends on the def-to-branch distance
//!    and the machine's resolve latency — [`PredicateScoreboard`].
//!
//! Timing is modelled analytically by [`PipelineModel`]: cycles are fetch
//! slots plus a fixed flush penalty per misprediction, the standard
//! first-order model for branch-predictor studies. Absolute IPC is not
//! meant to match the authors' testbed; relative effects are.
//!
//! # Examples
//!
//! ```
//! use predbranch_isa::assemble;
//! use predbranch_sim::{Executor, Memory, TraceSink};
//!
//! let program = assemble(
//!     r#"
//!         mov r1 = 3
//!     loop:
//!         cmp.gt p1, p2 = r1, 0
//!         (p1) sub r1 = r1, 1
//!         (p1) br loop
//!         halt
//!     "#,
//! ).unwrap();
//! let mut exec = Executor::new(&program, Memory::new());
//! let mut trace = TraceSink::new();
//! let summary = exec.run(&mut trace, 1_000);
//! assert!(summary.halted);
//! assert_eq!(exec.state().reg(predbranch_isa::Gpr::new(1).unwrap()), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod memory;
mod metrics;
mod pipeline;
mod scoreboard;
mod state;
mod trace;

pub use exec::{Executor, RunSummary, EVENT_BATCH_CAPACITY};
pub use memory::Memory;
pub use metrics::{GuardKnowledgeStats, RegionActivity};
pub use pipeline::{
    FetchTimeline, PipelineConfig, PipelineModel, DEFAULT_RESOLVE_LATENCY, DEFAULT_RETIRE_LATENCY,
};
pub use scoreboard::{PendingDefinitions, PredKnowledge, PredicateScoreboard};
pub use state::ArchState;
pub use trace::{BranchEvent, Event, EventSink, NullSink, PredWriteEvent, TraceSink};
