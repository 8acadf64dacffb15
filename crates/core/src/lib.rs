//! Branch predictors that incorporate predicate information — the primary
//! contribution of Simon, Calder & Ferrante, *Incorporating Predicate
//! Information into Branch Predictors* (HPCA-9, 2003), reimplemented as a
//! library.
//!
//! # The two techniques
//!
//! In a predicated ISA, a conditional branch `(qp) br target` is taken
//! exactly when its guard predicate `qp` is true, and `qp` was computed by
//! an ordinary compare instruction some distance before the branch. The
//! paper exploits this in two ways:
//!
//! * **Squash false-path filter** ([`SquashFilter`]): if, by the time the
//!   branch is fetched, the guard's defining compare has resolved and the
//!   value is *false*, the branch cannot be taken — predict not-taken with
//!   100% accuracy and don't let the branch pollute (or consult) the
//!   dynamic predictor. This exactly implements the abstract's
//!   "recognizes fetched branches known to be guarded with a false
//!   predicate and predicts them as not-taken with 100% accuracy".
//!
//! * **Predicate global update** ([`Pgu`]): if-conversion *removes*
//!   branches, and with them the global-history bits that downstream
//!   branches used to correlate on. The PGU predictor restores that
//!   correlation by shifting recently computed predicate-definition
//!   outcomes into the global history register, so a *region-based
//!   branch* (one left inside a predicated region) can correlate with the
//!   predicate definitions of its region.
//!
//! Both wrap the conventional baselines implemented here ([`Bimodal`],
//! [`Gshare`], [`Local`], [`Tournament`], [`StaticPredictor`]) behind one
//! [`BranchPredictor`] trait, and [`PredictionHarness`] drives any of them
//! from a `predbranch-sim` event stream, collecting per-class
//! (region/non-region) misprediction metrics.
//!
//! # Examples
//!
//! ```
//! use predbranch_core::{Gshare, HarnessConfig, PredictionHarness, SquashFilter};
//! use predbranch_isa::assemble;
//! use predbranch_sim::{Executor, Memory};
//!
//! let program = assemble(
//!     r#"
//!         mov r1 = 0
//!     loop:
//!         cmp.lt p1, p2 = r1, 100
//!         (p1) add r1 = r1, 1
//!         nop
//!         nop
//!         (p1) br.region 0, loop
//!         halt
//!     "#,
//! ).unwrap();
//! let predictor = SquashFilter::new(Gshare::new(10, 8));
//! let mut harness = PredictionHarness::new(predictor, HarnessConfig::default());
//! Executor::new(&program, Memory::new()).run(&mut harness, 10_000);
//! let m = harness.metrics();
//! assert_eq!(m.all.branches.get(), 101);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agree;
mod bimodal;
mod filter;
mod gshare;
mod harness;
mod history;
mod hot;
mod local;
mod oracle;
mod perceptron;
mod pgu;
mod predictor;
mod ring;
mod sfpf;
mod tables;
mod tournament;

pub use agree::Agree;
pub use bimodal::Bimodal;
pub use filter::{guard_def_pcs, InsertFilter};
pub use gshare::Gshare;
pub use harness::{GangHarness, HarnessConfig, PredictionHarness, Timing};
pub use history::{FoldedHistory, GlobalHistory, LongHistory, MAX_HISTORY_BITS, MAX_LONG_HISTORY};
pub use hot::HotBranches;
pub use local::Local;
pub use oracle::PerfectGuard;
pub use perceptron::{Perceptron, MAX_PERCEPTRON_INDEX_BITS};
pub use pgu::Pgu;
pub use predictor::StaticPredictor;
pub use predictor::{
    BranchInfo, BranchPredictor, ClassCounts, HasGlobalHistory, HistoryInsert, PredictionMetrics,
    PredictorVisitor,
};
pub use ring::{checkpoint_capacity, Checkpoints, Ring, CHECKPOINT_CAPACITY, WINDOW_CAPACITY};
pub use sfpf::SquashFilter;
pub use tables::{CounterTable, TwoBitCounter, MAX_TABLE_INDEX_BITS};
pub use tournament::Tournament;
