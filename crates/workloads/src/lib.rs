//! Synthetic SPECint-2000-analog workloads for the predicate/branch-
//! prediction study.
//!
//! The paper evaluated on SPECint-2000 binaries compiled by the IMPACT
//! compiler for IA-64. Neither the binaries nor the compiler are
//! available, so this crate substitutes eleven synthetic analogs, each
//! built with the `predbranch-compiler` `CfgBuilder` DSL and a seeded
//! input generator. What matters for a branch-prediction study is the
//! *statistical structure* of the branch and predicate stream, and each
//! analog targets the structure its namesake is known for:
//!
//! | analog | structure exercised |
//! |---|---|
//! | `gzip`    | run-structured data; mixed-bias diamonds inside hot loops |
//! | `vpr`     | accept/reject annealing decisions around 50% bias |
//! | `gcc`     | opcode-dispatch chains with bigram (Markov) correlation |
//! | `mcf`     | data-dependent pointer-chase loop trip counts |
//! | `crafty`  | alternating search levels + score-correlated cutoffs |
//! | `parser`  | token state machine; rare error paths determined by class predicates |
//! | `perlbmk` | deep dispatch with correlated opcode pairs |
//! | `gap`     | modular arithmetic; a kept branch fully determined by two earlier predicates |
//! | `vortex`  | long chains of highly biased validation checks |
//! | `bzip2`   | comparison-driven data shuffling near 50% bias |
//! | `twolf`   | two-level acceptance with phase-changing bias |
//!
//! Every benchmark provides a [`predbranch_compiler::Cfg`], an input
//! generator (seeded, so train ≠ evaluate inputs), and compiles two ways
//! via [`compile_benchmark`]: plain branchy code and the if-converted
//! predicated version with region-based branches — the two binaries every
//! experiment compares.
//!
//! # Examples
//!
//! ```
//! use predbranch_workloads::{compile_benchmark, suite, CompileOptions};
//!
//! let suite = suite();
//! assert_eq!(suite.len(), 11);
//! let compiled = compile_benchmark(&suite[0], &CompileOptions::default());
//! assert!(compiled.predicated.stats().region_branches > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analogs;
mod inputs;
mod suite;

pub use suite::{
    compile_benchmark, suite, Benchmark, CompileOptions, CompiledBenchmark,
    DEFAULT_MAX_INSTRUCTIONS, EVAL_SEED, TRAIN_SEED,
};

pub use predbranch_compiler::IfConvertConfig;
