//! A small compiler targeting the `predbranch` predicated ISA.
//!
//! This crate is the substrate that stands in for the IMPACT compiler in
//! the HPCA-9 2003 study *Incorporating Predicate Information into Branch
//! Predictors*: it builds control-flow graphs ([`Cfg`]) from a structured
//! [`CfgBuilder`] DSL, profiles them ([`profile_cfg`]), and **if-converts**
//! them into hyperblock-style predicated regions ([`if_convert`]) in which
//! some branches are eliminated (replaced by compare-to-predicate
//! instructions) and the rest remain as *region-based branches* — exactly
//! the branch population the paper's predictors target.
//!
//! The pipeline is:
//!
//! 1. Build a [`Cfg`] with [`CfgBuilder`] (workloads do this).
//! 2. Optionally [`profile_cfg`] it on a training input to obtain per-branch
//!    bias, which drives the if-converter's convert/keep heuristics.
//! 3. Either [`lower`] it directly (ordinary branchy code, the study's
//!    "no if-conversion" configuration), or [`if_convert`] it (predicated
//!    code with region-based branches).
//!
//! Both paths produce a validated [`predbranch_isa::Program`] ready for the
//! `predbranch-sim` executor.
//!
//! # Examples
//!
//! ```
//! use predbranch_compiler::{CfgBuilder, Cond, IfConvertConfig, MidOp};
//! use predbranch_isa::{AluOp, CmpCond, Gpr, Src};
//!
//! let r1 = Gpr::new(1).unwrap();
//! let mut b = CfgBuilder::new();
//! b.op(MidOp::Mov { dst: r1, src: Src::Imm(4) });
//! b.if_then_else(
//!     Cond::new(CmpCond::Gt, r1, Src::Imm(0)),
//!     |b| b.op(MidOp::Alu { op: AluOp::Add, dst: r1, src1: r1, src2: Src::Imm(1) }),
//!     |b| b.op(MidOp::Alu { op: AluOp::Sub, dst: r1, src1: r1, src2: Src::Imm(1) }),
//! );
//! b.halt();
//! let cfg = b.finish()?;
//!
//! // Branchy lowering keeps the conditional branch...
//! let plain = predbranch_compiler::lower(&cfg)?;
//! assert!(plain.stats().conditional_branches > 0);
//!
//! // ...if-conversion predicates the diamond away.
//! let converted = predbranch_compiler::if_convert(&cfg, None, &IfConvertConfig::default())?;
//! assert_eq!(converted.program.stats().conditional_branches, 0);
//! # Ok::<(), predbranch_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod cfg;
mod dom;
mod error;
mod ifconv;
mod linearize;
mod profile;
mod schedule;

pub use builder::CfgBuilder;
pub use cfg::{Block, BlockId, Cfg, Cond, MidOp, Terminator};
pub use dom::Dominators;
pub use error::CompileError;
pub use ifconv::{if_convert, IfConvResult, IfConvStats, IfConvertConfig, RegionInfo};
pub use linearize::lower;
pub use profile::{profile_cfg, CfgProfile, ProfileConfig};
pub use schedule::{hoist_compares, HoistResult};
