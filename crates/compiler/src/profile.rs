//! CFG-level edge profiling.
//!
//! The if-converter's convert/keep heuristics are profile-guided, the way
//! IMPACT's hyperblock formation was: a training run over the CFG counts
//! how often each conditional branch goes each way, and branches that are
//! hard to predict (low bias) become predicated while strongly biased
//! branches stay branches.

use std::collections::HashMap;

use crate::cfg::{BlockId, Cfg, MidOp, Terminator};

/// Profiling run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Abort after this many executed blocks (guards against non-
    /// terminating training inputs).
    pub max_blocks: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            max_blocks: 10_000_000,
        }
    }
}

/// Edge-profile of one training run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgProfile {
    taken: Vec<u64>,
    total: Vec<u64>,
    block_count: Vec<u64>,
    halted: bool,
}

impl CfgProfile {
    /// How often the block's conditional branch was taken vs executed,
    /// or `None` if the block doesn't end in a conditional branch.
    pub(crate) fn branch_counts(&self, block: BlockId) -> Option<(u64, u64)> {
        let total = *self.total.get(block.index())?;
        if total == 0 && self.taken[block.index()] == 0 {
            // Either never executed or not a branch; callers use `bias`.
        }
        Some((self.taken[block.index()], total))
    }

    /// The taken fraction of the block's conditional branch, or `None` if
    /// it never executed.
    pub fn taken_fraction(&self, block: BlockId) -> Option<f64> {
        let (taken, total) = self.branch_counts(block)?;
        if total == 0 {
            None
        } else {
            Some(taken as f64 / total as f64)
        }
    }

    /// The branch's *bias*: `max(p, 1-p)` of its taken fraction — 1.0 for
    /// perfectly one-sided branches, 0.5 for coin flips. `None` if never
    /// executed.
    pub fn bias(&self, block: BlockId) -> Option<f64> {
        self.taken_fraction(block).map(|p| p.max(1.0 - p))
    }

    /// How many times the block executed.
    pub fn executions(&self, block: BlockId) -> u64 {
        self.block_count.get(block.index()).copied().unwrap_or(0)
    }

    /// Whether the training run reached `halt` (rather than the step
    /// limit).
    pub fn halted(&self) -> bool {
        self.halted
    }
}

/// Executes the CFG on a training memory image and counts edges.
///
/// Register state starts zeroed (`r0` stays zero); `memory` maps word
/// addresses to values and is updated in place, so the caller can inspect
/// outputs. Semantics match the ISA executor in `predbranch-sim` exactly
/// (trap-free division, wrapping arithmetic, zero-default loads).
///
/// # Examples
///
/// ```
/// use predbranch_compiler::{profile_cfg, CfgBuilder, Cond, ProfileConfig};
/// use predbranch_isa::{CmpCond, Gpr};
/// use std::collections::HashMap;
///
/// let i = Gpr::new(1).unwrap();
/// let mut b = CfgBuilder::new();
/// b.for_range(i, 0, 10, |_| {});
/// b.halt();
/// let cfg = b.finish().unwrap();
/// let profile = profile_cfg(&cfg, &mut HashMap::new(), &ProfileConfig::default());
/// assert!(profile.halted());
/// ```
pub fn profile_cfg(
    cfg: &Cfg,
    memory: &mut HashMap<i64, i64>,
    config: &ProfileConfig,
) -> CfgProfile {
    let mut taken = vec![0u64; cfg.len()];
    let mut total = vec![0u64; cfg.len()];
    let mut block_count = vec![0u64; cfg.len()];
    let mut regs = [0i64; predbranch_isa::NUM_GPRS];
    let mut current = Cfg::ENTRY;
    let mut halted = false;
    let mut executed = 0u64;

    'run: while executed < config.max_blocks {
        executed += 1;
        block_count[current.index()] += 1;
        let block = cfg.block(current);
        for op in &block.ops {
            exec_op(op, &mut regs, memory);
        }
        match block.term {
            Terminator::Jump(t) => current = t,
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let v2 = read_src(cond.src2, &regs);
                let outcome = cond.eval(regs[cond.src1.index() as usize], v2);
                total[current.index()] += 1;
                if outcome {
                    taken[current.index()] += 1;
                    current = then_bb;
                } else {
                    current = else_bb;
                }
            }
            Terminator::Halt => {
                halted = true;
                break 'run;
            }
        }
    }

    CfgProfile {
        taken,
        total,
        block_count,
        halted,
    }
}

fn read_src(src: predbranch_isa::Src, regs: &[i64; predbranch_isa::NUM_GPRS]) -> i64 {
    match src {
        predbranch_isa::Src::Reg(r) => regs[r.index() as usize],
        predbranch_isa::Src::Imm(i) => i as i64,
    }
}

fn exec_op(op: &MidOp, regs: &mut [i64; predbranch_isa::NUM_GPRS], memory: &mut HashMap<i64, i64>) {
    let write = |regs: &mut [i64; predbranch_isa::NUM_GPRS], dst: predbranch_isa::Gpr, v: i64| {
        if !dst.is_zero() {
            regs[dst.index() as usize] = v;
        }
    };
    match *op {
        MidOp::Alu {
            op,
            dst,
            src1,
            src2,
        } => {
            let v = op.eval(regs[src1.index() as usize], read_src(src2, regs));
            write(regs, dst, v);
        }
        MidOp::Mov { dst, src } => {
            let v = read_src(src, regs);
            write(regs, dst, v);
        }
        MidOp::Load { dst, base, offset } => {
            let addr = regs[base.index() as usize].wrapping_add(offset as i64);
            let v = memory.get(&addr).copied().unwrap_or(0);
            write(regs, dst, v);
        }
        MidOp::Store { src, base, offset } => {
            let addr = regs[base.index() as usize].wrapping_add(offset as i64);
            memory.insert(addr, regs[src.index() as usize]);
        }
        MidOp::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::cfg::Cond;
    use predbranch_isa::{AluOp, CmpCond, Gpr};

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    #[test]
    fn counted_loop_profile() {
        let mut b = CfgBuilder::new();
        b.for_range(r(1), 0, 10, |_| {});
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(&cfg, &mut HashMap::new(), &ProfileConfig::default());
        assert!(profile.halted());
        // the loop header branch executed 11 times, taken 10
        let header = cfg
            .block_ids()
            .find(|&id| {
                matches!(cfg.block(id).term, Terminator::CondBr { .. })
                    && profile.executions(id) > 0
            })
            .unwrap();
        assert_eq!(profile.branch_counts(header), Some((10, 11)));
        assert!((profile.taken_fraction(header).unwrap() - 10.0 / 11.0).abs() < 1e-12);
        assert!((profile.bias(header).unwrap() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn data_dependent_branch_bias() {
        // branch on mem[i] % 2 over 0..100 with memory all zero: never taken... store 1s at odd addrs.
        let mut memory = HashMap::new();
        for a in 0..100i64 {
            memory.insert(a, a % 4);
        }
        let (i, v) = (r(1), r(2));
        let mut b = CfgBuilder::new();
        b.for_range(i, 0, 100, |b| {
            b.load(v, i, 0);
            b.if_then(Cond::new(CmpCond::Eq, v, 0), |b| b.addi(r(3), r(3), 1));
        });
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(&cfg, &mut memory, &ProfileConfig::default());
        // the inner branch (inside the loop, not the header) is 25% taken
        let inner = cfg
            .block_ids()
            .filter(|&id| matches!(cfg.block(id).term, Terminator::CondBr { .. }))
            .find(|&id| profile.branch_counts(id).map(|(_, t)| t) == Some(100))
            .expect("inner branch executed 100 times");
        assert_eq!(profile.branch_counts(inner), Some((25, 100)));
        assert_eq!(profile.bias(inner), Some(0.75));
    }

    #[test]
    fn never_executed_branch_has_no_bias() {
        let mut b = CfgBuilder::new();
        b.if_then_else(
            Cond::new(CmpCond::Eq, r(1), 0),
            |_| {},
            |b| {
                // dead inner branch: r1 == 0 always (regs start zeroed)
                b.if_then(Cond::new(CmpCond::Gt, r(2), 0), |_| {});
            },
        );
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(&cfg, &mut HashMap::new(), &ProfileConfig::default());
        let dead = cfg
            .block_ids()
            .filter(|&id| matches!(cfg.block(id).term, Terminator::CondBr { .. }))
            .find(|&id| profile.executions(id) == 0)
            .expect("dead branch exists");
        assert_eq!(profile.bias(dead), None);
        assert_eq!(profile.taken_fraction(dead), None);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut b = CfgBuilder::new();
        b.while_loop(|_| Cond::new(CmpCond::Eq, r(1), 0), |_| {});
        b.halt();
        let cfg = b.finish().unwrap();
        let profile = profile_cfg(
            &cfg,
            &mut HashMap::new(),
            &ProfileConfig { max_blocks: 100 },
        );
        assert!(!profile.halted());
    }

    #[test]
    fn memory_updates_visible_to_caller() {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 42);
        b.store(r(1), Gpr::ZERO, 7);
        b.halt();
        let cfg = b.finish().unwrap();
        let mut memory = HashMap::new();
        profile_cfg(&cfg, &mut memory, &ProfileConfig::default());
        assert_eq!(memory.get(&7), Some(&42));
    }

    #[test]
    fn r0_stays_zero() {
        let mut b = CfgBuilder::new();
        b.mov(Gpr::ZERO, 99);
        b.alu(AluOp::Add, r(1), Gpr::ZERO, 1);
        b.store(r(1), Gpr::ZERO, 0);
        b.halt();
        let cfg = b.finish().unwrap();
        let mut memory = HashMap::new();
        profile_cfg(&cfg, &mut memory, &ProfileConfig::default());
        assert_eq!(memory.get(&0), Some(&1));
    }
}
