//! The mid-level control-flow graph.

use std::fmt;

use predbranch_isa::{AluOp, CmpCond, Gpr, Src};

use crate::error::CompileError;

/// An index naming a basic block in a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// The block's index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A straight-line (non-control) operation inside a basic block.
///
/// This is the unpredicated subset of the ISA: lowering attaches guard
/// predicates, so the mid-level form stays purely structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MidOp {
    /// `dst = src1 <op> src2`
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Gpr,
        /// First source register.
        src1: Gpr,
        /// Second source operand.
        src2: Src,
    },
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Gpr,
        /// Source operand.
        src: Src,
    },
    /// `dst = mem[base + offset]`
    Load {
        /// Destination register.
        dst: Gpr,
        /// Base address register.
        base: Gpr,
        /// Word offset.
        offset: i32,
    },
    /// `mem[base + offset] = src`
    Store {
        /// Stored register.
        src: Gpr,
        /// Base address register.
        base: Gpr,
        /// Word offset.
        offset: i32,
    },
    /// No operation (placeholder / padding).
    Nop,
}

/// A branch condition: `src1 <cond> src2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Relational condition.
    pub cond: CmpCond,
    /// First source register.
    pub src1: Gpr,
    /// Second source operand.
    pub src2: Src,
}

impl Cond {
    /// Creates a condition.
    pub fn new(cond: CmpCond, src1: Gpr, src2: impl Into<Src>) -> Self {
        Cond {
            cond,
            src1,
            src2: src2.into(),
        }
    }

    /// The condition testing the opposite outcome.
    pub fn negate(&self) -> Cond {
        Cond {
            cond: self.cond.negate(),
            ..*self
        }
    }

    /// Evaluates the condition given resolved operand values.
    pub fn eval(&self, src1: i64, src2: i64) -> bool {
        self.cond.eval(src1, src2)
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.src1, self.cond, self.src2)
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch: to `then_bb` when the condition holds,
    /// else to `else_bb`.
    CondBr {
        /// The branch condition.
        cond: Cond,
        /// Taken successor.
        then_bb: BlockId,
        /// Fall-through successor.
        else_bb: BlockId,
    },
    /// Program end.
    Halt,
}

impl Terminator {
    /// The block's successors, in `(then, else)` order for branches.
    pub(crate) fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let pair = match *self {
            Terminator::Jump(t) => [Some(t), None],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => [Some(then_bb), Some(else_bb)],
            Terminator::Halt => [None, None],
        };
        pair.into_iter().flatten()
    }
}

/// A basic block: straight-line ops plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<MidOp>,
    /// How the block ends.
    pub term: Terminator,
}

impl Block {
    /// Number of ops plus one for the terminator — the block's size for
    /// if-conversion budgeting.
    pub fn weight(&self) -> usize {
        self.ops.len() + 1
    }
}

/// A control-flow graph with a designated entry block (`bb0`).
///
/// Construct one with [`crate::CfgBuilder`], which validates the graph
/// it finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<Block>,
}

impl Cfg {
    /// Entry block id (`bb0`).
    pub(crate) const ENTRY: BlockId = BlockId(0);

    /// Creates a validated CFG from raw blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the graph is empty, an edge targets a
    /// missing block, or no `Halt` terminator exists.
    pub(crate) fn from_blocks(blocks: Vec<Block>) -> Result<Self, CompileError> {
        if blocks.is_empty() {
            return Err(CompileError::EmptyCfg);
        }
        let n = blocks.len() as u32;
        let mut has_halt = false;
        for (i, block) in blocks.iter().enumerate() {
            for succ in block.term.successors() {
                if succ.0 >= n {
                    return Err(CompileError::DanglingEdge {
                        from: BlockId(i as u32),
                        to: succ,
                    });
                }
            }
            if block.term == Terminator::Halt {
                has_halt = true;
            }
        }
        if !has_halt {
            return Err(CompileError::NoHalt);
        }
        Ok(Cfg { blocks })
    }

    /// Number of blocks.
    #[allow(clippy::len_without_is_empty)] // validated CFGs are never empty
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this CFG never are).
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Iterates over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// All block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Predecessor lists, indexed by block.
    pub(crate) fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, block) in self.iter() {
            for succ in block.term.successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }

    /// Reverse postorder over blocks reachable from the entry.
    ///
    /// For the reducible graphs the builder produces, an edge `a → b` with
    /// `rpo_position[b] <= rpo_position[a]` is a (loop) back edge.
    pub(crate) fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut postorder = Vec::with_capacity(self.blocks.len());
        // Iterative DFS storing (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(Self::ENTRY, 0)];
        visited[Self::ENTRY.index()] = true;
        while let Some(&(id, next)) = stack.last() {
            let succs: Vec<BlockId> = self.block(id).term.successors().collect();
            if next < succs.len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let s = succs[next];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(id);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }

    /// Positions of each block in reverse postorder (`usize::MAX` for
    /// unreachable blocks).
    pub(crate) fn rpo_positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.blocks.len()];
        for (i, id) in self.reverse_postorder().into_iter().enumerate() {
            pos[id.index()] = i;
        }
        pos
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, block) in self.iter() {
            writeln!(f, "{id}:")?;
            for op in &block.ops {
                writeln!(f, "    {op:?}")?;
            }
            match &block.term {
                Terminator::Jump(t) => writeln!(f, "    jump {t}")?,
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(f, "    if {cond} then {then_bb} else {else_bb}")?,
                Terminator::Halt => writeln!(f, "    halt")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn halt_block() -> Block {
        Block {
            ops: vec![],
            term: Terminator::Halt,
        }
    }

    /// entry → (then: bb1 | else: bb2) → bb3(halt)
    fn diamond() -> Cfg {
        Cfg::from_blocks(vec![
            Block {
                ops: vec![MidOp::Mov {
                    dst: r(1),
                    src: Src::Imm(1),
                }],
                term: Terminator::CondBr {
                    cond: Cond::new(CmpCond::Gt, r(1), 0),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            },
            Block {
                ops: vec![MidOp::Nop],
                term: Terminator::Jump(BlockId(3)),
            },
            Block {
                ops: vec![MidOp::Nop],
                term: Terminator::Jump(BlockId(3)),
            },
            halt_block(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_cfg_rejected() {
        assert!(matches!(
            Cfg::from_blocks(vec![]),
            Err(CompileError::EmptyCfg)
        ));
    }

    #[test]
    fn dangling_edge_rejected() {
        let err = Cfg::from_blocks(vec![Block {
            ops: vec![],
            term: Terminator::Jump(BlockId(7)),
        }])
        .unwrap_err();
        assert!(matches!(err, CompileError::DanglingEdge { .. }));
    }

    #[test]
    fn missing_halt_rejected() {
        let err = Cfg::from_blocks(vec![Block {
            ops: vec![],
            term: Terminator::Jump(BlockId(0)),
        }])
        .unwrap_err();
        assert!(matches!(err, CompileError::NoHalt));
    }

    #[test]
    fn successors_per_terminator() {
        let cfg = diamond();
        let entry_succs: Vec<_> = cfg.block(Cfg::ENTRY).term.successors().collect();
        assert_eq!(entry_succs, vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.block(BlockId(3)).term.successors().count(), 0);
    }

    #[test]
    fn predecessors_inverted_correctly() {
        let cfg = diamond();
        let preds = cfg.predecessors();
        assert_eq!(preds[0], vec![]);
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[2], vec![BlockId(0)]);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_topology() {
        let cfg = diamond();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], Cfg::ENTRY);
        let pos = cfg.rpo_positions();
        // join comes after both arms
        assert!(pos[3] > pos[1]);
        assert!(pos[3] > pos[2]);
    }

    #[test]
    fn back_edge_detection_on_loop() {
        // bb0 → bb1; bb1 → bb1 (self loop) | bb2(halt)
        let cfg = Cfg::from_blocks(vec![
            Block {
                ops: vec![],
                term: Terminator::Jump(BlockId(1)),
            },
            Block {
                ops: vec![],
                term: Terminator::CondBr {
                    cond: Cond::new(CmpCond::Lt, r(1), 10),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            },
            halt_block(),
        ])
        .unwrap();
        // region formation reads `from → to` as a back edge when `to`
        // does not come after `from` in reverse postorder
        let pos = cfg.rpo_positions();
        assert!(pos[0] < pos[1], "bb0 → bb1 is a forward edge");
        assert!(pos[1] < pos[2], "bb1 → bb2 is a forward edge");
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let cfg = Cfg::from_blocks(vec![
            halt_block(),
            Block {
                ops: vec![],
                term: Terminator::Jump(BlockId(0)),
            },
        ])
        .unwrap();
        assert_eq!(cfg.reverse_postorder(), vec![BlockId(0)]);
        assert_eq!(cfg.rpo_positions()[1], usize::MAX);
    }

    #[test]
    fn cond_negate_flips_eval() {
        let c = Cond::new(CmpCond::Le, r(1), 5);
        assert!(c.eval(5, 5));
        assert!(!c.negate().eval(5, 5));
        assert!(c.negate().eval(6, 5));
    }

    #[test]
    fn block_weight_counts_terminator() {
        assert_eq!(halt_block().weight(), 1);
        let b = Block {
            ops: vec![MidOp::Nop, MidOp::Nop],
            term: Terminator::Halt,
        };
        assert_eq!(b.weight(), 3);
    }

    #[test]
    fn display_dumps_structure() {
        let text = diamond().to_string();
        assert!(text.contains("bb0:"));
        assert!(text.contains("if r1 gt 0 then bb1 else bb2"));
        assert!(text.contains("halt"));
    }
}
