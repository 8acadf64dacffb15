//! A structured-programming DSL for building CFGs.

use predbranch_isa::{AluOp, Gpr, Src};

use crate::cfg::{Block, BlockId, Cfg, Cond, MidOp, Terminator};
use crate::error::CompileError;

/// Incrementally builds a [`Cfg`] from structured control flow.
///
/// The builder maintains a "current block"; straight-line ops append to
/// it, and the structured constructs ([`CfgBuilder::if_then_else`],
/// [`CfgBuilder::for_range`], ...) create the block diamonds and loops
/// that if-conversion later consumes. Because every construct is
/// single-entry/single-exit, the produced graphs are reducible.
///
/// # Examples
///
/// ```
/// use predbranch_compiler::{CfgBuilder, Cond};
/// use predbranch_isa::{CmpCond, Gpr, Src};
///
/// let (i, x) = (Gpr::new(1).unwrap(), Gpr::new(2).unwrap());
/// let mut b = CfgBuilder::new();
/// b.for_range(i, 0, 100, |b| {
///     b.if_then(Cond::new(CmpCond::Lt, i, Src::Imm(50)), |b| {
///         b.addi(x, x, 1);
///     });
/// });
/// b.halt();
/// let cfg = b.finish()?;
/// assert!(cfg.len() >= 4);
/// # Ok::<(), predbranch_compiler::CompileError>(())
/// ```
#[derive(Debug)]
pub struct CfgBuilder {
    blocks: Vec<Option<Block>>, // None = open (unterminated) block
    open_ops: Vec<Vec<MidOp>>,  // pending ops per open block
    current: BlockId,
    halted: bool,
}

impl Default for CfgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CfgBuilder {
    /// Creates a builder positioned in a fresh entry block.
    pub fn new() -> Self {
        CfgBuilder {
            blocks: vec![None],
            open_ops: vec![Vec::new()],
            current: BlockId(0),
            halted: false,
        }
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(None);
        self.open_ops.push(Vec::new());
        id
    }

    fn terminate(&mut self, term: Terminator) {
        let idx = self.current.index();
        assert!(
            self.blocks[idx].is_none(),
            "block {} terminated twice",
            self.current
        );
        let ops = std::mem::take(&mut self.open_ops[idx]);
        self.blocks[idx] = Some(Block { ops, term });
    }

    fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Appends an op to the current block.
    ///
    /// # Panics
    ///
    /// Panics if called after [`CfgBuilder::halt`] sealed the graph.
    pub fn op(&mut self, op: MidOp) {
        assert!(!self.halted, "builder already halted");
        self.open_ops[self.current.index()].push(op);
    }

    /// Appends `dst = src`.
    pub fn mov(&mut self, dst: Gpr, src: impl Into<Src>) {
        self.op(MidOp::Mov {
            dst,
            src: src.into(),
        });
    }

    /// Appends `dst = src1 <op> src2`.
    pub fn alu(&mut self, op: AluOp, dst: Gpr, src1: Gpr, src2: impl Into<Src>) {
        self.op(MidOp::Alu {
            op,
            dst,
            src1,
            src2: src2.into(),
        });
    }

    /// Appends `dst = src1 + imm`.
    pub fn addi(&mut self, dst: Gpr, src1: Gpr, imm: i32) {
        self.alu(AluOp::Add, dst, src1, Src::Imm(imm));
    }

    /// Appends `dst = mem[base + offset]`.
    pub fn load(&mut self, dst: Gpr, base: Gpr, offset: i32) {
        self.op(MidOp::Load { dst, base, offset });
    }

    /// Appends `mem[base + offset] = src`.
    pub fn store(&mut self, src: Gpr, base: Gpr, offset: i32) {
        self.op(MidOp::Store { src, base, offset });
    }

    /// Builds `if cond { then } else { else }` and continues in the join
    /// block.
    pub fn if_then_else(
        &mut self,
        cond: Cond,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        assert!(!self.halted, "builder already halted");
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let join = self.new_block();
        self.terminate(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        });
        self.switch_to(then_bb);
        then_f(self);
        if self.blocks[self.current.index()].is_none() {
            self.terminate(Terminator::Jump(join));
        }
        self.switch_to(else_bb);
        else_f(self);
        if self.blocks[self.current.index()].is_none() {
            self.terminate(Terminator::Jump(join));
        }
        self.switch_to(join);
    }

    /// Builds `if cond { then }` and continues in the join block.
    pub fn if_then(&mut self, cond: Cond, then_f: impl FnOnce(&mut Self)) {
        self.if_then_else(cond, then_f, |_| {});
    }

    /// Builds a `while` loop. `header_f` runs in the loop-header block
    /// (re-executed every iteration — loads/recomputations of the loop
    /// condition operands belong here) and returns the continue condition;
    /// `body_f` builds the loop body. Continues in the exit block.
    pub(crate) fn while_loop(
        &mut self,
        header_f: impl FnOnce(&mut Self) -> Cond,
        body_f: impl FnOnce(&mut Self),
    ) {
        assert!(!self.halted, "builder already halted");
        let header = self.new_block();
        let body = self.new_block();
        let exit = self.new_block();
        self.terminate(Terminator::Jump(header));
        self.switch_to(header);
        let cond = header_f(self);
        self.terminate(Terminator::CondBr {
            cond,
            then_bb: body,
            else_bb: exit,
        });
        self.switch_to(body);
        body_f(self);
        if self.blocks[self.current.index()].is_none() {
            self.terminate(Terminator::Jump(header));
        }
        self.switch_to(exit);
    }

    /// Builds a counted loop: `for reg in start..end { body }` with unit
    /// stride. The counter register must not be clobbered by the body.
    pub fn for_range(
        &mut self,
        counter: Gpr,
        start: impl Into<Src>,
        end: impl Into<Src>,
        body_f: impl FnOnce(&mut Self),
    ) {
        let end = end.into();
        self.mov(counter, start);
        self.while_loop(
            |_| Cond::new(predbranch_isa::CmpCond::Lt, counter, end),
            |b| {
                body_f(b);
                b.addi(counter, counter, 1);
            },
        );
    }

    /// Terminates the current block with `halt` and seals the builder.
    pub fn halt(&mut self) {
        assert!(!self.halted, "builder already halted");
        self.terminate(Terminator::Halt);
        self.halted = true;
    }

    /// Finishes construction and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnterminatedBlock`] if [`CfgBuilder::halt`]
    /// was never called (or a construct left an open block), otherwise
    /// [`CompileError`] if the graph is empty, an edge targets a missing
    /// block, or no `Halt` terminator exists.
    pub fn finish(self) -> Result<Cfg, CompileError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, slot) in self.blocks.into_iter().enumerate() {
            match slot {
                Some(block) => blocks.push(block),
                None => {
                    return Err(CompileError::UnterminatedBlock {
                        block: BlockId(i as u32),
                    })
                }
            }
        }
        Cfg::from_blocks(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::CmpCond;

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    #[test]
    fn straight_line_program() {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 5);
        b.addi(r(1), r(1), 2);
        b.halt();
        let cfg = b.finish().unwrap();
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.block(Cfg::ENTRY).ops.len(), 2);
        assert_eq!(cfg.block(Cfg::ENTRY).term, Terminator::Halt);
    }

    #[test]
    fn if_then_else_builds_diamond() {
        let mut b = CfgBuilder::new();
        b.if_then_else(
            Cond::new(CmpCond::Eq, r(1), 0),
            |b| b.mov(r(2), 1),
            |b| b.mov(r(2), 2),
        );
        b.mov(r(3), 3);
        b.halt();
        let cfg = b.finish().unwrap();
        assert_eq!(cfg.len(), 4);
        let preds = cfg.predecessors();
        // the join block has two predecessors
        let join = cfg
            .block_ids()
            .find(|&id| preds[id.index()].len() == 2)
            .expect("join exists");
        assert_eq!(cfg.block(join).ops.len(), 1);
    }

    #[test]
    fn if_then_builds_triangle() {
        let mut b = CfgBuilder::new();
        b.if_then(Cond::new(CmpCond::Ne, r(1), 0), |b| b.mov(r(2), 1));
        b.halt();
        let cfg = b.finish().unwrap();
        assert_eq!(cfg.len(), 4); // entry, then, empty else, join
    }

    #[test]
    fn while_loop_builds_backedge() {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 0);
        b.while_loop(
            |_| Cond::new(CmpCond::Lt, r(1), 10),
            |b| b.addi(r(1), r(1), 1),
        );
        b.halt();
        let cfg = b.finish().unwrap();
        // `from → to` is a back edge when `to` does not come after
        // `from` in reverse postorder; only body → header is one
        let pos = cfg.rpo_positions();
        let back_edges = cfg
            .iter()
            .flat_map(|(id, block)| block.term.successors().map(move |to| (id, to)))
            .filter(|&(from, to)| pos[to.index()] <= pos[from.index()])
            .count();
        assert_eq!(back_edges, 1, "while loop must contain a back edge");
    }

    #[test]
    fn nested_constructs_compose() {
        let mut b = CfgBuilder::new();
        b.for_range(r(1), 0, 10, |b| {
            b.if_then_else(
                Cond::new(CmpCond::Eq, r(1), 5),
                |b| {
                    b.if_then(Cond::new(CmpCond::Gt, r(2), 0), |b| b.mov(r(3), 1));
                },
                |b| b.mov(r(3), 2),
            );
        });
        b.halt();
        let cfg = b.finish().unwrap();
        assert!(cfg.len() > 8);
        // every block reachable from entry must be terminated (finish
        // succeeded) and validation passed.
    }

    #[test]
    fn unterminated_builder_rejected() {
        let b = CfgBuilder::new();
        assert!(matches!(
            b.finish(),
            Err(CompileError::UnterminatedBlock { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "already halted")]
    fn ops_after_halt_rejected() {
        let mut b = CfgBuilder::new();
        b.halt();
        b.mov(r(1), 0);
    }

    #[test]
    fn entry_is_block_zero() {
        let mut b = CfgBuilder::new();
        b.mov(r(1), 1);
        b.halt();
        let cfg = b.finish().unwrap();
        assert_eq!(cfg.reverse_postorder()[0], Cfg::ENTRY);
    }
}
