//! Instruction definitions and the disassembling `Display` impl.

use std::fmt;

use crate::pred::{CmpCond, CmpType};
use crate::reg::{Gpr, PredReg};

/// Arithmetic/logic operations.
///
/// All operate on signed 64-bit values. `Div`/`Rem` by zero produce `0`
/// (documented, trap-free semantics — the simulator never faults). Shift
/// amounts are masked to the low 6 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; `x / 0 == 0`, `i64::MIN / -1 == i64::MIN`.
    Div,
    /// Signed remainder; `x % 0 == 0`, `i64::MIN % -1 == 0`.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (amount masked to 6 bits).
    Shl,
    /// Arithmetic shift right (amount masked to 6 bits).
    Shr,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        }
    }

    /// Evaluates the operation with the documented trap-free semantics.
    ///
    /// # Examples
    ///
    /// ```
    /// use predbranch_isa::AluOp;
    ///
    /// assert_eq!(AluOp::Add.eval(2, 3), 5);
    /// assert_eq!(AluOp::Div.eval(7, 0), 0);
    /// assert_eq!(AluOp::Rem.eval(7, 3), 1);
    /// ```
    pub fn eval(&self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Shr => a.wrapping_shr((b & 0x3f) as u32),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A source operand: a register or a 32-bit sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Register operand.
    Reg(Gpr),
    /// Immediate operand (sign-extended to 64 bits).
    Imm(i32),
}

impl Src {
    /// Shorthand for an immediate source.
    pub fn imm(value: i32) -> Src {
        Src::Imm(value)
    }

    /// Shorthand for a register source.
    pub fn reg(r: Gpr) -> Src {
        Src::Reg(r)
    }
}

impl From<Gpr> for Src {
    fn from(r: Gpr) -> Self {
        Src::Reg(r)
    }
}

impl From<i32> for Src {
    fn from(imm: i32) -> Self {
        Src::Imm(imm)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// The operation part of an instruction (everything except the guard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = src1 <op> src2`
    Alu {
        /// The arithmetic/logic operation.
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
        /// Byte^W word offset added to the base.
        offset: i32,
    },
    /// `mem[base + offset] = src`
    Store {
        /// Register whose value is stored.
        src: Gpr,
        /// Base address register.
        base: Gpr,
        /// Word offset added to the base.
        offset: i32,
    },
    /// Compare-to-predicate: `cmp.<cond>.<ctype> pt, pf = src1, src2`.
    Cmp {
        /// Compare type controlling the predicate-write rule.
        ctype: CmpType,
        /// Relational condition.
        cond: CmpCond,
        /// "True" target predicate.
        p_true: PredReg,
        /// "False" target predicate.
        p_false: PredReg,
        /// First source register.
        src1: Gpr,
        /// Second source operand.
        src2: Src,
    },
    /// `(qp) br target`: taken exactly when the guard predicate is true.
    ///
    /// `region` tags a *region-based branch* — a branch the if-converter
    /// left inside a predicated region. `None` means an ordinary branch.
    Br {
        /// Absolute target instruction index.
        target: u32,
        /// The if-converted region this branch belongs to, if any.
        region: Option<u16>,
    },
    /// Stops execution.
    Halt,
    /// No operation.
    Nop,
}

/// One instruction: a guard predicate plus an operation.
///
/// Instructions whose guard is false are fetched and occupy pipeline slots
/// but have no architectural effect (except `cmp.unc`, which clears its
/// targets — see [`CmpType::Unc`]).
///
/// The `Display` impl is the disassembler; its output round-trips through
/// [`crate::assemble`].
///
/// # Examples
///
/// ```
/// use predbranch_isa::{Gpr, Inst, Op, PredReg, Src};
///
/// let p1 = PredReg::new(1).unwrap();
/// let inst = Inst::guarded(
///     p1,
///     Op::Alu {
///         op: predbranch_isa::AluOp::Add,
///         dst: Gpr::new(4).unwrap(),
///         src1: Gpr::new(4).unwrap(),
///         src2: Src::Imm(1),
///     },
/// );
/// assert_eq!(inst.to_string(), "(p1) add r4 = r4, 1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Guard predicate register; `p0` for unguarded instructions.
    pub guard: PredReg,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// An unguarded instruction (guard = `p0`).
    pub fn new(op: Op) -> Self {
        Inst {
            guard: PredReg::TRUE,
            op,
        }
    }

    /// An instruction guarded by `guard`.
    pub fn guarded(guard: PredReg, op: Op) -> Self {
        Inst { guard, op }
    }

    /// Whether this is a branch.
    pub fn is_branch(&self) -> bool {
        matches!(self.op, Op::Br { .. })
    }

    /// Whether this is a *conditional* branch (guard other than `p0`).
    pub fn is_conditional_branch(&self) -> bool {
        self.is_branch() && !self.guard.is_always_true()
    }

    /// Whether this is a region-based branch.
    pub(crate) fn is_region_branch(&self) -> bool {
        matches!(
            self.op,
            Op::Br {
                region: Some(_),
                ..
            }
        )
    }

    /// Whether this is a compare-to-predicate instruction.
    pub fn is_cmp(&self) -> bool {
        matches!(self.op, Op::Cmp { .. })
    }

    /// Whether this instruction is guarded by a real (writable) predicate.
    pub fn is_predicated(&self) -> bool {
        !self.guard.is_always_true()
    }

    /// The predicate registers this instruction writes, if any.
    ///
    /// Writes to `p0` are architecturally ignored and excluded.
    pub fn pred_writes(&self) -> impl Iterator<Item = PredReg> + '_ {
        let pair = match self.op {
            Op::Cmp {
                p_true, p_false, ..
            } => [Some(p_true), Some(p_false)],
            _ => [None, None],
        };
        pair.into_iter().flatten().filter(|p| !p.is_always_true())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_always_true() {
            write!(f, "({}) ", self.guard)?;
        }
        match &self.op {
            Op::Alu {
                op,
                dst,
                src1,
                src2,
            } => write!(f, "{op} {dst} = {src1}, {src2}"),
            Op::Mov { dst, src } => write!(f, "mov {dst} = {src}"),
            Op::Load { dst, base, offset } => write!(f, "ld {dst} = [{base} + {offset}]"),
            Op::Store { src, base, offset } => write!(f, "st [{base} + {offset}] = {src}"),
            Op::Cmp {
                ctype,
                cond,
                p_true,
                p_false,
                src1,
                src2,
            } => {
                if ctype.mnemonic().is_empty() {
                    write!(f, "cmp.{cond} {p_true}, {p_false} = {src1}, {src2}")
                } else {
                    write!(f, "cmp.{cond}.{ctype} {p_true}, {p_false} = {src1}, {src2}")
                }
            }
            Op::Br { target, region } => match region {
                Some(r) => write!(f, "br.region {r}, @{target}"),
                None => write!(f, "br @{target}"),
            },
            Op::Halt => f.write_str("halt"),
            Op::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn p(i: u8) -> PredReg {
        PredReg::new(i).unwrap()
    }

    #[test]
    fn alu_eval_wrapping_and_trap_free() {
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Sub.eval(i64::MIN, 1), i64::MAX);
        assert_eq!(AluOp::Mul.eval(3, -4), -12);
        assert_eq!(AluOp::Div.eval(10, 3), 3);
        assert_eq!(AluOp::Div.eval(10, 0), 0);
        assert_eq!(AluOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(AluOp::Rem.eval(10, 3), 1);
        assert_eq!(AluOp::Rem.eval(10, 0), 0);
        assert_eq!(AluOp::Rem.eval(i64::MIN, -1), 0);
    }

    #[test]
    fn alu_eval_bitwise_and_shifts() {
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 4), 16);
        assert_eq!(AluOp::Shr.eval(-16, 2), -4);
        // shift amounts masked to 6 bits
        assert_eq!(AluOp::Shl.eval(1, 64), 1);
        assert_eq!(AluOp::Shl.eval(1, 65), 2);
    }

    #[test]
    fn inst_classification() {
        let br = Inst::guarded(
            p(1),
            Op::Br {
                target: 0,
                region: None,
            },
        );
        assert!(br.is_branch());
        assert!(br.is_conditional_branch());
        assert!(!br.is_region_branch());

        let ubr = Inst::new(Op::Br {
            target: 0,
            region: None,
        });
        assert!(ubr.is_branch());
        assert!(!ubr.is_conditional_branch());

        let rbr = Inst::guarded(
            p(2),
            Op::Br {
                target: 0,
                region: Some(7),
            },
        );
        assert!(rbr.is_region_branch());

        let nop = Inst::new(Op::Nop);
        assert!(!nop.is_branch());
        assert!(!nop.is_predicated());
    }

    #[test]
    fn pred_writes_lists_cmp_targets() {
        let cmp = Inst::new(Op::Cmp {
            ctype: CmpType::Norm,
            cond: CmpCond::Lt,
            p_true: p(3),
            p_false: p(4),
            src1: r(1),
            src2: Src::Imm(0),
        });
        let writes: Vec<_> = cmp.pred_writes().collect();
        assert_eq!(writes, vec![p(3), p(4)]);

        // writes to p0 are dropped
        let cmp0 = Inst::new(Op::Cmp {
            ctype: CmpType::Norm,
            cond: CmpCond::Lt,
            p_true: p(3),
            p_false: PredReg::TRUE,
            src1: r(1),
            src2: Src::Imm(0),
        });
        assert_eq!(cmp0.pred_writes().collect::<Vec<_>>(), vec![p(3)]);

        let add = Inst::new(Op::Alu {
            op: AluOp::Add,
            dst: r(1),
            src1: r(1),
            src2: Src::Imm(1),
        });
        assert_eq!(add.pred_writes().count(), 0);
    }

    #[test]
    fn display_formats_every_shape() {
        let cases: Vec<(Inst, &str)> = vec![
            (
                Inst::new(Op::Mov {
                    dst: r(1),
                    src: Src::Imm(-7),
                }),
                "mov r1 = -7",
            ),
            (
                Inst::new(Op::Mov {
                    dst: r(1),
                    src: Src::Reg(r(2)),
                }),
                "mov r1 = r2",
            ),
            (
                Inst::guarded(
                    p(5),
                    Op::Load {
                        dst: r(2),
                        base: r(3),
                        offset: 16,
                    },
                ),
                "(p5) ld r2 = [r3 + 16]",
            ),
            (
                Inst::new(Op::Store {
                    src: r(2),
                    base: r(3),
                    offset: -8,
                }),
                "st [r3 + -8] = r2",
            ),
            (
                Inst::new(Op::Cmp {
                    ctype: CmpType::Unc,
                    cond: CmpCond::Ge,
                    p_true: p(1),
                    p_false: p(2),
                    src1: r(4),
                    src2: Src::Reg(r(5)),
                }),
                "cmp.ge.unc p1, p2 = r4, r5",
            ),
            (
                Inst::new(Op::Cmp {
                    ctype: CmpType::Norm,
                    cond: CmpCond::Eq,
                    p_true: p(1),
                    p_false: p(2),
                    src1: r(4),
                    src2: Src::Imm(3),
                }),
                "cmp.eq p1, p2 = r4, 3",
            ),
            (
                Inst::guarded(
                    p(9),
                    Op::Br {
                        target: 12,
                        region: Some(2),
                    },
                ),
                "(p9) br.region 2, @12",
            ),
            (
                Inst::new(Op::Br {
                    target: 3,
                    region: None,
                }),
                "br @3",
            ),
            (Inst::new(Op::Halt), "halt"),
            (Inst::guarded(p(1), Op::Nop), "(p1) nop"),
        ];
        for (inst, expect) in cases {
            assert_eq!(inst.to_string(), expect);
        }
    }
}
