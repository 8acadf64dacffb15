//! Compare hoisting: a post-lowering scheduling pass that moves
//! compare-to-predicate instructions as early as data dependences allow.
//!
//! The IMPACT compiler scheduled compares away from their consuming
//! branches on purpose: every slot of definition-to-branch distance gives
//! the front end a better chance of *resolving* the predicate before the
//! branch fetches (squash filter) and of landing the predicate bit in
//! global history in time (PGU). This pass reproduces that effect on the
//! linearized program:
//!
//! * the program is cut into straight-line *windows* at every branch,
//!   halt, and branch target (nothing moves across control flow or entry
//!   points; labels that are not branch targets are scheduled across freely);
//! * within a window, each compare bubbles upward past instructions that
//!   neither produce its inputs nor touch its predicate targets.
//!
//! The pass is semantics-preserving (checked by the differential property
//! tests in `predbranch-sim`) and never changes program length, so branch
//! targets and labels stay valid.

use std::collections::HashSet;

use predbranch_isa::{Gpr, Inst, Op, PredReg, Program, Src};

/// Result of [`hoist_compares`]: the rescheduled program plus how many
/// single-slot moves were performed.
#[derive(Debug, Clone)]
pub struct HoistResult {
    /// The rescheduled program (same length, same labels).
    pub program: Program,
    /// Number of compare-past-instruction swaps performed.
    pub moves: u64,
}

/// Registers an instruction reads (GPRs) — used for dependence checks.
fn gpr_reads(inst: &Inst) -> Vec<Gpr> {
    fn src_reg(src: Src) -> Option<Gpr> {
        match src {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        }
    }
    let mut reads = Vec::new();
    match inst.op {
        Op::Alu { src1, src2, .. } => {
            reads.push(src1);
            reads.extend(src_reg(src2));
        }
        Op::Mov { src, .. } => reads.extend(src_reg(src)),
        Op::Load { base, .. } => reads.push(base),
        Op::Store { src, base, .. } => {
            reads.push(src);
            reads.push(base);
        }
        Op::Cmp { src1, src2, .. } => {
            reads.push(src1);
            reads.extend(src_reg(src2));
        }
        Op::Br { .. } | Op::Halt | Op::Nop => {}
    }
    reads
}

/// The GPR an instruction writes, if any.
fn gpr_write(inst: &Inst) -> Option<Gpr> {
    match inst.op {
        Op::Alu { dst, .. } | Op::Mov { dst, .. } | Op::Load { dst, .. } => Some(dst),
        _ => None,
    }
}

/// Predicates an instruction writes (compare targets).
fn pred_writes(inst: &Inst) -> Vec<PredReg> {
    match inst.op {
        Op::Cmp {
            p_true, p_false, ..
        } => vec![p_true, p_false],
        _ => Vec::new(),
    }
}

/// Whether `cmp` (a compare) may move above `other` (the instruction
/// currently before it) without changing semantics.
fn may_swap(cmp: &Inst, other: &Inst) -> bool {
    // never move across control flow
    if matches!(other.op, Op::Br { .. } | Op::Halt) {
        return false;
    }
    let cmp_targets = pred_writes(cmp);
    // `other` must not produce any GPR the compare reads
    if let Some(w) = gpr_write(other) {
        if !w.is_zero() && gpr_reads(cmp).contains(&w) {
            return false;
        }
    }
    // `other` must not read (as guard) or write any predicate the
    // compare writes, and the compare must not write `other`'s guard
    if cmp_targets.contains(&other.guard) {
        return false;
    }
    let other_preds = pred_writes(other);
    if cmp_targets.iter().any(|p| other_preds.contains(p)) {
        return false;
    }
    // `other` must not write the compare's own guard
    if other_preds.contains(&cmp.guard) {
        return false;
    }
    true
}

/// Hoists compares within straight-line windows (see module docs).
///
/// # Examples
///
/// ```
/// use predbranch_compiler::hoist_compares;
/// use predbranch_isa::assemble;
///
/// // the cmp's operands are ready at the top: it hoists past the adds
/// let p = assemble(
///     "mov r1 = 5\n add r2 = r2, 1\n add r3 = r3, 1\n cmp.gt p1, p2 = r1, 0\n (p1) br @0\n halt",
/// ).unwrap();
/// let hoisted = hoist_compares(&p);
/// assert!(hoisted.moves >= 2);
/// assert!(hoisted.program.inst(1).unwrap().is_cmp());
/// ```
pub fn hoist_compares(program: &Program) -> HoistResult {
    // Barriers: pcs that start a window — branch targets. (Labels that
    // nothing jumps to are purely informational and safe to schedule
    // across; targeted pcs are entry points whose instruction must not
    // move above them.)
    let mut barriers: HashSet<u32> = HashSet::new();
    for (_, inst) in program.iter() {
        if let Op::Br { target, .. } = inst.op {
            barriers.insert(target);
        }
    }

    let mut insts: Vec<Inst> = program.insts().to_vec();
    let mut moves = 0u64;
    // Bubble each compare upward. Iterate top-down so earlier compares
    // settle before later ones try to cross them.
    for i in 1..insts.len() {
        if !insts[i].is_cmp() {
            continue;
        }
        let mut pos = i;
        while pos > 0 && !barriers.contains(&(pos as u32)) && may_swap(&insts[pos], &insts[pos - 1])
        {
            insts.swap(pos, pos - 1);
            pos -= 1;
            moves += 1;
        }
    }

    let labels = (0..program.len())
        .filter_map(|pc| program.label_at(pc).map(|name| (name.to_string(), pc)))
        .collect();
    let program = Program::with_labels(insts, labels)
        .expect("hoisting preserves length, targets, and the halt");
    HoistResult { program, moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::assemble;

    #[test]
    fn hoists_independent_compare_to_window_top() {
        let p = assemble(
            r#"
                mov r1 = 5
                add r2 = r2, 1
                add r3 = r3, 1
                cmp.gt p1, p2 = r1, 0
                (p1) br @0
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        // the cmp can pass both adds but not the mov that defines r1
        assert!(
            hoisted.program.inst(1).unwrap().is_cmp(),
            "{}",
            hoisted.program
        );
        assert_eq!(hoisted.moves, 2);
    }

    #[test]
    fn does_not_cross_producer_of_operand() {
        let p = assemble(
            r#"
                add r1 = r1, 1
                cmp.gt p1, p2 = r1, 0
                (p1) br @0
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        assert_eq!(hoisted.moves, 0);
        assert!(hoisted.program.inst(1).unwrap().is_cmp());
    }

    #[test]
    fn does_not_cross_guarded_reader_of_target() {
        // the add is guarded by p1; the cmp defining p1 must stay below it
        let p = assemble(
            r#"
                (p1) add r2 = r2, 1
                cmp.gt p1, p2 = r3, 0
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        assert_eq!(hoisted.moves, 0);
    }

    #[test]
    fn does_not_cross_branches_or_labels() {
        let p = assemble(
            r#"
                nop
                br skip
            skip:
                nop
                cmp.eq p1, p2 = r1, 0
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        // can pass the nop inside the window but must stop at the label
        let cmp_pc = hoisted
            .program
            .iter()
            .find(|(_, i)| i.is_cmp())
            .map(|(pc, _)| pc)
            .unwrap();
        assert_eq!(cmp_pc, 2, "{}", hoisted.program);
    }

    #[test]
    fn two_compares_preserve_relative_dependences() {
        // second cmp's guard is written by the first: order must hold
        let p = assemble(
            r#"
                nop
                cmp.gt p1, p2 = r1, 0
                (p1) cmp.gt.unc p3, p4 = r2, 0
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        let pcs: Vec<u32> = hoisted
            .program
            .iter()
            .filter(|(_, i)| i.is_cmp())
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(pcs.len(), 2);
        assert!(pcs[0] < pcs[1]);
        // first cmp hoisted past the nop; dependent cmp right behind it
        assert_eq!(pcs, vec![0, 1], "{}", hoisted.program);
    }

    #[test]
    fn labels_survive() {
        let p = assemble("top: nop\n cmp.eq p1, p2 = r1, 0\n (p1) br top\n halt").unwrap();
        let hoisted = hoist_compares(&p);
        assert_eq!(hoisted.program.resolve_label("top"), Some(0));
        assert_eq!(hoisted.program.len(), p.len());
    }

    #[test]
    fn semantics_preserved_on_a_loop() {
        use predbranch_sim_check::run_both;
        let p = assemble(
            r#"
                mov r1 = 0
                mov r4 = 1
            loop:
                add r4 = r4, r4
                and r4 = r4, 1023
                cmp.lt p1, p2 = r1, 40
                (p1) add r1 = r1, 1
                (p1) br loop
                st [r0 + 0] = r4
                halt
            "#,
        )
        .unwrap();
        let hoisted = hoist_compares(&p);
        assert!(hoisted.moves > 0, "{}", hoisted.program);
        run_both(&p, &hoisted.program);
    }

    /// Minimal in-crate interpreter check (the full differential tests
    /// live in `predbranch-sim`): execute both programs with the
    /// compiler's own profile interpreter semantics via a tiny stepper.
    mod predbranch_sim_check {
        use predbranch_isa::{apply_cmp_type, Op, Program, Src};

        pub(super) fn run_both(a: &Program, b: &Program) {
            assert_eq!(exec(a), exec(b), "hoisting changed semantics");
        }

        fn exec(p: &Program) -> ([i64; 64], Vec<(i64, i64)>) {
            let mut regs = [0i64; 64];
            let mut preds = [false; 64];
            preds[0] = true;
            let mut mem = std::collections::BTreeMap::new();
            let mut pc = 0u32;
            for _ in 0..100_000 {
                let Some(inst) = p.inst(pc) else { break };
                let guard = preds[inst.guard.index() as usize];
                let src = |s: Src, regs: &[i64; 64]| match s {
                    Src::Reg(r) => regs[r.index() as usize],
                    Src::Imm(i) => i as i64,
                };
                let mut next = pc + 1;
                match inst.op {
                    Op::Nop => {}
                    Op::Halt => {
                        if guard {
                            break;
                        }
                    }
                    Op::Alu {
                        op,
                        dst,
                        src1,
                        src2,
                    } => {
                        if guard && !dst.is_zero() {
                            regs[dst.index() as usize] =
                                op.eval(regs[src1.index() as usize], src(src2, &regs));
                        }
                    }
                    Op::Mov { dst, src: s } => {
                        if guard && !dst.is_zero() {
                            regs[dst.index() as usize] = src(s, &regs);
                        }
                    }
                    Op::Load { dst, base, offset } => {
                        if guard && !dst.is_zero() {
                            let addr = regs[base.index() as usize] + offset as i64;
                            regs[dst.index() as usize] = *mem.get(&addr).unwrap_or(&0);
                        }
                    }
                    Op::Store {
                        src: s,
                        base,
                        offset,
                    } => {
                        if guard {
                            let addr = regs[base.index() as usize] + offset as i64;
                            mem.insert(addr, regs[s.index() as usize]);
                        }
                    }
                    Op::Cmp {
                        ctype,
                        cond,
                        p_true,
                        p_false,
                        src1,
                        src2,
                    } => {
                        let result = cond.eval(regs[src1.index() as usize], src(src2, &regs));
                        let old = (
                            preds[p_true.index() as usize],
                            preds[p_false.index() as usize],
                        );
                        let new = apply_cmp_type(ctype, guard, result, old);
                        if !p_true.is_always_true() {
                            preds[p_true.index() as usize] = new.0;
                        }
                        if !p_false.is_always_true() {
                            preds[p_false.index() as usize] = new.1;
                        }
                    }
                    Op::Br { target, .. } => {
                        if guard {
                            next = target;
                        }
                    }
                }
                pc = next;
            }
            (regs, mem.into_iter().collect())
        }
    }
}
