//! Architectural register state.

use predbranch_isa::{Gpr, PredReg, NUM_GPRS, NUM_PREDS};

/// Architectural state: general registers, predicate registers, and the
/// program counter.
///
/// `r0` always reads zero and `p0` always reads true; writes to either
/// are architecturally ignored, which this type enforces.
///
/// # Examples
///
/// ```
/// use predbranch_isa::{assemble, Gpr, PredReg};
/// use predbranch_sim::{Executor, Memory, NullSink};
///
/// let program = assemble("add r1 = r0, 42\nadd r0 = r0, 99\nhalt").unwrap();
/// let mut exec = Executor::new(&program, Memory::new());
/// exec.run(&mut NullSink, 100);
/// let s = exec.state();
/// assert_eq!(s.reg(Gpr::new(1).unwrap()), 42);
/// assert_eq!(s.reg(Gpr::ZERO), 0); // the write to r0 was ignored
/// assert!(s.pred(PredReg::TRUE));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    regs: [i64; NUM_GPRS],
    preds: [bool; NUM_PREDS],
    pc: u32,
    halted: bool,
}

impl ArchState {
    /// Creates a zeroed state: all registers 0, all predicates false
    /// (except `p0`), pc at 0.
    pub(crate) fn new() -> Self {
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;
        ArchState {
            regs: [0; NUM_GPRS],
            preds,
            pc: 0,
            halted: false,
        }
    }

    /// Reads a general register (`r0` reads zero).
    pub fn reg(&self, r: Gpr) -> i64 {
        self.regs[r.index() as usize]
    }

    /// Writes a general register (writes to `r0` are ignored).
    pub(crate) fn set_reg(&mut self, r: Gpr, value: i64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Reads a predicate register (`p0` reads true).
    pub fn pred(&self, p: PredReg) -> bool {
        self.preds[p.index() as usize]
    }

    /// Writes a predicate register (writes to `p0` are ignored).
    pub(crate) fn set_pred(&mut self, p: PredReg, value: bool) {
        if !p.is_always_true() {
            self.preds[p.index() as usize] = value;
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub(crate) fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Whether a `halt` has executed.
    pub(crate) fn is_halted(&self) -> bool {
        self.halted
    }

    /// Marks the machine halted.
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    /// The full predicate file as a slice (index = register number).
    pub fn preds(&self) -> &[bool; NUM_PREDS] {
        &self.preds
    }

    /// The full register file as a slice (index = register number).
    pub fn regs(&self) -> &[i64; NUM_GPRS] {
        &self.regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_zeroed() {
        let s = ArchState::new();
        assert_eq!(s.pc(), 0);
        assert!(!s.is_halted());
        assert!(s.regs().iter().all(|&r| r == 0));
        assert!(s.pred(PredReg::TRUE));
        assert!(!s.pred(PredReg::new(1).unwrap()));
    }

    #[test]
    fn r0_write_ignored() {
        let mut s = ArchState::new();
        s.set_reg(Gpr::ZERO, 123);
        assert_eq!(s.reg(Gpr::ZERO), 0);
    }

    #[test]
    fn p0_write_ignored() {
        let mut s = ArchState::new();
        s.set_pred(PredReg::TRUE, false);
        assert!(s.pred(PredReg::TRUE));
    }

    #[test]
    fn normal_registers_read_back() {
        let mut s = ArchState::new();
        let r5 = Gpr::new(5).unwrap();
        let p7 = PredReg::new(7).unwrap();
        s.set_reg(r5, -9);
        s.set_pred(p7, true);
        assert_eq!(s.reg(r5), -9);
        assert!(s.pred(p7));
        s.set_pred(p7, false);
        assert!(!s.pred(p7));
    }

    #[test]
    fn halt_latches() {
        let mut s = ArchState::new();
        s.halt();
        assert!(s.is_halted());
    }

    #[test]
    fn pc_roundtrip() {
        let mut s = ArchState::new();
        s.set_pc(17);
        assert_eq!(s.pc(), 17);
    }
}
