//! The functional executor.

use predbranch_isa::{apply_cmp_type, Gpr, Inst, Op, Program, Src};

use crate::memory::Memory;
use crate::state::ArchState;
use crate::trace::{BranchEvent, Event, EventSink, PredWriteEvent};

/// Number of events a batched producer accumulates before flushing them
/// to the sink in one [`EventSink::events`] call. Large enough to
/// amortize per-batch dispatch to nothing, small enough that the buffer
/// (at 24 bytes per event) stays comfortably inside L1/L2.
pub const EVENT_BATCH_CAPACITY: usize = 1024;

/// Summary of one [`Executor::run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed (including guarded-off ones, which
    /// occupy fetch slots).
    pub instructions: u64,
    /// Dynamic branches of any kind.
    pub branches: u64,
    /// Dynamic conditional branches (guard ≠ `p0`).
    pub conditional_branches: u64,
    /// Dynamic region-based branches.
    pub region_branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_conditional: u64,
    /// Dynamic predicate writes.
    pub pred_writes: u64,
    /// Whether the program reached `halt` (false = instruction budget
    /// exhausted).
    pub halted: bool,
}

/// A functional (architecture-level) executor for predicated programs.
///
/// Every instruction is "fetched" (consumes a dynamic index and, in the
/// timing model, a fetch slot) regardless of its guard; guarded-off
/// instructions simply have no architectural effect — the defining
/// property of predicated execution that the paper's techniques exploit.
///
/// The executor streams [`BranchEvent`]s and [`PredWriteEvent`]s to an
/// [`EventSink`] so arbitrarily long runs use constant memory.
#[derive(Debug)]
pub struct Executor<'a> {
    program: &'a Program,
    state: ArchState,
    memory: Memory,
    icount: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor at pc 0 with zeroed registers.
    pub fn new(program: &'a Program, memory: Memory) -> Self {
        Executor {
            program,
            state: ArchState::new(),
            memory,
            icount: 0,
        }
    }

    /// The architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Dynamic instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.icount
    }

    fn read_src(&self, src: Src) -> i64 {
        match src {
            Src::Reg(r) => self.state.reg(r),
            Src::Imm(i) => i as i64,
        }
    }

    /// Executes one instruction, streaming events to `sink`.
    ///
    /// Returns `false` once the machine is halted (and executes nothing).
    pub fn step(&mut self, sink: &mut impl EventSink, summary: &mut RunSummary) -> bool {
        if self.state.is_halted() {
            return false;
        }
        let pc = self.state.pc();
        // A hand-written program can fall off its own end (execution
        // reaching one past the last instruction); treat it as an
        // un-halted stop rather than a fault.
        let Some(inst): Option<&Inst> = self.program.inst(pc) else {
            return false;
        };
        let index = self.icount;
        self.icount += 1;
        summary.instructions += 1;
        let guard = self.state.pred(inst.guard);
        let mut next_pc = pc + 1;

        match inst.op {
            Op::Nop => {}
            Op::Halt => {
                if guard {
                    self.state.halt();
                }
            }
            Op::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                if guard {
                    let v = op.eval(self.state.reg(src1), self.read_src(src2));
                    self.state.set_reg(dst, v);
                }
            }
            Op::Mov { dst, src } => {
                if guard {
                    let v = self.read_src(src);
                    self.state.set_reg(dst, v);
                }
            }
            Op::Load { dst, base, offset } => {
                if guard {
                    let addr = self.state.reg(base).wrapping_add(offset as i64);
                    let v = self.memory.load(addr);
                    self.state.set_reg(dst, v);
                }
            }
            Op::Store { src, base, offset } => {
                if guard {
                    let addr = self.state.reg(base).wrapping_add(offset as i64);
                    self.memory.store(addr, self.state.reg(src));
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
                let result = cond.eval(self.state.reg(src1), self.read_src(src2));
                let old = (self.state.pred(p_true), self.state.pred(p_false));
                let new = apply_cmp_type(ctype, guard, result, old);
                // A write is architecturally performed when the compare
                // "fires": always for norm/unc under a true guard, for unc
                // even under a false guard (it clears), and for the
                // parallel types only when the result triggers them.
                let performed = if guard {
                    fired(ctype, result)
                } else {
                    ctype.writes_when_guard_false()
                };
                for (preg, value) in [(p_true, new.0), (p_false, new.1)] {
                    self.state.set_pred(preg, value);
                    if performed && !preg.is_always_true() {
                        summary.pred_writes += 1;
                        sink.pred_write(&PredWriteEvent {
                            pc,
                            preg,
                            value,
                            index,
                            guard: inst.guard,
                            guard_value: guard,
                        });
                    }
                }
            }
            Op::Br { target, region } => {
                let conditional = !inst.guard.is_always_true();
                summary.branches += 1;
                if conditional {
                    summary.conditional_branches += 1;
                    if guard {
                        summary.taken_conditional += 1;
                    }
                }
                if region.is_some() {
                    summary.region_branches += 1;
                }
                if guard {
                    next_pc = target;
                }
                sink.branch(&BranchEvent {
                    pc,
                    target,
                    guard: inst.guard,
                    taken: guard,
                    conditional,
                    region,
                    index,
                });
            }
        }

        if !self.state.is_halted() {
            self.state.set_pc(next_pc);
        }
        true
    }

    /// Runs until `halt` or `max_instructions`, streaming events to
    /// `sink`.
    pub fn run(&mut self, sink: &mut impl EventSink, max_instructions: u64) -> RunSummary {
        let mut summary = RunSummary::default();
        while summary.instructions < max_instructions {
            if !self.step(sink, &mut summary) {
                break;
            }
        }
        summary.halted = self.state.is_halted();
        summary
    }

    /// Runs like [`Executor::run`] but accumulates events into `buffer`
    /// (a reusable scratch vector — contents are overwritten) and
    /// delivers them to `sink` via [`EventSink::events`], so a
    /// dynamically-dispatched sink pays one virtual call per batch
    /// instead of one per event.
    ///
    /// Every batch holds exactly [`EVENT_BATCH_CAPACITY`] events except
    /// a shorter, non-empty last one — the same split a trace replay
    /// makes, so a sink sees identical calls live and replayed.
    ///
    /// Events arrive in the same order with the same payloads as under
    /// [`Executor::run`], so a sink that counts fetch slots from event
    /// indices (a harness with a timeline attached) works on either.
    pub fn run_batched(
        &mut self,
        sink: &mut impl EventSink,
        max_instructions: u64,
        buffer: &mut Vec<Event>,
    ) -> RunSummary {
        buffer.clear();
        let mut summary = RunSummary::default();
        while self.fill_batch(buffer, max_instructions, &mut summary) {
            sink.events(&buffer[..EVENT_BATCH_CAPACITY]);
            // one step can emit several events: carry any overshoot
            // into the next batch
            buffer.drain(..EVENT_BATCH_CAPACITY);
        }
        if !buffer.is_empty() {
            sink.events(buffer);
            buffer.clear();
        }
        summary.halted = self.state.is_halted();
        summary
    }

    /// Steps until `buffer` holds a full batch (`true`) or the run
    /// stops (`false`). One instance serves every sink type, so the
    /// step loop compiles once, with [`Executor::step`] inlined.
    fn fill_batch(
        &mut self,
        buffer: &mut Vec<Event>,
        max_instructions: u64,
        summary: &mut RunSummary,
    ) -> bool {
        /// Adapter collecting step events into the batch buffer.
        struct Collector<'b>(&'b mut Vec<Event>);
        impl EventSink for Collector<'_> {
            fn branch(&mut self, event: &BranchEvent) {
                self.0.push(Event::Branch(*event));
            }
            fn pred_write(&mut self, event: &PredWriteEvent) {
                self.0.push(Event::PredWrite(*event));
            }
        }

        let mut collector = Collector(buffer);
        while summary.instructions < max_instructions && self.step(&mut collector, summary) {
            if collector.0.len() >= EVENT_BATCH_CAPACITY {
                return true;
            }
        }
        false
    }

    /// Convenience accessor: value of `r<i>`, for tests.
    pub fn reg(&self, r: Gpr) -> i64 {
        self.state.reg(r)
    }
}

/// Whether a parallel compare type fires (performs its write) for the
/// given relational result under a true guard.
fn fired(ctype: predbranch_isa::CmpType, result: bool) -> bool {
    use predbranch_isa::CmpType::*;
    match ctype {
        Norm | Unc => true,
        And => !result,
        Or | OrAndcm => result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NullSink, TraceSink};
    use predbranch_isa::{assemble, PredReg};

    fn run_asm(src: &str) -> (RunSummary, TraceSink, ArchState, Memory) {
        let program = assemble(src).expect("test programs assemble");
        let mut exec = Executor::new(&program, Memory::new());
        let mut trace = TraceSink::new();
        let summary = exec.run(&mut trace, 100_000);
        (summary, trace, exec.state.clone(), exec.memory.clone())
    }

    fn r(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    #[test]
    fn arithmetic_and_memory() {
        let (summary, _, state, memory) = run_asm(
            r#"
                mov r1 = 6
                mul r2 = r1, 7
                st [r0 + 10] = r2
                ld r3 = [r0 + 10]
                halt
            "#,
        );
        assert!(summary.halted);
        assert_eq!(state.reg(r(2)), 42);
        assert_eq!(state.reg(r(3)), 42);
        assert_eq!(memory.load(10), 42);
    }

    #[test]
    fn guarded_off_ops_have_no_effect() {
        let (_, _, state, memory) = run_asm(
            r#"
                mov r1 = 1
                cmp.eq p1, p2 = r1, 0      // p1=false, p2=true
                (p1) mov r2 = 99
                (p1) st [r0 + 5] = r1
                (p2) mov r3 = 7
                halt
            "#,
        );
        assert_eq!(state.reg(r(2)), 0);
        assert_eq!(memory.load(5), 0);
        assert_eq!(state.reg(r(3)), 7);
    }

    #[test]
    fn loop_executes_correct_count() {
        let (summary, trace, state, _) = run_asm(
            r#"
                mov r1 = 0
            loop:
                cmp.lt p1, p2 = r1, 10
                (p1) add r1 = r1, 1
                (p1) br loop
                halt
            "#,
        );
        assert!(summary.halted);
        assert_eq!(state.reg(r(1)), 10);
        // the loop branch executes 11 times: 10 taken + 1 not
        assert_eq!(summary.conditional_branches, 11);
        assert_eq!(summary.taken_conditional, 10);
        let outcomes: Vec<bool> = trace.branches().map(|b| b.taken).collect();
        assert_eq!(outcomes.len(), 11);
        assert!(!outcomes[10]);
    }

    #[test]
    fn branch_events_carry_guard_and_region() {
        let (_, trace, _, _) = run_asm(
            r#"
                cmp.eq p3, p4 = r0, r0
                (p4) br.region 9, end     // p4 false: not taken
                (p3) br.region 9, end     // p3 true: taken
                mov r1 = 1                // skipped
            end:
                halt
            "#,
        );
        let branches: Vec<_> = trace.branches().copied().collect();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].guard, PredReg::new(4).unwrap());
        assert!(!branches[0].taken);
        assert_eq!(branches[0].region, Some(9));
        assert!(branches[1].taken);
    }

    #[test]
    fn pred_write_events_for_norm_cmp() {
        let (_, trace, _, _) = run_asm(
            r#"
                mov r1 = 5
                cmp.gt p1, p2 = r1, 0
                halt
            "#,
        );
        let writes: Vec<_> = trace.pred_writes().copied().collect();
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].preg, PredReg::new(1).unwrap());
        assert!(writes[0].value);
        assert_eq!(writes[1].preg, PredReg::new(2).unwrap());
        assert!(!writes[1].value);
    }

    #[test]
    fn unc_under_false_guard_clears_and_reports() {
        let (_, trace, state, _) = run_asm(
            r#"
                cmp.ne p1, p2 = r0, r0       // p1=false, p2=true
                cmp.eq.or p3, p4 = r0, r0    // or fires: p3=p4=true
                (p1) cmp.eq.unc p3, p4 = r0, r0 // guard false: clears both
                halt
            "#,
        );
        assert!(!state.pred(PredReg::new(3).unwrap()));
        assert!(!state.pred(PredReg::new(4).unwrap()));
        let clearing: Vec<_> = trace.pred_writes().filter(|w| w.pc == 2).collect();
        assert_eq!(clearing.len(), 2);
        assert!(clearing.iter().all(|w| !w.value));
    }

    #[test]
    fn parallel_or_only_reports_when_it_fires() {
        let (_, trace, _, _) = run_asm(
            r#"
                mov r1 = 1
                cmp.eq.or p1, p2 = r1, 0   // result false: no write, no event
                cmp.eq.or p1, p2 = r1, 1   // fires: writes both true
                halt
            "#,
        );
        let by_pc: Vec<u32> = trace.pred_writes().map(|w| w.pc).collect();
        assert_eq!(by_pc, vec![2, 2]);
    }

    #[test]
    fn guarded_halt_respects_guard() {
        let (summary, _, state, _) = run_asm(
            r#"
                cmp.ne p1, p2 = r0, r0   // p1 = false
                (p1) halt                // skipped
                mov r1 = 3
                halt
            "#,
        );
        assert!(summary.halted);
        assert_eq!(state.reg(r(1)), 3);
    }

    #[test]
    fn falling_off_the_end_stops_without_halting() {
        // last instruction is a conditional branch that is not taken
        let program = assemble("cmp.ne p1, p2 = r0, r0\n (p1) br @0\n halt").unwrap();
        // rearrange: make a program whose guarded-final-instruction falls
        // through — assemble can't omit halt, so jump past it instead
        let program2 = assemble("br end\n halt\nend: (p1) br @1").unwrap();
        let _ = program;
        let mut exec = Executor::new(&program2, Memory::new());
        let summary = exec.run(&mut NullSink, 1_000);
        assert!(!summary.halted, "fell off the end: not a clean halt");
        assert_eq!(summary.instructions, 2);
    }

    #[test]
    fn instruction_budget_stops_runaway() {
        let program = assemble("loop: br loop\n halt").unwrap();
        let mut exec = Executor::new(&program, Memory::new());
        let summary = exec.run(&mut NullSink, 500);
        assert!(!summary.halted);
        assert_eq!(summary.instructions, 500);
    }

    #[test]
    fn dynamic_indices_are_fetch_order() {
        let (_, trace, _, _) = run_asm(
            r#"
                cmp.eq p1, p2 = r0, r0
                (p1) br skip
                mov r1 = 1
            skip:
                halt
            "#,
        );
        let idxs: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| match e {
                crate::trace::Event::Branch(b) => b.index,
                crate::trace::Event::PredWrite(w) => w.index,
            })
            .collect();
        // cmp at index 0 (two writes), branch at index 1
        assert_eq!(idxs, vec![0, 0, 1]);
    }

    #[test]
    fn run_batched_matches_run_event_for_event() {
        let src = r#"
            mov r1 = 0
        loop:
            cmp.lt p1, p2 = r1, 2000
            (p1) add r1 = r1, 1
            (p1) br.region 0, loop
            halt
        "#;
        let program = assemble(src).unwrap();
        let mut streamed = TraceSink::new();
        let streamed_summary = Executor::new(&program, Memory::new()).run(&mut streamed, 100_000);
        let mut batched = TraceSink::new();
        let mut buffer = Vec::new();
        let batched_summary =
            Executor::new(&program, Memory::new()).run_batched(&mut batched, 100_000, &mut buffer);
        assert_eq!(streamed_summary, batched_summary);
        assert_eq!(streamed.events(), batched.events());
        // enough events to exercise multiple flushes
        assert!(streamed.events().len() > super::EVENT_BATCH_CAPACITY);
    }

    #[test]
    fn run_batched_splits_like_chunks_of_the_stream() {
        /// Logs each batch's length.
        #[derive(Default)]
        struct Lengths(Vec<usize>);
        impl EventSink for Lengths {
            fn branch(&mut self, _event: &BranchEvent) {
                unreachable!("batches only")
            }
            fn pred_write(&mut self, _event: &PredWriteEvent) {
                unreachable!("batches only")
            }
            fn events(&mut self, events: &[Event]) {
                self.0.push(events.len());
            }
        }
        // three events per iteration: the batch boundary falls inside
        // a step's pair of predicate writes
        let program = assemble(
            "mov r1 = 0\nloop: cmp.lt p1, p2 = r1, 2000\n(p1) add r1 = r1, 1\n\
             (p1) br loop\nhalt",
        )
        .unwrap();
        let mut all = TraceSink::new();
        Executor::new(&program, Memory::new()).run(&mut all, 100_000);
        let expected: Vec<usize> = all
            .events()
            .chunks(super::EVENT_BATCH_CAPACITY)
            .map(<[Event]>::len)
            .collect();
        let mut lengths = Lengths::default();
        Executor::new(&program, Memory::new()).run_batched(&mut lengths, 100_000, &mut Vec::new());
        assert_eq!(lengths.0, expected);

        // an event-free run delivers no batch at all
        let mut none = Lengths::default();
        Executor::new(&assemble("halt").unwrap(), Memory::new()).run_batched(
            &mut none,
            10,
            &mut Vec::new(),
        );
        assert!(none.0.is_empty());
    }

    #[test]
    fn run_batched_respects_instruction_budget() {
        let program = assemble("loop: br loop\n halt").unwrap();
        let mut exec = Executor::new(&program, Memory::new());
        let mut buffer = Vec::new();
        let summary = exec.run_batched(&mut NullSink, 500, &mut buffer);
        assert!(!summary.halted);
        assert_eq!(summary.instructions, 500);
    }

    #[test]
    fn unconditional_branch_event_not_conditional() {
        let (_, trace, _, _) = run_asm("br end\n nop\nend: halt");
        let b = trace.branches().next().unwrap();
        assert!(!b.conditional);
        assert!(b.taken);
    }
}
