//! Dynamic events streamed by the executor.

/// One dynamic conditional-or-unconditional branch.
///
/// In this ISA a conditional branch `(qp) br target` is taken exactly
/// when its guard predicate is true, so `taken == guard value` for
/// conditional branches and `taken == true` for unconditional ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// Static location of the branch.
    pub pc: u32,
    /// Branch target.
    pub target: u32,
    /// Guard predicate register (`p0` for unconditional branches).
    pub guard: predbranch_isa::PredReg,
    /// Whether the branch was taken.
    pub taken: bool,
    /// Whether the branch is conditional (guard other than `p0`).
    pub conditional: bool,
    /// The if-converted region this branch belongs to, if it is a
    /// region-based branch.
    pub region: Option<u16>,
    /// Dynamic instruction index of the branch (fetch order).
    pub index: u64,
}

/// One dynamic predicate definition: a compare instruction wrote (or, for
/// `unc` under a false guard, cleared) a predicate register.
///
/// The executor emits one event per *architecturally written* non-`p0`
/// target: `norm`/`unc` compares under a true guard write both targets,
/// `unc` under a false guard clears both, and the parallel types
/// (`and`/`or`/`or.andcm`) only produce events for targets they actually
/// write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredWriteEvent {
    /// Static location of the defining compare.
    pub pc: u32,
    /// The written predicate register.
    pub preg: predbranch_isa::PredReg,
    /// The value written.
    pub value: bool,
    /// Dynamic instruction index of the compare.
    pub index: u64,
    /// The compare's own guard predicate.
    pub guard: predbranch_isa::PredReg,
    /// The architectural value of the compare's guard. `false` only for
    /// `unc`-type clears: such writes don't depend on the compare's data
    /// operands, so the front end can resolve them as soon as the *guard*
    /// is known — the chaining that lets the squash filter kill entire
    /// false paths (see [`crate::PredicateScoreboard::observe`]).
    pub guard_value: bool,
}

/// Any dynamic event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A branch executed.
    Branch(BranchEvent),
    /// A predicate was written.
    PredWrite(PredWriteEvent),
}

impl Event {
    /// Dynamic instruction index of the instruction that produced the
    /// event (fetch order).
    pub fn index(&self) -> u64 {
        match self {
            Event::Branch(b) => b.index,
            Event::PredWrite(p) => p.index,
        }
    }

    /// Static pc of the instruction that produced the event.
    pub fn pc(&self) -> u32 {
        match self {
            Event::Branch(b) => b.pc,
            Event::PredWrite(p) => p.pc,
        }
    }
}

/// A consumer of the executor's event stream.
///
/// Implementations update predictors, scoreboards, and metric counters as
/// execution proceeds; the executor never buffers events itself, so
/// arbitrarily long runs use constant memory.
pub trait EventSink {
    /// Called for every executed branch (conditional or not).
    fn branch(&mut self, event: &BranchEvent);

    /// Called for every architectural predicate write.
    fn pred_write(&mut self, event: &PredWriteEvent);

    /// Dispatches an already-materialized [`Event`] to the matching
    /// callback — the entry point replay drivers (trace readers,
    /// buffered [`TraceSink`] playback) use.
    fn event(&mut self, event: &Event) {
        match event {
            Event::Branch(b) => self.branch(b),
            Event::PredWrite(p) => self.pred_write(p),
        }
    }

    /// Delivers a batch of already-materialized events, in order.
    ///
    /// Semantically identical to calling [`EventSink::event`] on each
    /// element (which is exactly what the default does); batch-decoding
    /// producers ([`crate::Executor::run_batched`], trace replay) use
    /// this so the per-event virtual dispatch of a `&mut dyn EventSink`
    /// is paid once per chunk instead of once per event. Implementations
    /// overriding this must preserve the element-wise semantics.
    fn events(&mut self, events: &[Event]) {
        for event in events {
            self.event(event);
        }
    }
}

/// A sink that discards all events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    fn branch(&mut self, _event: &BranchEvent) {}
    fn pred_write(&mut self, _event: &PredWriteEvent) {}
}

/// A sink that records every event, for tests and inspection.
///
/// # Examples
///
/// ```
/// use predbranch_sim::{Event, TraceSink, EventSink};
///
/// let mut t = TraceSink::new();
/// assert!(t.events().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSink {
    events: Vec<Event>,
}

impl TraceSink {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// All recorded events in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Just the branch events, in order.
    pub fn branches(&self) -> impl Iterator<Item = &BranchEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::Branch(b) => Some(b),
            Event::PredWrite(_) => None,
        })
    }

    /// Just the predicate-write events, in order.
    pub fn pred_writes(&self) -> impl Iterator<Item = &PredWriteEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::PredWrite(p) => Some(p),
            Event::Branch(_) => None,
        })
    }
}

impl EventSink for TraceSink {
    fn branch(&mut self, event: &BranchEvent) {
        self.events.push(Event::Branch(*event));
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.events.push(Event::PredWrite(*event));
    }

    fn events(&mut self, events: &[Event]) {
        self.events.extend_from_slice(events);
    }
}

/// Sinks compose as tuples: `(a, b)` forwards every event to both.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn branch(&mut self, event: &BranchEvent) {
        self.0.branch(event);
        self.1.branch(event);
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.0.pred_write(event);
        self.1.pred_write(event);
    }

    fn event(&mut self, event: &Event) {
        self.0.event(event);
        self.1.event(event);
    }

    fn events(&mut self, events: &[Event]) {
        self.0.events(events);
        self.1.events(events);
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn branch(&mut self, event: &BranchEvent) {
        (**self).branch(event);
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        (**self).pred_write(event);
    }

    fn event(&mut self, event: &Event) {
        (**self).event(event);
    }

    fn events(&mut self, events: &[Event]) {
        (**self).events(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;

    fn branch(index: u64) -> BranchEvent {
        BranchEvent {
            pc: 1,
            target: 0,
            guard: PredReg::new(1).unwrap(),
            taken: true,
            conditional: true,
            region: None,
            index,
        }
    }

    fn write(index: u64) -> PredWriteEvent {
        PredWriteEvent {
            pc: 0,
            preg: PredReg::new(1).unwrap(),
            value: true,
            index,
            guard: PredReg::TRUE,
            guard_value: true,
        }
    }

    #[test]
    fn trace_records_in_order() {
        let mut t = TraceSink::new();
        t.pred_write(&write(0));
        t.branch(&branch(1));
        assert_eq!(t.events().len(), 2);
        assert!(matches!(t.events()[0], Event::PredWrite(_)));
        assert!(matches!(t.events()[1], Event::Branch(_)));
    }

    #[test]
    fn filtered_views() {
        let mut t = TraceSink::new();
        t.pred_write(&write(0));
        t.branch(&branch(1));
        t.pred_write(&write(2));
        assert_eq!(t.branches().count(), 1);
        assert_eq!(t.pred_writes().count(), 2);
    }

    #[test]
    fn tuple_sink_fans_out() {
        let mut pair = (TraceSink::new(), TraceSink::new());
        pair.branch(&branch(0));
        assert_eq!(pair.0.events().len(), 1);
        assert_eq!(pair.1.events().len(), 1);
    }

    #[test]
    fn mut_ref_sink_forwards() {
        fn feed<S: EventSink>(mut sink: S, event: &BranchEvent) {
            sink.branch(event);
        }
        let mut t = TraceSink::new();
        feed(&mut t, &branch(0));
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut n = NullSink;
        n.branch(&branch(0));
        n.pred_write(&write(1));
    }

    #[test]
    fn batched_delivery_matches_per_event() {
        let batch = [
            Event::PredWrite(write(0)),
            Event::Branch(branch(1)),
            Event::PredWrite(write(2)),
        ];
        // default implementation (per-event loop) through a sink that
        // only implements the required methods
        struct Plain(TraceSink);
        impl EventSink for Plain {
            fn branch(&mut self, event: &BranchEvent) {
                self.0.branch(event);
            }
            fn pred_write(&mut self, event: &PredWriteEvent) {
                self.0.pred_write(event);
            }
        }
        let mut plain = Plain(TraceSink::new());
        plain.events(&batch);
        // overridden implementations
        let mut fast = TraceSink::new();
        EventSink::events(&mut fast, &batch);
        let mut pair = (TraceSink::new(), TraceSink::new());
        pair.events(&batch);
        let mut via_ref = TraceSink::new();
        (&mut via_ref as &mut dyn EventSink).events(&batch);
        for sink in [&plain.0, &fast, &pair.0, &pair.1, &via_ref] {
            assert_eq!(sink.events(), &batch);
        }
    }
}
