//! Drives a predictor from the simulator's event stream through an
//! in-flight branch window (predict → speculate → commit/squash).

use predbranch_sim::{
    BranchEvent, Event, EventSink, FetchTimeline, PipelineConfig, PredWriteEvent,
    PredicateScoreboard, RunSummary, DEFAULT_RESOLVE_LATENCY, DEFAULT_RETIRE_LATENCY,
};

use crate::filter::{InsertFilter, LoweredFilter};
use crate::predictor::{BranchInfo, BranchPredictor, PredictionMetrics, PredictorVisitor};
use crate::ring::{Ring, WINDOW_CAPACITY};

/// Update-timing knobs of the prediction pathway.
///
/// `resolve_latency` governs when *predicate values* become visible to
/// the fetch stage (the scoreboard); `retire_latency` governs when
/// *branch outcomes* train the predictor (the in-flight window). The two
/// model the paper's "when does information arrive" question on both of
/// its axes.
///
/// # Examples
///
/// ```
/// use predbranch_core::Timing;
///
/// let t = Timing::default();
/// assert_eq!(t.resolve_latency, predbranch_sim::DEFAULT_RESOLVE_LATENCY);
/// assert_eq!(t.retire_latency, predbranch_sim::DEFAULT_RETIRE_LATENCY);
/// assert_eq!(Timing::immediate(8).retire_latency, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timing {
    /// Scoreboard resolve latency in fetch slots (see
    /// [`PredicateScoreboard`]).
    pub resolve_latency: u64,
    /// Fetch slots between a branch's fetch and the commit that trains
    /// the predictor with its outcome. `0` reproduces the idealized
    /// immediate-update methodology exactly (every branch commits before
    /// the next event).
    pub retire_latency: u64,
}

impl Timing {
    /// Both knobs explicit.
    pub fn new(resolve_latency: u64, retire_latency: u64) -> Self {
        Timing {
            resolve_latency,
            retire_latency,
        }
    }

    /// Idealized immediate update (`retire_latency = 0`) at the given
    /// resolve latency.
    pub fn immediate(resolve_latency: u64) -> Self {
        Timing::new(resolve_latency, 0)
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::new(DEFAULT_RESOLVE_LATENCY, DEFAULT_RETIRE_LATENCY)
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Update-timing knobs (resolve and retire latencies).
    pub timing: Timing,
    /// Which predicate definitions reach the predictor.
    pub insert: InsertFilter,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            timing: Timing::default(),
            insert: InsertFilter::All,
        }
    }
}

/// A conditional branch as a lane sees it: the fetch-time view, guard
/// knowledge included, and the resolved direction.
#[derive(Debug, Clone, Copy)]
struct FetchedBranch {
    info: BranchInfo,
    taken: bool,
}

impl FetchedBranch {
    /// Resolves `event` against the scoreboard as it stands at the
    /// branch's fetch.
    #[inline]
    fn new(event: &BranchEvent, scoreboard: &PredicateScoreboard) -> Self {
        FetchedBranch {
            info: BranchInfo::from_event(event, scoreboard),
            taken: event.taken,
        }
    }
}

/// One batch as a gang's lanes see it: its events, and its conditional
/// branches resolved once against the gang's scoreboard.
#[derive(Debug, Clone, Copy)]
struct ResolvedBatch<'a> {
    events: &'a [Event],
    /// The batch's conditional branches, in stream order.
    branches: &'a [FetchedBranch],
}

/// A conditional branch in flight between fetch and retire.
#[derive(Debug, Clone, Copy)]
struct InFlightBranch {
    branch: FetchedBranch,
    predicted: bool,
}

/// One prediction lane: a predictor stack and the state that drives it.
#[derive(Debug)]
struct Lane<P> {
    predictor: P,
    state: LaneState,
}

impl<P: BranchPredictor> Lane<P> {
    fn new(predictor: P, config: &HarnessConfig) -> Self {
        let insert = config.insert.lower();
        let listens = predictor.wants_pred_writes() && insert != LoweredFilter::None;
        Lane {
            predictor,
            state: LaneState {
                insert,
                listens,
                metrics: PredictionMetrics::default(),
                retire_latency: config.timing.retire_latency,
                window: Ring::new(),
                flush_pending: false,
            },
        }
    }

    /// Runs one resolved batch with a single dispatch: the predictor
    /// accepts the whole loop as a visitor, so an enum stack picks its
    /// variant once per batch and the loop runs against the variant's
    /// concrete type.
    fn run(&mut self, batch: ResolvedBatch) {
        let state = &mut self.state;
        if state.listens {
            self.predictor.accept(BatchRun::<true> { state, batch });
        } else {
            self.predictor.accept(BatchRun::<false> { state, batch });
        }
    }

    /// Retires every still-in-flight branch.
    fn finish(&mut self) {
        self.state.flush_window(&mut self.predictor);
    }
}

/// Everything a lane owns besides its predictor: the lowered insert
/// filter, metrics, and the in-flight branch window. Its methods take
/// the predictor as an argument, so they run against whatever concrete
/// type a [`BatchRun`] visit hands them. The lane counts only its own
/// mispredictions; the harness counts what every lane over the stream
/// shares (see [`PredictionMetrics::with_stream`]).
///
/// The predicate scoreboard is not lane state. The one fact a lane
/// needs from it, each branch's guard knowledge at fetch, arrives
/// resolved in [`BranchInfo::guard_knowledge`]. A [`PredictionHarness`]
/// resolves branches one at a time against its own scoreboard; a
/// [`GangHarness`] resolves each batch once for all of its lanes.
#[derive(Debug)]
struct LaneState {
    /// The configured [`InsertFilter`], lowered at construction to a
    /// sorted-slice form so the per-write check needs no hashing.
    insert: LoweredFilter,
    /// Whether a predicate write can reach the predictor: it wants
    /// writes and the insert filter passes some. A gang delivers writes
    /// only to listening lanes.
    listens: bool,
    metrics: PredictionMetrics,
    retire_latency: u64,
    window: Ring<InFlightBranch, WINDOW_CAPACITY>,
    flush_pending: bool,
}

impl LaneState {
    /// Retires the oldest in-flight branch: `squash` (on a
    /// misprediction) then `commit`.
    fn retire_front<P: BranchPredictor>(&mut self, predictor: &mut P) {
        if let Some(InFlightBranch { branch, predicted }) = self.window.pop_front() {
            if predicted != branch.taken {
                predictor.squash(&branch.info, branch.taken);
            }
            predictor.commit(&branch.info, branch.taken);
        }
    }

    /// Retires the whole window: after a misprediction (the pipeline
    /// flush that resolves the mispredicted branch) and at the end of
    /// the stream.
    #[cold]
    fn flush_window<P: BranchPredictor>(&mut self, predictor: &mut P) {
        while !self.window.is_empty() {
            self.retire_front(predictor);
        }
        self.flush_pending = false;
    }

    /// Retires every branch whose retire latency has elapsed by
    /// `fetch_index` — or the whole window if a misprediction flush is
    /// pending.
    #[inline]
    fn drain_ready<P: BranchPredictor>(&mut self, predictor: &mut P, fetch_index: u64) {
        if self.flush_pending {
            self.flush_window(predictor);
            return;
        }
        while let Some(entry) = self.window.front() {
            if entry.branch.info.index + self.retire_latency > fetch_index {
                break;
            }
            self.retire_front(predictor);
        }
    }

    /// Processes a conditional branch and returns whether it was
    /// predicted correctly.
    #[inline]
    fn branch<P: BranchPredictor>(&mut self, predictor: &mut P, branch: &FetchedBranch) -> bool {
        let info = &branch.info;
        if self.retire_latency != 0 {
            self.drain_ready(predictor, info.index);
        }
        let predicted = predictor.predict(info);
        let correct = predicted == branch.taken;
        if !correct {
            self.metrics.count_miss(info);
        }

        predictor.speculate(info, predicted);
        if self.retire_latency == 0 {
            // Immediate-update fast path: with retire latency 0 the
            // branch would be drained by the very next event (indices
            // are strictly increasing), so the window never holds an
            // entry between events. Retiring inline — squash (on a
            // misprediction) then commit, exactly what `drain_ready`
            // would do — produces the identical predictor call
            // sequence while skipping all window bookkeeping (pinned
            // by the window_props suite at retire 0).
            if !correct {
                predictor.squash(info, branch.taken);
            }
            predictor.commit(info, branch.taken);
            return correct;
        }
        if self.window.len() >= WINDOW_CAPACITY {
            // bounded reorder buffer: make room by retiring the oldest
            self.retire_front(predictor);
        }
        self.window.push_back(InFlightBranch {
            branch: *branch,
            predicted,
        });
        if !correct {
            self.flush_pending = true;
        }
        correct
    }

    /// Processes a predicate write: retires what is ready by the write's
    /// index, then hands the write to the predictor if the insert filter
    /// passes it. At retire 0 the window is provably empty (branches
    /// retire inline), so there is nothing to drain.
    #[inline]
    fn pred_write<P: BranchPredictor>(&mut self, predictor: &mut P, write: &PredWriteEvent) {
        if self.retire_latency != 0 {
            self.drain_ready(predictor, write.index);
        }
        if self.insert.passes(write) {
            predictor.on_pred_write(write);
        }
    }

    /// Runs a resolved batch's branches and skips its writes, for a lane
    /// that does not listen. Skipping is exact at any retire latency:
    /// the predictor ignores the write itself, and the drain the write
    /// would trigger retires only branches that the next branch's drain
    /// (or the final flush) retires anyway, in the same order and before
    /// the next `predict`.
    fn run_branches<P: BranchPredictor>(&mut self, predictor: &mut P, batch: ResolvedBatch) {
        for branch in batch.branches {
            self.branch(predictor, branch);
        }
    }

    /// Runs a resolved batch's branches and writes in stream order, for
    /// a listening lane.
    fn run_listening<P: BranchPredictor>(&mut self, predictor: &mut P, batch: ResolvedBatch) {
        let mut branches = batch.branches.iter();
        for event in batch.events {
            match event {
                Event::Branch(branch) if branch.conditional => {
                    let branch = branches
                        .next()
                        .expect("one resolved branch per conditional branch");
                    self.branch(predictor, branch);
                }
                Event::Branch(_) => {}
                Event::PredWrite(write) => self.pred_write(predictor, write),
            }
        }
    }
}

/// A lane's run over one resolved batch, handed to the lane's predictor
/// through [`BranchPredictor::accept`]; `LISTENS` picks whether the run
/// delivers the batch's writes.
struct BatchRun<'a, const LISTENS: bool> {
    state: &'a mut LaneState,
    batch: ResolvedBatch<'a>,
}

impl<const LISTENS: bool> PredictorVisitor for BatchRun<'_, LISTENS> {
    type Output = ();

    fn visit<P: BranchPredictor>(self, predictor: &mut P) {
        if LISTENS {
            self.state.run_listening(predictor, self.batch);
        } else {
            self.state.run_branches(predictor, self.batch);
        }
    }
}

/// An [`EventSink`] that runs the full prediction methodology around an
/// in-flight branch window: for each conditional branch, query the
/// predictor at fetch (with its guard's scoreboard knowledge at that
/// point), let it speculate on its own prediction, and enqueue the
/// branch in a bounded reorder buffer. The branch's outcome trains the
/// predictor (`commit`, preceded by `squash` on a misprediction) only
/// once [`Timing::retire_latency`] fetch slots have passed — with
/// latency 0 every branch retires before the next event, which is the
/// idealized immediate-update methodology, bit for bit. Predicate
/// definitions update the scoreboard and (subject to the
/// [`InsertFilter`]) the predictor.
///
/// A misprediction flushes the window: all in-flight branches retire
/// before the next event is processed, modelling the pipeline flush that
/// resolves the mispredicted branch (everything after it in the trace is
/// fetched post-recovery). Because a mispredicted branch is therefore
/// always the youngest in-flight branch when it retires, the predictor's
/// oldest outstanding checkpoint at `squash` time is the squashed
/// branch's own.
///
/// The harness takes events one at a time and hands every predicate
/// write to its lane, whether or not the predictor wants writes, so it
/// is the reference a [`GangHarness`] is checked against.
///
/// Call [`PredictionHarness::finish`] (or [`PredictionHarness::into_parts`],
/// which does it for you) after the event stream ends to retire the last
/// in-flight branches.
///
/// Unconditional branches are not predicted (their direction is static).
#[derive(Debug)]
pub struct PredictionHarness<P> {
    scoreboard: PredicateScoreboard,
    lane: Lane<P>,
    timeline: Option<FetchTimeline>,
}

impl<P: BranchPredictor> PredictionHarness<P> {
    /// Creates a harness around `predictor`.
    pub fn new(predictor: P, config: HarnessConfig) -> Self {
        PredictionHarness {
            scoreboard: PredicateScoreboard::new(config.timing.resolve_latency),
            lane: Lane::new(predictor, &config),
            timeline: None,
        }
    }

    /// Attaches a cycle-level [`FetchTimeline`]: each branch accounts
    /// the fetch slots up to and including its own from its dynamic
    /// index, then its taken-branch fragment or misprediction flush,
    /// giving event-driven cycle counts (see
    /// [`PredictionHarness::timeline`]).
    pub fn with_timeline(mut self, pipeline: PipelineConfig) -> Self {
        self.timeline = Some(FetchTimeline::new(pipeline));
        self
    }

    /// The attached fetch timeline, if any, closed at the end of the run
    /// `summary` describes: the instructions after the last branch take
    /// their fetch slots too.
    pub fn timeline(&self, summary: &RunSummary) -> Option<FetchTimeline> {
        self.timeline.map(|mut timeline| {
            timeline.fetch_to(summary.instructions);
            timeline
        })
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &PredictionMetrics {
        &self.lane.state.metrics
    }

    /// The driven predictor.
    pub fn predictor(&self) -> &P {
        &self.lane.predictor
    }

    /// Retires all still-in-flight branches. Call once the event stream
    /// ends; without it the tail of the run never trains the predictor.
    pub fn finish(&mut self) {
        self.lane.finish();
    }

    /// Number of branches currently in flight (fetched, not yet
    /// retired).
    pub fn in_flight(&self) -> usize {
        self.lane.state.window.len()
    }

    /// Consumes the harness, returning predictor and metrics. Retires
    /// any still-in-flight branches first.
    pub fn into_parts(mut self) -> (P, PredictionMetrics) {
        self.finish();
        (self.lane.predictor, self.lane.state.metrics)
    }

    /// Drives the harness from a buffered event stream — the
    /// replay-driven counterpart of attaching it to a live
    /// [`predbranch_sim::Executor`] run. An event stream captured once
    /// (via [`predbranch_sim::TraceSink`] or a decoded trace file) can
    /// be fed to any number of harnesses, and yields metrics identical
    /// to live execution because prediction depends only on the branch
    /// and predicate-write events.
    pub fn replay_events<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) {
        for event in events {
            self.event(event);
        }
    }
}

/// A bank of independent prediction lanes fed by **one** event stream:
/// the gang-replay counterpart of [`PredictionHarness`]. Where a sweep
/// previously replayed the same decoded events once per predictor
/// configuration, a `GangHarness` owns `N` lanes — each with its own
/// predictor stack, in-flight window, insert filter, and metrics — plus
/// **one** predicate scoreboard shared by every lane.
///
/// The scoreboard can be shared because its state is a pure function of
/// the event stream and the resolve latency: every lane of a dedicated
/// per-cell pass would build the identical scoreboard. The price is that
/// all lanes of one gang must use the same resolve latency
/// ([`GangHarness::push_lane`] asserts this); retire latency and insert
/// filter remain free per lane. The sweep runner groups cells into gang
/// units by (stream, resolve latency), so the constraint is invisible
/// there, and cells that differ only in retire latency share one pass.
///
/// # Lane-major delivery
///
/// [`EventSink::events`] takes a batch in two steps. First the gang
/// advances the scoreboard over the whole batch once, turning each
/// conditional branch into a [`BranchInfo`] that carries its guard's
/// knowledge at fetch, and counting once what every lane shares:
/// branches per class, known-false fetches and predicate writes. Then
/// each lane, which counts only its own mispredictions, runs over the
/// whole batch with one dispatch (see [`BranchPredictor::accept`]). A
/// lane whose predictor wants
/// predicate writes ([`BranchPredictor::wants_pred_writes`]) and whose
/// insert filter passes some sees the batch's events in stream order;
/// every other lane sees only its branches, which is exact because such
/// a predictor ignores writes and every drain a write would trigger is
/// repeated by the next branch. Single-event delivery
/// ([`EventSink::branch`], [`EventSink::pred_write`]) is a batch of one.
///
/// # Determinism contract
///
/// Lanes share no state — the scoreboard is read only to resolve guard
/// knowledge, which is what a solo pass reads at each branch — so every
/// lane's metrics and final predictor state are byte-for-byte what a
/// dedicated [`PredictionHarness`] pass over the same stream produces.
///
/// A gang carries no [`FetchTimeline`]: F8, the one experiment that
/// times fetch, runs one [`PredictionHarness`] with a timeline per
/// configuration.
///
/// # Examples
///
/// ```
/// use predbranch_core::{BranchPredictor, GangHarness, Gshare, HarnessConfig, StaticPredictor};
///
/// let mut gang: GangHarness<Box<dyn BranchPredictor>> = GangHarness::new();
/// gang.push_lane(Box::new(Gshare::new(10, 10)), HarnessConfig::default());
/// gang.push_lane(Box::new(StaticPredictor::Taken), HarnessConfig::default());
/// assert_eq!(gang.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GangHarness<P> {
    /// Shared by all lanes; created by the first
    /// [`GangHarness::push_lane`].
    scoreboard: Option<PredicateScoreboard>,
    lanes: Vec<Lane<P>>,
    /// The current batch's conditional branches, resolved once for
    /// every lane; the buffer is reused from batch to batch.
    branches: Vec<FetchedBranch>,
    /// The counts every lane shares (branches per class, known-false
    /// fetches, predicate writes), kept once for all of them.
    stream: PredictionMetrics,
}

impl<P: BranchPredictor> GangHarness<P> {
    /// Creates an empty gang. Push lanes with
    /// [`GangHarness::push_lane`] before replaying.
    pub fn new() -> Self {
        GangHarness {
            scoreboard: None,
            lanes: Vec::new(),
            branches: Vec::new(),
            stream: PredictionMetrics::default(),
        }
    }

    /// Appends a lane around `predictor` with its own retire latency
    /// and insert filter. The first lane's resolve latency creates the
    /// gang's shared scoreboard; every subsequent lane must use the
    /// same resolve latency.
    ///
    /// # Panics
    ///
    /// Panics if `config.timing.resolve_latency` differs from the
    /// first lane's.
    pub fn push_lane(&mut self, predictor: P, config: HarnessConfig) {
        let resolve = config.timing.resolve_latency;
        match &self.scoreboard {
            None => self.scoreboard = Some(PredicateScoreboard::new(resolve)),
            Some(sb) => assert_eq!(
                sb.resolve_latency(),
                resolve,
                "gang lanes share one predicate scoreboard: every lane \
                 must use the same resolve latency"
            ),
        }
        self.lanes.push(Lane::new(predictor, &config));
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the gang has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Retires every lane's still-in-flight branches. Call once the
    /// event stream ends (consuming accessors do it for you).
    pub fn finish(&mut self) {
        for lane in &mut self.lanes {
            lane.finish();
        }
    }

    /// Consumes the gang, returning one [`PredictionHarness`] per lane
    /// (tails retired). Each harness carries a copy of the shared
    /// scoreboard and the gang's write count — the state a dedicated
    /// pass would have built — so the result is indistinguishable from
    /// `N` solo passes.
    pub fn into_lanes(mut self) -> Vec<PredictionHarness<P>> {
        self.finish();
        let scoreboard = self
            .scoreboard
            .unwrap_or_else(|| PredicateScoreboard::new(DEFAULT_RESOLVE_LATENCY));
        let stream = self.stream;
        self.lanes
            .into_iter()
            .map(|mut lane| {
                lane.state.metrics = lane.state.metrics.with_stream(&stream);
                PredictionHarness {
                    scoreboard: scoreboard.clone(),
                    lane,
                    timeline: None,
                }
            })
            .collect()
    }

    /// Consumes the gang, returning per-lane metrics in lane order
    /// (tails retired).
    pub fn into_metrics(mut self) -> Vec<PredictionMetrics> {
        self.finish();
        let stream = self.stream;
        self.lanes
            .into_iter()
            .map(|lane| lane.state.metrics.with_stream(&stream))
            .collect()
    }
}

impl<P: BranchPredictor> EventSink for GangHarness<P> {
    fn branch(&mut self, event: &BranchEvent) {
        self.events(&[Event::Branch(*event)]);
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.events(&[Event::PredWrite(*event)]);
    }

    fn events(&mut self, events: &[Event]) {
        let Some(scoreboard) = &mut self.scoreboard else {
            return; // no lanes
        };
        // Resolve the batch once, in stream order: each conditional
        // branch reads its guard before any later write is observed.
        self.branches.clear();
        for event in events {
            match event {
                Event::Branch(branch) if branch.conditional => {
                    let branch = FetchedBranch::new(branch, scoreboard);
                    self.stream.count_fetch(&branch.info);
                    self.branches.push(branch);
                }
                Event::Branch(_) => {}
                Event::PredWrite(write) => {
                    scoreboard.observe(write);
                    self.stream.pred_writes.increment();
                }
            }
        }
        let batch = ResolvedBatch {
            events,
            branches: &self.branches,
        };
        for lane in &mut self.lanes {
            lane.run(batch);
        }
    }
}

impl<P: BranchPredictor> EventSink for PredictionHarness<P> {
    fn branch(&mut self, event: &BranchEvent) {
        if let Some(timeline) = &mut self.timeline {
            timeline.fetch_to(event.index + 1);
        }
        if !event.conditional {
            // unconditional branches are not predicted, but a taken
            // branch still fragments fetch
            if let Some(timeline) = &mut self.timeline {
                timeline.taken_branch();
            }
            return;
        }
        let branch = FetchedBranch::new(event, &self.scoreboard);
        self.lane.state.metrics.count_fetch(&branch.info);
        let correct = self.lane.state.branch(&mut self.lane.predictor, &branch);
        if let Some(timeline) = &mut self.timeline {
            if !correct {
                timeline.mispredict();
            } else if event.taken {
                timeline.taken_branch();
            }
        }
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.lane.state.metrics.pred_writes.increment();
        self.lane.state.pred_write(&mut self.lane.predictor, event);
        self.scoreboard.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gshare::Gshare;
    use crate::oracle::PerfectGuard;
    use crate::pgu::Pgu;
    use crate::predictor::StaticPredictor;
    use crate::sfpf::SquashFilter;
    use predbranch_isa::assemble;
    use predbranch_sim::{Executor, Memory, RunSummary};

    const LOOP: &str = r#"
        mov r1 = 0
    loop:
        cmp.lt p1, p2 = r1, 50
        (p1) add r1 = r1, 1
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        (p1) br.region 0, loop
        halt
    "#;

    fn run<P: BranchPredictor>(
        src: &str,
        predictor: P,
        config: HarnessConfig,
    ) -> (PredictionMetrics, RunSummary) {
        let program = assemble(src).unwrap();
        let mut harness = PredictionHarness::new(predictor, config);
        let summary = Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
        (*harness.metrics(), summary)
    }

    #[test]
    fn static_not_taken_mispredicts_loop_body() {
        let (m, _) = run(LOOP, StaticPredictor::NotTaken, HarnessConfig::default());
        assert_eq!(m.all.branches.get(), 51);
        assert_eq!(m.all.mispredictions.get(), 50);
        assert_eq!(m.region.branches.get(), 51);
        assert_eq!(m.non_region.branches.get(), 0);
    }

    #[test]
    fn sfpf_catches_known_false_final_iteration() {
        // def-to-branch distance is 10; with latency <= 10 the final
        // (not-taken) branch is fetched with p1 known false
        let config = HarnessConfig {
            timing: Timing::immediate(10),
            insert: InsertFilter::All,
        };
        let (m, _) = run(LOOP, SquashFilter::new(StaticPredictor::Taken), config);
        assert_eq!(m.known_false_guard.get(), 1);
        assert_eq!(m.known_false_mispredicted.get(), 0);
        // the other 50 fetches predict taken (correct)
        assert_eq!(m.all.mispredictions.get(), 0);
    }

    #[test]
    fn unresolved_guards_bypass_filter() {
        let config = HarnessConfig {
            timing: Timing::immediate(11),
            insert: InsertFilter::All,
        };
        let (m, _) = run(LOOP, SquashFilter::new(StaticPredictor::Taken), config);
        assert_eq!(m.known_false_guard.get(), 0);
        // static-taken now mispredicts the final iteration
        assert_eq!(m.all.mispredictions.get(), 1);
    }

    #[test]
    fn insert_filter_none_starves_pgu() {
        let config = HarnessConfig {
            timing: Timing::immediate(64),
            insert: InsertFilter::None,
        };
        let program = assemble(LOOP).unwrap();
        let mut harness = PredictionHarness::new(Pgu::new(Gshare::new(10, 10)), config);
        Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
        assert_eq!(harness.predictor().inserted_count(), 0);
        assert!(harness.metrics().pred_writes.get() > 0);
    }

    #[test]
    fn insert_filter_pcs_selects_compares() {
        let program = assemble(LOOP).unwrap();
        let pcs = crate::filter::guard_def_pcs(&program);
        // only the loop compare defines a branch guard
        assert_eq!(pcs.len(), 1);
        let config = HarnessConfig {
            timing: Timing::immediate(64),
            insert: InsertFilter::Pcs(pcs),
        };
        let mut harness = PredictionHarness::new(Pgu::new(Gshare::new(10, 10)), config);
        Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
        // 51 iterations × both targets of the cmp (p1 and p2)
        assert_eq!(harness.predictor().inserted_count(), 102);
    }

    #[test]
    fn timeline_counts_cycles_and_flushes() {
        let program = assemble(LOOP).unwrap();
        let run_with = |predictor_taken: bool| -> (u64, u64) {
            let predictor = if predictor_taken {
                StaticPredictor::Taken
            } else {
                StaticPredictor::NotTaken
            };
            let mut harness = PredictionHarness::new(
                predictor,
                HarnessConfig {
                    timing: Timing::immediate(64), // keep the filter out of it
                    insert: InsertFilter::All,
                },
            )
            .with_timeline(predbranch_sim::PipelineConfig::default());
            let summary = Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
            assert!(summary.halted);
            let timeline = harness.timeline(&summary).unwrap();
            assert_eq!(timeline.instructions(), summary.instructions);
            (
                timeline.cycles(),
                harness.metrics().all.mispredictions.get(),
            )
        };
        // static-taken mispredicts once (final exit); static-not-taken
        // mispredicts 50 times: cycle counts must order accordingly
        let (cycles_good, misp_good) = run_with(true);
        let (cycles_bad, misp_bad) = run_with(false);
        assert!(misp_good < misp_bad);
        assert!(cycles_good < cycles_bad, "{cycles_good} !< {cycles_bad}");
    }

    #[test]
    fn retire_latency_delays_training() {
        // With a huge retire latency and no mispredictions... gshare
        // cannot mispredict-free: use static predictors to isolate the
        // window. A gshare run at retire 1000 never commits mid-run, so
        // its counters only move when `finish` drains the window.
        let program = assemble(LOOP).unwrap();
        let config = HarnessConfig {
            timing: Timing::new(64, 1_000_000),
            insert: InsertFilter::None,
        };
        let mut harness = PredictionHarness::new(Gshare::new(10, 10), config);
        Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
        // 51 fetches, every one still in flight...except the window
        // flushes on each misprediction. The loop mispredicts during
        // warmup, so some branches have retired; the invariant that
        // matters is that the tail is still pending until finish().
        assert!(harness.in_flight() > 0, "tail branches still in flight");
        harness.finish();
        assert_eq!(harness.in_flight(), 0);
    }

    #[test]
    fn retire_zero_matches_immediate_update_exactly() {
        // The migration safety net in miniature: the windowed harness at
        // retire 0 must leave the predictor in the same state as the old
        // idealized predict-then-update loop.
        let program = assemble(LOOP).unwrap();
        let config = HarnessConfig {
            timing: Timing::immediate(8),
            insert: InsertFilter::All,
        };
        let mut harness = PredictionHarness::new(Gshare::new(10, 10), config);
        Executor::new(&program, Memory::new()).run(&mut harness, 1_000_000);
        let (windowed, metrics) = harness.into_parts();

        // reference: drive predict/update by hand from a recorded trace
        let mut trace = predbranch_sim::TraceSink::new();
        Executor::new(&program, Memory::new()).run(&mut trace, 1_000_000);
        let mut reference = Gshare::new(10, 10);
        let mut sb = PredicateScoreboard::new(8);
        let mut mispredictions = 0u64;
        for event in trace.events() {
            match event {
                Event::Branch(b) if b.conditional => {
                    let info = BranchInfo::from_event(b, &sb);
                    if reference.predict(&info) != b.taken {
                        mispredictions += 1;
                    }
                    reference.update(&info, b.taken);
                }
                Event::PredWrite(w) => {
                    sb.observe(w);
                }
                _ => {}
            }
        }
        assert_eq!(windowed, reference, "predictor state must match");
        assert_eq!(metrics.all.mispredictions.get(), mispredictions);
    }

    #[test]
    fn gang_lanes_match_sequential_per_lane_passes() {
        // Four heterogeneous lanes over one recorded stream must end in
        // exactly the state four dedicated harness passes produce —
        // metrics AND predictor tables. Lanes share the gang's resolve
        // latency (one scoreboard); retire latency and insert filter
        // vary per lane.
        let program = assemble(LOOP).unwrap();
        let mut trace = predbranch_sim::TraceSink::new();
        Executor::new(&program, Memory::new()).run(&mut trace, 1_000_000);
        let events: Vec<Event> = trace.events().to_vec();

        let configs = [
            (Timing::immediate(8), InsertFilter::All),
            (Timing::new(8, 8), InsertFilter::All),
            (Timing::new(8, 0), InsertFilter::None),
            (Timing::new(8, 3), InsertFilter::All),
        ];
        let build = |i: usize| Gshare::new(8 + i as u32, 8 + i as u32);

        let mut gang = GangHarness::new();
        for (i, (timing, insert)) in configs.iter().enumerate() {
            gang.push_lane(
                build(i),
                HarnessConfig {
                    timing: *timing,
                    insert: insert.clone(),
                },
            );
        }
        // deliver in EVENT_BATCH_CAPACITY-sized chunks like replay does
        for chunk in events.chunks(predbranch_sim::EVENT_BATCH_CAPACITY) {
            gang.events(chunk);
        }
        let lanes = gang.into_lanes();

        for (i, (timing, insert)) in configs.iter().enumerate() {
            let mut solo = PredictionHarness::new(
                build(i),
                HarnessConfig {
                    timing: *timing,
                    insert: insert.clone(),
                },
            );
            solo.replay_events(&events);
            let (reference, metrics) = solo.into_parts();
            assert_eq!(*lanes[i].metrics(), metrics, "lane {i} metrics");
            assert_eq!(*lanes[i].predictor(), reference, "lane {i} predictor state");
        }
    }

    /// The lane shapes the batch-boundary test mixes in one gang, behind
    /// one enum that hands its payload to visitors the way the modern
    /// tier's stack does.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Mixed {
        Gshare(Gshare),
        Sfpf(SquashFilter<Gshare>),
        Pgu(Pgu<Gshare>),
        Oracle(Box<PerfectGuard>),
    }

    macro_rules! mixed {
        ($self:expr, $p:ident => $body:expr) => {
            match $self {
                Mixed::Gshare($p) => $body,
                Mixed::Sfpf($p) => $body,
                Mixed::Pgu($p) => $body,
                Mixed::Oracle($p) => $body,
            }
        };
    }

    impl BranchPredictor for Mixed {
        fn name(&self) -> String {
            mixed!(self, p => p.name())
        }
        fn predict(&mut self, branch: &BranchInfo) -> bool {
            mixed!(self, p => p.predict(branch))
        }
        fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
            mixed!(self, p => p.speculate(branch, predicted))
        }
        fn commit(&mut self, branch: &BranchInfo, taken: bool) {
            mixed!(self, p => p.commit(branch, taken))
        }
        fn squash(&mut self, branch: &BranchInfo, taken: bool) {
            mixed!(self, p => p.squash(branch, taken))
        }
        fn on_pred_write(&mut self, write: &PredWriteEvent) {
            mixed!(self, p => p.on_pred_write(write))
        }
        fn wants_pred_writes(&self) -> bool {
            mixed!(self, p => p.wants_pred_writes())
        }
        fn storage_bits(&self) -> usize {
            mixed!(self, p => p.storage_bits())
        }
        fn accept<V: PredictorVisitor>(&mut self, visitor: V) -> V::Output {
            mixed!(self, p => visitor.visit(p))
        }
    }

    /// Three guarded branches per trip over 400 trips: 3,600 events, so
    /// 1024-event batches end mid-stream, and every trip's predicate
    /// writes precede its branches by fewer slots than PGU's delay of 8
    /// at some batch boundary.
    const TRIPS: &str = r#"
            mov r1 = 0
        loop:
            and r2 = r1, 3
            cmp.eq p3, p4 = r2, 0
            add r1 = r1, 1
            cmp.lt p1, p2 = r1, 400
            nop
            nop
            (p3) br.region 0, skip
            (p4) add r5 = r5, 1
        skip:
            cmp.gt p6, p7 = r2, 1
            (p6) br.region 2, next
            nop
        next:
            (p1) br.region 1, loop
            halt
    "#;

    #[test]
    fn gang_per_event_and_batched_delivery_agree() {
        let program = assemble(TRIPS).unwrap();
        let mut trace = predbranch_sim::TraceSink::new();
        Executor::new(&program, Memory::new()).run(&mut trace, 1_000_000);
        let events: Vec<Event> = trace.events().to_vec();
        assert!(events.len() > 3 * predbranch_sim::EVENT_BATCH_CAPACITY);

        let pgu = || Pgu::new(Gshare::new(10, 10)).with_delay(8);
        let config = |retire, insert| HarnessConfig {
            timing: Timing::new(8, retire),
            insert,
        };
        let lanes = || {
            vec![
                (
                    Mixed::Gshare(Gshare::new(10, 10)),
                    config(0, InsertFilter::All),
                ),
                (
                    Mixed::Sfpf(SquashFilter::new(Gshare::new(10, 10))),
                    config(0, InsertFilter::All),
                ),
                (Mixed::Pgu(pgu()), config(0, InsertFilter::All)),
                (Mixed::Oracle(Box::default()), config(0, InsertFilter::All)),
                (
                    Mixed::Gshare(Gshare::new(10, 10)),
                    config(8, InsertFilter::All),
                ),
                (Mixed::Pgu(pgu()), config(8, InsertFilter::All)),
                (
                    Mixed::Pgu(pgu()),
                    config(0, InsertFilter::Pcs(crate::filter::guard_def_pcs(&program))),
                ),
            ]
        };
        let solo: Vec<(Mixed, PredictionMetrics)> = lanes()
            .into_iter()
            .map(|(predictor, config)| {
                let mut harness = PredictionHarness::new(predictor, config);
                harness.replay_events(&events);
                harness.into_parts()
            })
            .collect();
        let Mixed::Pgu(inserting) = &solo[2].0 else {
            unreachable!("lane 2 is the PGU lane")
        };
        assert!(inserting.inserted_count() > 0);

        for batch in [1, 7, predbranch_sim::EVENT_BATCH_CAPACITY, events.len()] {
            let mut gang = GangHarness::new();
            for (predictor, config) in lanes() {
                gang.push_lane(predictor, config);
            }
            // the PGU lane takes every write, so whatever it has not
            // inserted yet is pending
            let (mut writes, mut pending_mid_stream) = (0, false);
            let mut chunks = events.chunks(batch).peekable();
            while let Some(chunk) = chunks.next() {
                gang.events(chunk);
                writes += chunk
                    .iter()
                    .filter(|event| matches!(event, Event::PredWrite(_)))
                    .count() as u64;
                if let (Some(_), Mixed::Pgu(pgu)) = (chunks.peek(), &gang.lanes[2].predictor) {
                    pending_mid_stream |= pgu.inserted_count() < writes;
                }
            }
            assert_eq!(
                pending_mid_stream,
                batch < events.len(),
                "batch {batch}: PGU insertions must outlive some batch"
            );
            for (i, (lane, (predictor, metrics))) in gang.into_lanes().iter().zip(&solo).enumerate()
            {
                assert_eq!(lane.metrics(), metrics, "batch {batch}, lane {i}");
                assert_eq!(lane.predictor(), predictor, "batch {batch}, lane {i}");
            }
        }
    }

    #[test]
    fn empty_gang_is_a_no_op_sink() {
        let mut gang: GangHarness<Gshare> = GangHarness::new();
        assert!(gang.is_empty());
        gang.events(&[]);
        gang.finish();
        assert_eq!(gang.into_metrics().len(), 0);
    }

    #[test]
    fn metrics_split_by_region_class() {
        let src = r#"
            mov r1 = 0
        loop:
            cmp.lt p1, p2 = r1, 10
            (p1) add r1 = r1, 1
            (p1) br loop            // non-region branch
            halt
        "#;
        let (m, _) = run(src, StaticPredictor::NotTaken, HarnessConfig::default());
        assert_eq!(m.non_region.branches.get(), 11);
        assert_eq!(m.region.branches.get(), 0);
    }
}
