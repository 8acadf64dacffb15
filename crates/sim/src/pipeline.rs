//! First-order pipeline timing model.

use std::fmt;

/// The machine's default predicate resolve latency, in fetch slots: the
/// distance between a compare executing and the first fetch that can
/// observe its predicate result.
///
/// This is *the* single definition of the study's default — the
/// prediction harness, the experiment grid, PGU's commit-time insertion
/// delay and the predicate-history registers all derive their defaults
/// from this constant.
pub const DEFAULT_RESOLVE_LATENCY: u64 = 8;

/// The default branch retire latency, in fetch slots: the distance
/// between a branch being fetched (and predicted) and its resolved
/// outcome training the predictor. `0` means the predictor trains
/// before the next fetch — the classic idealized immediate-update
/// methodology — and is the default so existing results reproduce
/// exactly. Kept next to [`DEFAULT_RESOLVE_LATENCY`] because the two
/// knobs describe the same front-end timing story.
pub const DEFAULT_RETIRE_LATENCY: u64 = 0;

/// Front-end and recovery parameters of the modelled machine.
///
/// The defaults describe the EPIC-class machine the study assumes: a
/// 6-wide fetch front end and a 10-cycle misprediction flush. The
/// predicate resolve latency is a prediction-harness knob
/// (`Timing::resolve_latency` in `predbranch-core`), not a timing-model
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Cycles lost per mispredicted branch (pipeline flush).
    pub mispredict_penalty: u32,
    /// Cycles lost per *taken* (correctly predicted) branch — fetch
    /// redirection bubble.
    pub taken_bubble: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            fetch_width: 6,
            mispredict_penalty: 10,
            taken_bubble: 1,
        }
    }
}

/// Cycle and IPC estimates derived from dynamic counts.
///
/// The model charges one fetch slot per dynamic instruction (predicated-
/// off instructions still occupy slots — the fundamental cost of
/// predication), one flush per misprediction, and one bubble per taken
/// branch:
///
/// ```text
/// cycles = ceil(instructions / width)
///        + mispredictions × penalty
///        + taken_branches × bubble
/// ```
///
/// # Examples
///
/// ```
/// use predbranch_sim::{PipelineConfig, PipelineModel};
///
/// let config = PipelineConfig::default();
/// let perfect = PipelineModel::estimate(&config, 6_000, 0, 0);
/// assert_eq!(perfect.cycles(), 1_000);
/// assert_eq!(perfect.ipc(), 6.0);
///
/// let real = PipelineModel::estimate(&config, 6_000, 100, 0);
/// assert!(real.ipc() < perfect.ipc());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineModel {
    instructions: u64,
    cycles: u64,
    flush_cycles: u64,
    bubble_cycles: u64,
}

impl PipelineModel {
    /// Estimates execution time from dynamic counts.
    pub fn estimate(
        config: &PipelineConfig,
        instructions: u64,
        mispredictions: u64,
        taken_branches: u64,
    ) -> Self {
        let width = u64::from(config.fetch_width.max(1));
        let fetch_cycles = instructions.div_ceil(width);
        let flush_cycles = mispredictions * u64::from(config.mispredict_penalty);
        let bubble_cycles = taken_branches * u64::from(config.taken_bubble);
        PipelineModel {
            instructions,
            cycles: fetch_cycles + flush_cycles + bubble_cycles,
            flush_cycles,
            bubble_cycles,
        }
    }

    /// Total estimated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for PipelineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts, {} cycles (flush {}, bubble {}), IPC {:.3}",
            self.instructions,
            self.cycles,
            self.flush_cycles,
            self.bubble_cycles,
            self.ipc()
        )
    }
}

/// A cycle-level fetch timeline: the event-driven counterpart of
/// [`PipelineModel`].
///
/// Where the closed-form model charges exactly `⌈instructions/width⌉`
/// fetch cycles, the timeline walks the event stream and models
/// **fetch fragmentation**: a taken branch ends its fetch cycle early
/// (the slots after it in the fetch block are wasted) and costs the
/// redirect bubble, and a misprediction stalls fetch for the full flush
/// penalty. Drive it from the caller that knows prediction outcomes
/// (`predbranch-core`'s harness does this when configured with a
/// timeline):
///
/// * [`FetchTimeline::fetch_to`] with `index + 1` at each branch (an
///   event's dynamic index counts the instructions fetched before it),
///   and with the run's [`crate::RunSummary::instructions`] once it
///   ends (the harness hands out its timeline closed this way),
/// * [`FetchTimeline::taken_branch`] when a taken branch is fetched,
/// * [`FetchTimeline::mispredict`] when a branch resolves mispredicted.
///
/// # Examples
///
/// ```
/// use predbranch_sim::{PipelineConfig, FetchTimeline};
///
/// let mut t = FetchTimeline::new(PipelineConfig { fetch_width: 4, ..Default::default() });
/// t.fetch_to(4); // a branch at index 3 takes the block's 4th slot
/// t.taken_branch(); // taken: the cycle ends and the bubble is paid
/// assert_eq!(t.cycles(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchTimeline {
    config: PipelineConfig,
    cycles: u64,
    slot: u32,
    instructions: u64,
}

impl FetchTimeline {
    /// Creates an empty timeline.
    pub fn new(config: PipelineConfig) -> Self {
        FetchTimeline {
            config,
            cycles: 0,
            slot: 0,
            instructions: 0,
        }
    }

    /// Accounts one fetch slot per instruction from
    /// [`FetchTimeline::instructions`] up to `count`, filling the
    /// partly filled block first; a `count` at or below it adds
    /// nothing.
    pub fn fetch_to(&mut self, count: u64) {
        if count <= self.instructions {
            return;
        }
        let width = u64::from(self.config.fetch_width.max(1));
        let filled = u64::from(self.slot) + (count - self.instructions);
        self.cycles += filled / width;
        self.slot = (filled % width) as u32;
        self.instructions = count;
    }

    /// A taken branch was fetched: the rest of the fetch block is wasted
    /// and the redirect bubble is paid. Call *after*
    /// [`FetchTimeline::fetch_to`] has counted the branch itself.
    pub fn taken_branch(&mut self) {
        if self.slot > 0 {
            self.cycles += 1; // abandon the partially filled block
            self.slot = 0;
        }
        self.cycles += u64::from(self.config.taken_bubble);
    }

    /// A branch resolved mispredicted: fetch stalls for the flush
    /// penalty (the redirect itself is included in the penalty).
    pub fn mispredict(&mut self) {
        if self.slot > 0 {
            self.cycles += 1;
            self.slot = 0;
        }
        self.cycles += u64::from(self.config.mispredict_penalty);
    }

    /// Total cycles so far (counting a partially filled final block).
    pub fn cycles(&self) -> u64 {
        self.cycles + u64::from(self.slot > 0)
    }

    /// Instructions accounted so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            mispredict_penalty: 10,
            taken_bubble: 1,
        }
    }

    #[test]
    fn fetch_cycles_round_up() {
        let m = PipelineModel::estimate(&config(), 5, 0, 0);
        assert_eq!(m.cycles(), 2);
    }

    #[test]
    fn penalties_accumulate() {
        let m = PipelineModel::estimate(&config(), 400, 3, 7);
        assert_eq!(m.cycles(), 100 + 30 + 7);
        assert_eq!(
            m.to_string(),
            "400 insts, 137 cycles (flush 30, bubble 7), IPC 2.920"
        );
    }

    #[test]
    fn ipc_matches_definition() {
        let m = PipelineModel::estimate(&config(), 400, 0, 0);
        assert_eq!(m.ipc(), 4.0);
    }

    #[test]
    fn fewer_mispredictions_means_speedup() {
        let base = PipelineModel::estimate(&config(), 1000, 100, 0);
        let better = PipelineModel::estimate(&config(), 1000, 10, 0);
        assert_eq!(base.cycles() - better.cycles(), 90 * 10);
    }

    #[test]
    fn zero_width_clamped() {
        let bad = PipelineConfig {
            fetch_width: 0,
            ..config()
        };
        let m = PipelineModel::estimate(&bad, 10, 0, 0);
        assert_eq!(m.cycles(), 10);
    }

    #[test]
    fn empty_run_is_defined() {
        let m = PipelineModel::estimate(&config(), 0, 0, 0);
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.ipc(), 0.0);
    }

    #[test]
    fn display_reports_ipc() {
        let m = PipelineModel::estimate(&config(), 400, 1, 1);
        assert!(m.to_string().contains("IPC"));
    }

    #[test]
    fn timeline_full_blocks_match_closed_form() {
        let mut t = FetchTimeline::new(config());
        t.fetch_to(400);
        assert_eq!(t.cycles(), 100);
        assert_eq!(t.ipc(), 4.0);
        assert_eq!(t.instructions(), 400);
    }

    #[test]
    fn timeline_partial_final_block_rounds_up() {
        let mut t = FetchTimeline::new(config());
        t.fetch_to(5);
        assert_eq!(t.cycles(), 2);
    }

    #[test]
    fn taken_branch_fragments_fetch() {
        let mut t = FetchTimeline::new(config());
        // branch is the first of a 4-wide block: 3 slots wasted
        t.fetch_to(1);
        t.taken_branch();
        // one cycle for the fragment + one bubble
        assert_eq!(t.cycles(), 2);
        // the closed-form model would charge ceil(1/4) + 1 = 2 as well,
        // but diverges when fragments repeat:
        let mut frag = FetchTimeline::new(config());
        for count in 1..=4 {
            frag.fetch_to(count);
            frag.taken_branch();
        }
        assert_eq!(frag.cycles(), 8); // 4 fragments + 4 bubbles
        let closed = PipelineModel::estimate(&config(), 4, 0, 4);
        assert!(
            frag.cycles() > closed.cycles(),
            "fragmentation must cost more"
        );
    }

    #[test]
    fn mispredict_stalls_full_penalty() {
        let mut t = FetchTimeline::new(config());
        t.fetch_to(1);
        t.mispredict();
        assert_eq!(t.cycles(), 1 + 10);
    }

    #[test]
    fn timeline_is_lower_bounded_by_closed_form_fetch() {
        let mut t = FetchTimeline::new(config());
        let mut mispredicts = 0;
        for i in 0..1000u64 {
            if i % 37 == 0 {
                t.fetch_to(i + 1);
                t.mispredict();
                mispredicts += 1;
            } else if i % 11 == 0 {
                t.fetch_to(i + 1);
                t.taken_branch();
            }
        }
        t.fetch_to(1000);
        let closed = PipelineModel::estimate(&config(), 1000, mispredicts, 0);
        assert!(t.cycles() >= closed.cycles());
    }
}
