//! The one-lane reference the sweep tests diff `run_cells` against.

use predbranch_bench::{CellSpec, RunContext, RunOutcome};
use predbranch_core::{HarnessConfig, PredictionHarness};
use predbranch_modern::build_modern;

/// Runs `cell` the plainest way there is: its event stream, delivered
/// by `ctx` (trace cache or live), drives a solo [`PredictionHarness`]
/// around the boxed [`build_modern`] predictor, the same stack
/// `run_cells` builds for a lane. Agreement with `run_cells` therefore
/// pins the gang grouping and the gang's event delivery; what each spec
/// builds is pinned in `predbranch-modern`'s stack tests.
pub fn one_lane_reference(ctx: &RunContext, cell: &CellSpec) -> RunOutcome {
    let config = HarnessConfig {
        timing: cell.timing,
        insert: cell.insert.clone(),
    };
    let mut harness = PredictionHarness::new(build_modern(&cell.spec), config);
    let summary = ctx.stream_events(&cell.cache_label, &cell.stream, &mut harness);
    harness.finish();
    RunOutcome {
        metrics: *harness.metrics(),
        summary,
    }
}
