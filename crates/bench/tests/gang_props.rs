//! Ganged replay must be invisible: for ANY mix of classic and modern
//! predictor specs over any mix of benchmarks, each cell at retire
//! latency 0 or 64, `run_cells` produces `RunOutcome`s identical —
//! metrics, misprediction tallies, run summaries — to a one-lane
//! reference that runs each cell on its own in a solo harness.
//! Cells over one stream share a gang whatever their retire latencies.
//!
//! Each case shares one on-disk trace cache between both contexts, so
//! the property also exercises the paths the full sweeps use: the
//! ganged pass records every stream, the reference replays them.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use predbranch_bench::{CellSpec, RunContext, RunOutcome, DEFAULT_LATENCY};
use predbranch_core::{InsertFilter, Timing};

/// Spec strings spanning every predictor family the sweep engine can
/// gang: classic gshare stacks with and without the paper's predicate
/// structures, a bimodal baseline, and the modern TAGE/MPP tier with
/// their predicate-aware variants.
const SPEC_POOL: &[&str] = &[
    "gshare:10/10",
    "gshare:12/12+sfpf",
    "gshare:10/10+pgu8",
    "gshare:10/10+sfpf+pgu8",
    "bimodal:12",
    "tage:4/8/48",
    "ptage:4/8/48",
    "mpp:10",
    "pmpp:10",
];

fn scratch_dir(case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-gang-props-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One sampled grid: each element is (spec index, benchmark index,
/// retire latency). Retire latency 64 is long enough to change what a
/// windowed lane predicts here; at 8, a runner that dropped each lane's
/// retire latency still passed this property.
fn arb_grid() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec(
        (
            0usize..SPEC_POOL.len(),
            0usize..2,
            prop_oneof![Just(0u64), Just(64u64)],
        ),
        1..7,
    )
}

fn cells_for(ctx: &RunContext, grid: &[(usize, usize, u64)]) -> Vec<CellSpec> {
    let entries = ctx.suite(Some(2));
    grid.iter()
        .enumerate()
        .map(|(i, &(spec_idx, bench_idx, retire))| {
            let entry = &entries[bench_idx % entries.len()];
            CellSpec::predicated(
                entry,
                format!("props/{}/{i}", entry.compiled.name),
                SPEC_POOL[spec_idx]
                    .parse::<predbranch_modern::ModernSpec>()
                    .expect("pool specs parse"),
                Timing::new(DEFAULT_LATENCY, retire),
                InsertFilter::All,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The gang-replay contract from DESIGN.md: lanes share no state
    /// but the scoreboard, so a ganged pass is byte-identical to
    /// per-cell passes.
    #[test]
    fn gang_outcomes_match_per_cell_outcomes(
        grid in arb_grid(),
        seed in 0u64..1_000,
    ) {
        let dir = scratch_dir(seed);
        let ganged = RunContext::new()
            .with_trace_cache(&dir)
            .expect("trace cache opens");
        let reference = RunContext::new()
            .with_trace_cache(&dir)
            .expect("trace cache opens");

        let cells = cells_for(&ganged, &grid);
        let outs_ganged = ganged.run_cells(cells.clone());
        let outs_reference: Vec<RunOutcome> = cells
            .iter()
            .map(|cell| common::one_lane_reference(&reference, cell))
            .collect();
        prop_assert_eq!(
            outs_ganged,
            outs_reference,
            "ganged and per-cell outcomes diverge for grid {:?}",
            grid
        );

        // one pass per (stream, resolve latency) unit; every cell here
        // shares the resolve latency, so one recording per distinct
        // benchmark stream, whatever the cells' retire latencies
        let streams = grid.iter().map(|&(_, bench, _)| bench).collect::<BTreeSet<_>>().len() as u64;
        let g = ganged.stats();
        prop_assert_eq!((g.replays, g.recordings, g.live_runs), (0, streams, 0));
        // and the now-warm cache serves every reference pass
        prop_assert_eq!(reference.stats().recordings, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
