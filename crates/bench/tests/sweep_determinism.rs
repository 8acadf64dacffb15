//! The sweep engine's core contract: `--jobs N` is an implementation
//! detail. Cell outcomes, artifact text, and checkpoint-resumed results
//! must be identical at every parallelism level, with and without the
//! trace cache, and equal to a one-lane reference run of each cell.

mod common;

use predbranch_bench::experiments::find_experiment;
use predbranch_bench::{CellSpec, RunContext, RunOutcome, Scale, DEFAULT_LATENCY};
use predbranch_core::{InsertFilter, Timing};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A modest mixed grid: two benchmarks × the four headline configs.
fn grid(ctx: &RunContext) -> Vec<CellSpec> {
    let entries = ctx.suite(Some(2));
    let base = predbranch_core::PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    let specs = [
        base.clone(),
        base.clone().with_sfpf(),
        base.clone().with_pgu(8),
        base.with_sfpf().with_pgu(8),
    ];
    let mut cells = Vec::new();
    for entry in entries.iter() {
        for (i, spec) in specs.iter().enumerate() {
            cells.push(CellSpec::predicated(
                entry,
                format!("grid/{}/{i}", entry.compiled.name),
                spec,
                Timing::immediate(DEFAULT_LATENCY),
                InsertFilter::All,
            ));
        }
    }
    cells
}

#[test]
fn run_cells_is_jobs_invariant() {
    let sequential = RunContext::new();
    let outs1 = sequential.run_cells(grid(&sequential));
    for jobs in [2, 8] {
        let parallel = RunContext::new().with_jobs(jobs);
        let outs_n = parallel.run_cells(grid(&parallel));
        assert_eq!(
            outs1, outs_n,
            "jobs={jobs} must produce identical outcomes in identical order"
        );
    }
}

#[test]
fn experiment_artifacts_are_jobs_invariant() {
    // full experiments, not just raw cells: aggregation order must not
    // depend on execution order (f3 = pure cell grid, f6 = cells +
    // map_batch side table)
    for id in ["f3", "f6"] {
        let exp = find_experiment(id).unwrap();
        let render = |jobs: usize| -> String {
            let ctx = RunContext::new().with_jobs(jobs);
            (exp.run)(&ctx, &Scale::quick())
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = render(1);
        let eight = render(8);
        assert_eq!(
            one, eight,
            "{id}: artifacts differ between jobs=1 and jobs=8"
        );
        assert!(!one.trim().is_empty());
    }
}

#[test]
fn trace_cache_replays_are_jobs_invariant_and_counted() {
    let dir = tmp_dir("cache");
    // ganged (default): 2 benchmarks × 4 specs collapse into 2 gang
    // units, so the cold sweep records each stream once and replays
    // nothing — the counters count *passes*, not cells
    let warm = RunContext::new().with_trace_cache(&dir).unwrap();
    let outs_warm = warm.run_cells(grid(&warm));
    let stats = warm.stats();
    assert_eq!((stats.replays, stats.recordings), (0, 2), "{stats:?}");

    // the one-lane reference against the now-warm cache: one replay
    // pass per cell, outcomes identical to the ganged pass
    let reference = RunContext::new().with_trace_cache(&dir).unwrap();
    let outs_reference: Vec<RunOutcome> = grid(&reference)
        .iter()
        .map(|cell| common::one_lane_reference(&reference, cell))
        .collect();
    assert_eq!(outs_warm, outs_reference);
    let stats = reference.stats();
    assert_eq!(
        (stats.replays, stats.recordings),
        (8, 0),
        "a warm cache must satisfy every cell"
    );

    // warm + parallel + ganged: one replay per unit, same outcomes
    let parallel = RunContext::new()
        .with_jobs(4)
        .with_trace_cache(&dir)
        .unwrap();
    let outs_parallel = parallel.run_cells(grid(&parallel));
    assert_eq!(outs_warm, outs_parallel);
    let stats = parallel.stats();
    assert_eq!(
        (stats.replays, stats.recordings),
        (2, 0),
        "a warm cache must satisfy every unit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_gang_outcomes_match_the_one_lane_reference() {
    let ganged = RunContext::new();
    let outs_ganged = ganged.run_cells(grid(&ganged));
    let reference = RunContext::new();
    let outs_reference: Vec<RunOutcome> = grid(&reference)
        .iter()
        .map(|cell| common::one_lane_reference(&reference, cell))
        .collect();
    assert_eq!(outs_ganged, outs_reference);
    // 2 streams → 2 gang passes
    assert_eq!(ganged.stats().live_runs, 2);
}

#[test]
fn gang_units_group_by_stream_and_timing() {
    let ctx = RunContext::new();
    let entries = ctx.suite(Some(1));
    let base = predbranch_core::PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    let mut cells = Vec::new();
    // one benchmark, two timings, two specs each: timing splits the
    // stream into two units even though the events are identical
    for retire in [0, 8] {
        for spec in [base.clone(), base.clone().with_sfpf()] {
            cells.push(CellSpec::predicated(
                entries.first().unwrap(),
                format!("timing/{retire}"),
                &spec,
                Timing::new(DEFAULT_LATENCY, retire),
                InsertFilter::All,
            ));
        }
    }
    ctx.run_cells(cells);
    assert_eq!(ctx.stats().live_runs, 2, "one pass per (stream, timing)");
}

#[test]
fn checkpoint_resume_skips_completed_cells() {
    let dir = tmp_dir("ckpt");
    let journal = dir.join("sweep.ckpt");

    // first (interrupted) sweep: only half the grid completes
    let first = RunContext::new().with_checkpoint(&journal).unwrap();
    assert_eq!(first.checkpoint_loaded(), Some(0));
    let full_grid = grid(&first);
    let half: Vec<CellSpec> = full_grid[..4].to_vec();
    let half_outs = first.run_cells(half);
    assert_eq!(first.stats().checkpoint_hits, 0);
    // the four completed cells share one stream: one ganged pass
    assert_eq!(first.stats().live_runs, 1);
    drop(first);

    // resumed sweep over the whole grid: the four completed cells are
    // restored from the journal, only the remaining four run
    let resumed = RunContext::new()
        .with_jobs(2)
        .with_checkpoint(&journal)
        .unwrap();
    assert_eq!(resumed.checkpoint_loaded(), Some(4));
    let outs = resumed.run_cells(grid(&resumed));
    assert_eq!(resumed.stats().checkpoint_hits, 4);
    // the four cells that still need running share the second
    // benchmark's stream: one ganged pass
    assert_eq!(resumed.stats().live_runs, 1);
    assert_eq!(
        &outs[..4],
        &half_outs[..],
        "restored outcomes must be exact"
    );

    // and the resumed results equal a from-scratch sequential run
    let reference = RunContext::new();
    assert_eq!(outs, reference.run_cells(grid(&reference)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_survives_torn_tail() {
    let dir = tmp_dir("torn");
    let journal = dir.join("sweep.ckpt");

    let first = RunContext::new().with_checkpoint(&journal).unwrap();
    let outs = first.run_cells(grid(&first)[..2].to_vec());
    drop(first);

    // simulate a crash mid-append: chop the journal mid-line
    let bytes = std::fs::read(&journal).unwrap();
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    assert_eq!(newlines.len(), 2, "one journal line per cell");
    std::fs::write(&journal, &bytes[..newlines[0] + 1 + 7]).unwrap();

    // the intact first record is restored, the torn second re-runs
    let resumed = RunContext::new().with_checkpoint(&journal).unwrap();
    assert_eq!(resumed.checkpoint_loaded(), Some(1));
    let outs2 = resumed.run_cells(grid(&resumed)[..2].to_vec());
    assert_eq!(outs2, outs);
    assert_eq!(resumed.stats().checkpoint_hits, 1);
    assert_eq!(resumed.stats().live_runs, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_records_every_cell_in_canonical_order() {
    use predbranch_sweep::ManifestBuilder;
    let ctx = RunContext::new()
        .with_jobs(4)
        .with_manifest(ManifestBuilder::new("test-sweep", 4));
    let cells = grid(&ctx);
    let expected: Vec<String> = {
        let mut labels: Vec<(String, String)> =
            cells.iter().map(|c| (c.label.clone(), c.key())).collect();
        labels.sort();
        labels.into_iter().map(|(label, _)| label).collect()
    };
    ctx.run_cells(cells);
    let manifest = ctx.manifest().unwrap().finish(None);
    let cells_json = manifest.get("cells").unwrap().as_arr().unwrap();
    let recorded: Vec<String> = cells_json
        .iter()
        .map(|c| c.get("label").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(recorded, expected, "manifest order must be canonical");
    let totals = manifest.get("totals").unwrap();
    assert_eq!(totals.get("cells").unwrap().as_u64(), Some(8));
    assert_eq!(totals.get("live").unwrap().as_u64(), Some(8));
}
