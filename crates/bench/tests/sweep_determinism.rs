//! The sweep engine's core contract: `--jobs N` is an implementation
//! detail. Cell outcomes, artifact text, and checkpoint-resumed results
//! must be identical at every parallelism level, with and without the
//! trace cache, and equal to a one-lane reference run of each cell. A
//! context runs each distinct cell once and restores its repeats.

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

/// The grid with its second cell listed again, under another label.
fn grid_with_repeat(ctx: &RunContext) -> Vec<CellSpec> {
    let mut cells = grid(ctx);
    cells.push(CellSpec {
        label: "grid/again".into(),
        ..cells[1].clone()
    });
    cells
}

/// Each cell of `cells` run through the one-lane reference on a
/// context of its own, which no earlier cell can feed.
fn references(cells: &[CellSpec]) -> Vec<RunOutcome> {
    cells
        .iter()
        .map(|cell| common::one_lane_reference(&RunContext::new(), cell))
        .collect()
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
fn gang_units_group_by_stream_and_resolve_latency() {
    let entries = RunContext::new().suite(Some(1));
    let entry = entries.first().unwrap();
    let base = predbranch_core::PredictorSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    };
    let cell = |resolve: u64, retire: u64, spec: &predbranch_core::PredictorSpec| {
        CellSpec::predicated(
            entry,
            format!("timing/{resolve}/{retire}"),
            spec,
            Timing::new(resolve, retire),
            InsertFilter::All,
        )
    };
    // one benchmark, two retire latencies, two specs each: the lanes
    // differ only in retire latency, so they share one pass
    let mut cells = Vec::new();
    for retire in [0, 64] {
        for spec in [base.clone(), base.clone().with_sfpf()] {
            cells.push(cell(DEFAULT_LATENCY, retire, &spec));
        }
    }
    let ctx = RunContext::new();
    let outs = ctx.run_cells(cells.clone());
    assert_eq!(
        ctx.stats().live_runs,
        1,
        "one pass per (stream, resolve latency)"
    );

    // a different resolve latency needs its own scoreboard: a second pass
    cells.push(cell(DEFAULT_LATENCY + 1, 64, &base.clone().with_pgu(8)));
    let ctx = RunContext::new();
    let outs_split = ctx.run_cells(cells.clone());
    assert_eq!(ctx.stats().live_runs, 2);
    assert_eq!(&outs_split[..outs.len()], &outs[..]);

    let reference = RunContext::new();
    let outs_reference: Vec<RunOutcome> = cells
        .iter()
        .map(|cell| common::one_lane_reference(&reference, cell))
        .collect();
    assert_eq!(outs_split, outs_reference);
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

#[test]
fn a_second_run_of_a_grid_restores_every_cell() {
    let ctx = RunContext::new();
    let first = ctx.run_cells(grid(&ctx));
    assert_eq!(first, references(&grid(&ctx)));
    let stats = ctx.stats();
    assert_eq!((stats.live_runs, stats.repeats), (2, 0), "{stats:?}");

    let second = ctx.run_cells(grid(&ctx));
    assert_eq!(second, first);
    let stats = ctx.stats();
    assert_eq!(stats.live_runs, 2, "the second call runs nothing");
    assert_eq!(stats.repeats, 8, "every cell of the second call repeats");
}

#[test]
fn repeats_are_jobs_and_cache_invariant() {
    let dir = tmp_dir("repeats");
    let recording = RunContext::new().with_trace_cache(&dir).unwrap();
    recording.run_cells(grid_with_repeat(&recording));
    assert_eq!(recording.stats().recordings, 2);

    let mut runs = Vec::new();
    for jobs in [1, 4] {
        for cached in [false, true] {
            let mut ctx = RunContext::new().with_jobs(jobs);
            if cached {
                ctx = ctx.with_trace_cache(&dir).unwrap();
            }
            let first = ctx.run_cells(grid_with_repeat(&ctx));
            let second = ctx.run_cells(grid(&ctx));
            let stats = ctx.stats();
            assert_eq!(
                stats.live_runs + stats.replays,
                2,
                "one pass per stream (jobs {jobs}, cached {cached}): {stats:?}"
            );
            assert_eq!(stats.recordings, 0);
            runs.push((first, second, stats.repeats));
        }
    }
    let (first, _, repeats) = &runs[0];
    assert_eq!(*first, references(&grid_with_repeat(&RunContext::new())));
    assert_eq!(
        *repeats,
        1 + 8,
        "the listed-again cell, then the whole grid"
    );
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_totals_count_repeats() {
    use predbranch_sweep::{Json, ManifestBuilder};
    let ctx = RunContext::new().with_manifest(ManifestBuilder::new("test-sweep", 1));
    ctx.run_cells(grid_with_repeat(&ctx));
    ctx.run_cells(grid(&ctx));
    let manifest = ctx.manifest().unwrap().finish(None);
    let totals = manifest.get("totals").unwrap();
    let total = |source: &str| totals.get(source).and_then(Json::as_u64);
    assert_eq!(total("cells"), Some(17));
    assert_eq!(total("live"), Some(8));
    assert_eq!(total("repeat"), Some(9));
    for cell in manifest.get("cells").and_then(Json::as_arr).unwrap() {
        if cell.get("source").and_then(Json::as_str) == Some("repeat") {
            assert_eq!(cell.get("wall_ms").and_then(Json::as_u64), Some(0));
        }
    }
}
