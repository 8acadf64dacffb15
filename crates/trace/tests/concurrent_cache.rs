//! Regression tests for concurrent trace-cache publishers: parallel
//! sweep lanes, and concurrent processes sharing one cache directory,
//! publish into it, so two (or eight) threads recording the same
//! `CacheKey` at once is the *normal* cold-cache case, not an edge
//! case. All publishers must succeed, every
//! observed event stream must be identical, and the surviving sealed
//! entry must verify.

use std::sync::{Arc, Barrier};

use predbranch_isa::{assemble, Program};
use predbranch_sim::{Memory, TraceSink};
use predbranch_trace::{CacheKey, TraceCache, TraceReader};

fn toy_program() -> Program {
    assemble(
        r#"
            mov r1 = 40
        loop:
            cmp.gt p1, p2 = r1, 0
            (p1) sub r1 = r1, 1
            (p1) br loop
            halt
        "#,
    )
    .unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pbt-race-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn racing_publishers_all_succeed_and_entry_verifies() {
    const PUBLISHERS: usize = 8;
    let dir = tmp_dir("publish");
    let program = Arc::new(toy_program());
    let key = CacheKey::for_run("race", &program, &Memory::new(), 10_000);
    let barrier = Arc::new(Barrier::new(PUBLISHERS));

    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|_| {
            let dir = dir.clone();
            let program = Arc::clone(&program);
            let key = key.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // each thread opens its own handle, as concurrent
                // processes sharing one cache directory do
                // (TraceCache::open itself must tolerate the race on
                // create_dir_all)
                let cache = TraceCache::open(&dir).expect("concurrent open");
                let mut sink = TraceSink::new();
                barrier.wait();
                let (summary, _hit) = cache
                    .replay_or_record(&key, &program, Memory::new(), 10_000, &mut sink)
                    .expect("concurrent publish");
                (summary, sink)
            })
        })
        .collect();

    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (first_summary, first_sink) = &results[0];
    assert!(first_summary.halted);
    for (summary, sink) in &results {
        assert_eq!(summary, first_summary, "summaries must agree");
        assert_eq!(
            sink.events(),
            first_sink.events(),
            "every publisher must observe the identical event stream"
        );
    }

    // the surviving sealed entry is intact and replayable
    let cache = TraceCache::open(&dir).unwrap();
    assert!(cache.contains(&key));
    let stats = TraceReader::open(cache.path(&key))
        .unwrap()
        .verify()
        .unwrap();
    assert_eq!(&stats.summary, first_summary);

    // no temporaries left behind by any of the racing publishers
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    // and scan() sees exactly one sealed entry with the right label
    let entries = cache.scan().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name.as_deref(), Some("race"));
    assert!(entries[0].bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_replayers_and_recorders_agree() {
    // warm the cache, then race replayers against a publisher that
    // re-records over the sealed entry (as a stale-detecting worker
    // would): readers hold an open fd, so the rename never tears a
    // stream out from under them.
    const THREADS: usize = 6;
    let dir = tmp_dir("mixed");
    let program = Arc::new(toy_program());
    let key = CacheKey::for_run("race", &program, &Memory::new(), 10_000);
    {
        let cache = TraceCache::open(&dir).unwrap();
        cache
            .replay_or_record(
                &key,
                &program,
                Memory::new(),
                10_000,
                &mut predbranch_sim::NullSink,
            )
            .unwrap();
    }
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let dir = dir.clone();
            let program = Arc::clone(&program);
            let key = key.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cache = TraceCache::open(&dir).unwrap();
                let mut sink = TraceSink::new();
                barrier.wait();
                let (summary, _) = cache
                    .replay_or_record(&key, &program, Memory::new(), 10_000, &mut sink)
                    .unwrap();
                (summary, sink)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (summary, sink) in &results[1..] {
        assert_eq!(summary, &results[0].0);
        assert_eq!(sink.events(), results[0].1.events());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
