//! Property tests for the segment sidecar: over *arbitrary* event
//! sequences — including non-monotone instruction indices, which stress
//! the zigzag-delta coding the fixed-stride format replaced — a
//! segment-served replay must be byte-for-byte equivalent to the
//! streaming varint replay: same decoded events, same restored
//! [`RunSummary`], and identical downstream predictor tables. A second
//! property pins the integrity story: any single-bit corruption of a
//! sidecar must be rejected at open time, never served.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use predbranch_core::{HarnessConfig, PredictionHarness};
use predbranch_isa::PredReg;
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_sim::{BranchEvent, Event, PredWriteEvent, RunSummary, TraceSink};
use predbranch_trace::{
    migrate_trace, segment_path, MigrateOutcome, TraceHeader, TraceMap, TraceReader, TraceWriter,
};

fn arb_pred_reg() -> impl Strategy<Value = PredReg> {
    (0u8..64).prop_map(|i| PredReg::new(i).unwrap())
}

fn arb_branch() -> impl Strategy<Value = Event> {
    (
        any::<u32>(),
        any::<u32>(),
        arb_pred_reg(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(any::<u16>()),
        any::<u64>(),
    )
        .prop_map(|(pc, target, guard, taken, conditional, region, index)| {
            Event::Branch(BranchEvent {
                pc,
                target,
                guard,
                taken,
                conditional,
                region,
                index,
            })
        })
}

fn arb_pred_write() -> impl Strategy<Value = Event> {
    (
        any::<u32>(),
        arb_pred_reg(),
        any::<bool>(),
        any::<u64>(),
        arb_pred_reg(),
        any::<bool>(),
    )
        .prop_map(|(pc, preg, value, index, guard, guard_value)| {
            Event::PredWrite(PredWriteEvent {
                pc,
                preg,
                value,
                index,
                guard,
                guard_value,
            })
        })
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(prop_oneof![arb_branch(), arb_pred_write()], 0..200)
}

fn arb_summary() -> impl Strategy<Value = RunSummary> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                instructions,
                branches,
                conditional_branches,
                region_branches,
                taken_conditional,
                pred_writes,
                halted,
            )| RunSummary {
                instructions,
                branches,
                conditional_branches,
                region_branches,
                taken_conditional,
                pred_writes,
                halted,
            },
        )
}

/// Writes a sealed v1 trace holding `events` + `summary` to a uniquely
/// named file in the OS temp dir and returns its path.
fn sealed_trace(events: &[Event], summary: &RunSummary) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "predbranch-segprop-{}-{}.pbt",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let header = TraceHeader::new("prop", 0xdead_beef, 42, 1_000);
    let file = fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(file, &header).unwrap();
    for event in events {
        writer.record(event);
    }
    writer.finish(summary).unwrap();
    path
}

fn cleanup(trace: &PathBuf) {
    let _ = fs::remove_file(segment_path(trace));
    let _ = fs::remove_file(trace);
}

proptest! {
    /// The core equivalence: decoded events, sink-delivered events,
    /// restored summaries, and predictor metrics all agree between the
    /// varint path and the segment path — and migration is idempotent.
    #[test]
    fn segment_replay_equals_varint_replay(
        mut events in arb_events(),
        summary in arb_summary(),
    ) {
        // the prediction harness asserts a simulator invariant — a write
        // under a false guard always clears — so legalize pred-writes
        // while keeping indices, pcs, and regions fully arbitrary
        for event in &mut events {
            if let Event::PredWrite(w) = event {
                w.value &= w.guard_value;
            }
        }
        let trace = sealed_trace(&events, &summary);
        let built = migrate_trace(&trace).unwrap();
        let rebuilt = migrate_trace(&trace).unwrap();
        let map = TraceMap::open_bound(&trace).unwrap();
        let bytes = fs::read(&trace).unwrap();

        // decoded-event equivalence
        let (varint_events, stats) =
            TraceReader::new(bytes.as_slice()).unwrap().read_events().unwrap();
        let segment_events = map.read_events().unwrap();

        // batched sink-delivery equivalence
        let mut varint_sink = TraceSink::new();
        TraceReader::new(bytes.as_slice()).unwrap().replay(&mut varint_sink).unwrap();
        let mut segment_sink = TraceSink::new();
        let mut scratch = Vec::new();
        let segment_summary = map.replay(&mut segment_sink, &mut scratch).unwrap();

        // downstream predictor tables: drive the full prediction stack
        // (history tables, false-path filter, predicate scoreboard) from
        // each path and require identical metrics
        let spec: ModernSpec = "gshare:8/8+sfpf+pgu8".parse().unwrap();
        let mut varint_harness =
            PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
        TraceReader::new(bytes.as_slice()).unwrap().replay(&mut varint_harness).unwrap();
        let mut segment_harness =
            PredictionHarness::new(build_modern(&spec), HarnessConfig::default());
        map.replay(&mut segment_harness, &mut scratch).unwrap();

        cleanup(&trace);

        prop_assert_eq!(built, MigrateOutcome::Built);
        prop_assert_eq!(rebuilt, MigrateOutcome::UpToDate);
        prop_assert_eq!(&segment_events, &varint_events);
        prop_assert_eq!(&segment_events, &events);
        prop_assert_eq!(segment_sink.events(), varint_sink.events());
        prop_assert_eq!(segment_summary, stats.summary);
        prop_assert_eq!(segment_summary, summary);
        prop_assert_eq!(map.summary(), summary);
        prop_assert_eq!(varint_harness.metrics(), segment_harness.metrics());
    }

    /// The fixed-stride record codec is exact over *every* field
    /// combination — including the value-set/guard-false flag pairing
    /// the legalized replay test above never produces.
    #[test]
    fn raw_event_roundtrip_is_exact(
        event in prop_oneof![arb_branch(), arb_pred_write()],
    ) {
        let raw = predbranch_trace::RawEvent::encode(&event);
        prop_assert_eq!(raw.decode().unwrap(), event);
    }

    /// Integrity backstop: flip any single bit anywhere in the sidecar
    /// and the open must fail — structurally if a validator trips first,
    /// by checksum otherwise. A corrupt segment is never served.
    #[test]
    fn any_sidecar_bit_flip_is_rejected_at_open(
        events in arb_events(),
        summary in arb_summary(),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let trace = sealed_trace(&events, &summary);
        migrate_trace(&trace).unwrap();
        let seg = segment_path(&trace);
        let mut bytes = fs::read(&seg).unwrap();
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        fs::write(&seg, &bytes).unwrap();
        let outcome = TraceMap::open(&seg);
        cleanup(&trace);
        prop_assert!(
            outcome.is_err(),
            "flip at byte {} bit {} went undetected",
            pos,
            bit
        );
    }
}
