//! Crafted event streams pinning each taxonomy bucket: streams built so
//! exactly one signal (bias, outcome history, fetch-visible predicate
//! state, or nothing) explains the branch, and the classifier must land
//! it in the matching bucket.

use predbranch_characterize::{Bucket, Characterizer, PRED_VISIBILITY_DELAY};
use predbranch_isa::PredReg;
use predbranch_sim::{BranchEvent, EventSink, PredWriteEvent, DEFAULT_RESOLVE_LATENCY};

fn p(i: u8) -> PredReg {
    PredReg::new(i).unwrap()
}

fn write(index: u64, value: bool) -> PredWriteEvent {
    PredWriteEvent {
        pc: 1,
        preg: p(1),
        value,
        index,
        guard: PredReg::TRUE,
        guard_value: true,
    }
}

fn branch(pc: u32, index: u64, taken: bool) -> BranchEvent {
    BranchEvent {
        pc,
        target: 0,
        guard: p(1),
        taken,
        conditional: true,
        region: Some(0),
        index,
    }
}

/// Deterministic pseudo-random bits with no short-period or linear
/// structure a history register could latch onto.
fn splitmix_bit(state: &mut u64) -> bool {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Feeds `n` (define, branch) iterations where the branch outcome
/// equals the predicate value and the define→branch distance is
/// `gap` fetch slots.
fn run_pattern(n: u64, gap: u64, mut value_of: impl FnMut(u64) -> bool) -> Characterizer {
    let mut sink = Characterizer::new();
    for i in 0..n {
        let value = value_of(i);
        let base = i * 20;
        sink.pred_write(&write(base, value));
        sink.branch(&branch(7, base + gap, value));
    }
    sink
}

/// A gap large enough that both the scoreboard and the delayed
/// predicate-history register see the definition at the branch's fetch.
const RESOLVED_GAP: u64 = DEFAULT_RESOLVE_LATENCY + 2;

#[test]
fn always_taken_branch_is_biased() {
    let report = run_pattern(200, RESOLVED_GAP, |_| true).finish();
    let b = report.at(7).unwrap();
    assert_eq!(b.bucket, Bucket::Biased);
    assert_eq!(b.bias, 1.0);
    assert_eq!(b.entropy, 0.0);
    assert_eq!(b.executions, 200);
    assert_eq!(b.taken, 200);
    assert!(b.region);
}

#[test]
fn alternating_branch_is_history_predictable() {
    let report = run_pattern(512, RESOLVED_GAP, |i| i % 2 == 0).finish();
    let b = report.at(7).unwrap();
    // marginally a fair coin, fully explained by two history bits
    assert!(b.bias < 0.51, "{}", b.bias);
    assert!(b.entropy > 0.99, "{}", b.entropy);
    assert!(b.history_entropy < 0.05, "{}", b.history_entropy);
    assert!(b.history_context.is_some());
    assert_eq!(b.bucket, Bucket::HistoryPredictable);
}

#[test]
fn resolved_random_guard_is_predicate_predictable() {
    // outcome = a pseudo-random predicate resolved well before fetch:
    // history sees noise, the scoreboard sees the answer
    let mut state = 0x1234_5678u64;
    let report = run_pattern(4096, RESOLVED_GAP, |_| splitmix_bit(&mut state)).finish();
    let b = report.at(7).unwrap();
    assert!(b.bias < 0.55, "{}", b.bias);
    assert!(
        b.history_entropy > 0.8,
        "history latched: {}",
        b.history_entropy
    );
    assert!(b.pred_entropy < 0.01, "{}", b.pred_entropy);
    assert!(b.pred_mi > 0.9, "{}", b.pred_mi);
    assert_eq!(b.bucket, Bucket::PredicatePredictable);
}

#[test]
fn unresolved_random_guard_is_fundamentally_hard() {
    // same pseudo-random outcomes, but the define sits 2 slots before
    // the branch: in flight at fetch, so no front-end signal explains it
    let mut state = 0x9999_0001u64;
    const { assert!(2 < DEFAULT_RESOLVE_LATENCY && 2 < PRED_VISIBILITY_DELAY) };
    let report = run_pattern(4096, 2, |_| splitmix_bit(&mut state)).finish();
    let b = report.at(7).unwrap();
    assert!(b.bias < 0.55, "{}", b.bias);
    assert!(b.history_entropy > 0.8, "{}", b.history_entropy);
    assert!(b.pred_entropy > 0.8, "{}", b.pred_entropy);
    assert!(b.pred_mi < 0.1, "{}", b.pred_mi);
    assert_eq!(b.bucket, Bucket::FundamentallyHard);
}

#[test]
fn predicate_history_sees_a_definition_exactly_at_its_visibility_delay() {
    // the branch's guard p2 is never written, so its scoreboard
    // knowledge is constant: only the delayed predicate-history register
    // can carry the outcome, a pseudo-random p1 definition `gap` slots
    // earlier
    let entropy_at = |gap: u64| {
        let mut state = 0x5eed_0002u64;
        let mut sink = Characterizer::new();
        for i in 0..4096u64 {
            let value = splitmix_bit(&mut state);
            let base = i * 20;
            sink.pred_write(&write(base, value));
            sink.branch(&BranchEvent {
                guard: p(2),
                ..branch(7, base + gap, value)
            });
        }
        sink.finish().at(7).unwrap().pred_entropy
    };
    let at_delay = entropy_at(PRED_VISIBILITY_DELAY);
    assert!(at_delay < 0.01, "visible at the delay: {at_delay}");
    let one_closer = entropy_at(PRED_VISIBILITY_DELAY - 1);
    assert!(one_closer > 0.8, "in flight one slot closer: {one_closer}");
}

#[test]
fn sparse_branch_falls_back_to_marginal_entropy() {
    // 4 executions cannot support any conditioned estimate: the
    // alternating pattern must NOT be called history-predictable
    let report = run_pattern(4, RESOLVED_GAP, |i| i % 2 == 0).finish();
    let b = report.at(7).unwrap();
    assert!(b.history_context.is_none());
    assert_eq!(b.history_entropy, b.entropy);
    assert_eq!(b.bucket, Bucket::FundamentallyHard);
}

#[test]
fn unconditional_branches_are_not_profiled() {
    let mut sink = Characterizer::new();
    sink.branch(&BranchEvent {
        pc: 3,
        target: 0,
        guard: PredReg::TRUE,
        taken: true,
        conditional: false,
        region: None,
        index: 0,
    });
    let report = sink.finish();
    assert!(report.branches().is_empty());
    assert_eq!(report.dynamic_branches(), 0);
}

#[test]
fn every_static_gets_exactly_one_bucket() {
    // four branches, one engineered per bucket, in one stream
    let mut sink = Characterizer::new();
    let mut state = 0xabcdu64;
    for i in 0..2048u64 {
        let base = i * 40;
        let noise = splitmix_bit(&mut state);
        sink.pred_write(&write(base, noise));
        // pc 10: always taken; pc 11: alternates; pc 12: equals the
        // resolved predicate; pc 13: fresh unresolved noise
        sink.branch(&branch(10, base + 11, true));
        sink.branch(&branch(11, base + 12, i % 2 == 0));
        sink.branch(&branch(12, base + 13, noise));
        let late = splitmix_bit(&mut state);
        sink.pred_write(&PredWriteEvent {
            pc: 2,
            preg: p(2),
            value: late,
            index: base + 14,
            guard: PredReg::TRUE,
            guard_value: true,
        });
        sink.branch(&BranchEvent {
            guard: p(2),
            ..branch(13, base + 16, late)
        });
    }
    let report = sink.finish();
    assert_eq!(report.branches().len(), 4);
    let total: usize = Bucket::ALL.iter().map(|&b| report.bucket_count(b)).sum();
    assert_eq!(total, 4, "every static in exactly one bucket");
    assert_eq!(report.at(10).unwrap().bucket, Bucket::Biased);
    assert_eq!(report.at(12).unwrap().bucket, Bucket::PredicatePredictable);
    assert_eq!(report.at(13).unwrap().bucket, Bucket::FundamentallyHard);
    assert_eq!(report.dynamic_branches(), 4 * 2048);
}

#[test]
fn rendering_is_deterministic_and_parseable() {
    let mut state = 7u64;
    let report = run_pattern(256, RESOLVED_GAP, |_| splitmix_bit(&mut state)).finish();
    let table = report.table("demo").to_string();
    let table2 = report.table("demo").to_string();
    assert_eq!(table, table2);
    assert!(table.contains("bucket"));
    let json = report.to_json();
    assert_eq!(json.render(), report.to_json().render());
    let parsed = predbranch_sweep::Json::parse(&json.render()).unwrap();
    assert_eq!(parsed.get("statics").unwrap().as_u64(), Some(1));
    assert_eq!(parsed.get("branches").unwrap().as_arr().unwrap().len(), 1);
    assert!(report.summary().contains("1 statics"));
}

#[test]
fn batched_delivery_matches_per_event() {
    use predbranch_sim::Event;
    let mut events = Vec::new();
    let mut state = 42u64;
    for i in 0..512u64 {
        let v = splitmix_bit(&mut state);
        events.push(Event::PredWrite(write(i * 20, v)));
        events.push(Event::Branch(branch(5, i * 20 + RESOLVED_GAP, v)));
    }
    let mut per_event = Characterizer::new();
    for e in &events {
        per_event.event(e);
    }
    let mut batched = Characterizer::new();
    for chunk in events.chunks(64) {
        batched.events(chunk);
    }
    assert_eq!(
        per_event.finish().to_json().render(),
        batched.finish().to_json().render()
    );
}
