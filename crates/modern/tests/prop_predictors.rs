//! Property tests over the predictor implementations: determinism,
//! robustness on arbitrary event streams, and wrapper equivalences.

use proptest::prelude::*;

use predbranch_core::{BranchInfo, BranchPredictor, Gshare, Pgu, SquashFilter};
use predbranch_isa::PredReg;
use predbranch_modern::{build_modern, ModernSpec};
use predbranch_sim::{PredWriteEvent, PredicateScoreboard};

/// One synthetic dynamic event.
#[derive(Debug, Clone)]
enum Ev {
    Branch {
        pc: u32,
        guard: u8,
        taken: bool,
        region: bool,
    },
    Write {
        pc: u32,
        preg: u8,
        value: bool,
    },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u32..64, 1u8..64, any::<bool>(), any::<bool>()).prop_map(|(pc, guard, taken, region)| {
            Ev::Branch {
                pc,
                guard,
                taken,
                region,
            }
        }),
        (0u32..64, 1u8..64, any::<bool>()).prop_map(|(pc, preg, value)| Ev::Write {
            pc,
            preg,
            value
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = ModernSpec> {
    let bases = prop_oneof![
        Just(ModernSpec::StaticNotTaken),
        Just(ModernSpec::StaticBtfn),
        Just(ModernSpec::Bimodal { index_bits: 6 }),
        Just(ModernSpec::Gshare {
            index_bits: 8,
            history_bits: 8
        }),
        Just(ModernSpec::Local {
            bht_bits: 5,
            history_bits: 6,
            pattern_bits: 8
        }),
        Just(ModernSpec::Tournament {
            gshare_bits: 6,
            history_bits: 6,
            bimodal_bits: 6,
            chooser_bits: 6
        }),
        Just(ModernSpec::Perceptron {
            index_bits: 5,
            history_bits: 8
        }),
        Just(ModernSpec::Agree {
            index_bits: 6,
            history_bits: 6
        }),
        Just(ModernSpec::OracleGuard),
    ];
    (bases, any::<bool>(), prop::option::of(0u64..16)).prop_map(|(base, sfpf, pgu)| {
        let mut spec = base;
        if sfpf {
            spec = spec.with_sfpf();
        }
        if let Some(delay) = pgu {
            spec = spec.with_pgu(delay);
        }
        spec
    })
}

/// Replays a stream against a predictor, returning the misprediction
/// count.
fn replay(spec: &ModernSpec, events: &[Ev], latency: u64) -> u64 {
    let mut predictor = build_modern(spec);
    let mut scoreboard = PredicateScoreboard::new(latency);
    let mut wrong = 0;
    for (index, ev) in events.iter().enumerate() {
        let index = index as u64;
        match *ev {
            Ev::Write { pc, preg, value } => {
                let event = PredWriteEvent {
                    pc,
                    preg: PredReg::new(preg).unwrap(),
                    value,
                    index,
                    guard: PredReg::TRUE,
                    guard_value: true,
                };
                scoreboard.observe(&event);
                predictor.on_pred_write(&event);
            }
            Ev::Branch {
                pc,
                guard,
                taken,
                region,
            } => {
                let guard = PredReg::new(guard).unwrap();
                let info = BranchInfo {
                    pc,
                    target: pc / 2,
                    guard,
                    region: region.then_some(0),
                    index,
                    guard_knowledge: scoreboard.query(guard, index),
                };
                if predictor.predict(&info) != taken {
                    wrong += 1;
                }
                predictor.update(&info, taken);
            }
        }
    }
    wrong
}

proptest! {
    /// No predictor configuration panics on any event stream, and every
    /// one is deterministic.
    #[test]
    fn predictors_are_total_and_deterministic(
        spec in arb_spec(),
        events in prop::collection::vec(arb_event(), 0..300),
        latency in 0u64..16,
    ) {
        let a = replay(&spec, &events, latency);
        let b = replay(&spec, &events, latency);
        prop_assert_eq!(a, b);
        prop_assert!(a <= events.len() as u64);
    }

    /// The squash filter agrees with its inner predictor whenever the
    /// guard is unresolved (an enormous-latency scoreboard resolves
    /// nothing that was ever written).
    #[test]
    fn filter_is_transparent_on_unresolved_guards(
        events in prop::collection::vec(arb_event(), 1..300),
    ) {
        // Pre-write every predicate so no guard is in the "never written
        // ⇒ known false" state; latency 1<<60 keeps them all unresolved.
        let mut prefix: Vec<Ev> = (1u8..64)
            .map(|preg| Ev::Write { pc: 0, preg, value: true })
            .collect();
        prefix.extend(events);
        let base = ModernSpec::Gshare { index_bits: 8, history_bits: 8 };
        let wrapped = base.clone().with_sfpf();
        prop_assert_eq!(
            replay(&base, &prefix, 1 << 60),
            replay(&wrapped, &prefix, 1 << 60)
        );
    }

    /// PGU with delay so large nothing ever drains behaves exactly like
    /// the unwrapped gshare.
    #[test]
    fn undrained_pgu_equals_gshare(
        events in prop::collection::vec(arb_event(), 0..300),
    ) {
        let mut plain = Gshare::new(8, 8);
        let mut pgu = Pgu::new(Gshare::new(8, 8)).with_delay(u64::MAX);
        let scoreboard = PredicateScoreboard::new(8);
        for (index, ev) in events.iter().enumerate() {
            match *ev {
                Ev::Write { pc, preg, value } => {
                    let event = PredWriteEvent {
                        pc,
                        preg: PredReg::new(preg).unwrap(),
                        value,
                        index: index as u64,
                        guard: PredReg::TRUE,
                        guard_value: true,
                    };
                    plain.on_pred_write(&event);
                    pgu.on_pred_write(&event);
                }
                Ev::Branch { pc, guard, taken, region } => {
                    let guard = PredReg::new(guard).unwrap();
                    let info = BranchInfo {
                        pc,
                        target: 0,
                        guard,
                        region: region.then_some(0),
                        index: index as u64,
                        guard_knowledge: scoreboard.query(guard, index as u64),
                    };
                    prop_assert_eq!(
                        plain.predict(&info),
                        pgu.predict(&info)
                    );
                    plain.update(&info, taken);
                    pgu.update(&info, taken);
                }
            }
        }
    }

    /// The filter's override is always architecturally safe: when it
    /// fires on a known-false guard, the branch is genuinely not taken —
    /// so a wrapped oracle stays perfect.
    #[test]
    fn filter_preserves_oracle_perfection(
        raw_events in prop::collection::vec(arb_event(), 0..300),
        latency in 0u64..16,
    ) {
        // make outcomes consistent with guards: a branch is taken iff its
        // guard's architectural value is true
        let mut preds = [false; 64];
        preds[0] = true;
        let events: Vec<Ev> = raw_events
            .into_iter()
            .map(|ev| match ev {
                Ev::Write { pc, preg, value } => {
                    preds[preg as usize] = value;
                    Ev::Write { pc, preg, value }
                }
                Ev::Branch { pc, guard, region, .. } => Ev::Branch {
                    pc,
                    guard,
                    taken: preds[guard as usize],
                    region,
                },
            })
            .collect();
        let oracle = ModernSpec::OracleGuard;
        let filtered = oracle.clone().with_sfpf();
        prop_assert_eq!(replay(&oracle, &events, latency), 0);
        prop_assert_eq!(replay(&filtered, &events, latency), 0);
    }

    /// `storage_bits` is configuration-determined: untouched by use.
    #[test]
    fn storage_bits_is_stable(
        spec in arb_spec(),
        events in prop::collection::vec(arb_event(), 0..50),
    ) {
        let mut predictor = build_modern(&spec);
        let before = predictor.storage_bits();
        let scoreboard = PredicateScoreboard::new(4);
        for (index, ev) in events.iter().enumerate() {
            match *ev {
                Ev::Write { pc, preg, value } => predictor.on_pred_write(&PredWriteEvent {
                    pc,
                    preg: PredReg::new(preg).unwrap(),
                    value,
                    index: index as u64,
                    guard: PredReg::TRUE,
                    guard_value: true,
                }),
                Ev::Branch { pc, guard, taken, .. } => {
                    let guard = PredReg::new(guard).unwrap();
                    let info = BranchInfo {
                        pc,
                        target: 0,
                        guard,
                        region: None,
                        index: index as u64,
                        guard_knowledge: scoreboard.query(guard, index as u64),
                    };
                    predictor.predict(&info);
                    predictor.update(&info, taken);
                }
            }
        }
        prop_assert_eq!(predictor.storage_bits(), before);
    }
}

/// A non-property regression: SquashFilter's filtered counter only moves
/// when the filter actually fires.
#[test]
fn filtered_counter_counts_fires_only() {
    let mut sb = PredicateScoreboard::new(4);
    let mut filter = SquashFilter::new(Gshare::new(6, 6));
    let p5 = PredReg::new(5).unwrap();
    // the branch as fetched at index 100 against the scoreboard's state
    let info = |sb: &PredicateScoreboard| BranchInfo {
        pc: 3,
        target: 0,
        guard: p5,
        region: None,
        index: 100,
        guard_knowledge: sb.query(p5, 100),
    };
    // in-flight guard: no fire
    sb.record_write(p5, false, 99);
    filter.predict(&info(&sb));
    assert_eq!(filter.filtered_count(), 0);
    // resolved-false guard: fires
    sb.record_write(p5, false, 0);
    filter.predict(&info(&sb));
    assert_eq!(filter.filtered_count(), 1);
}
