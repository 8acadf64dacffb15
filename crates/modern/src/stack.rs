//! Predictor stacks: one flat enum over every concrete predictor shape a
//! spec can name, and the one walk that builds every spec onto it.
//!
//! [`ModernStack`] has one variant per shape, so a single `match` at the
//! enum boundary stands where boxed wrappers would cost a virtual call
//! per SFPF/PGU layer, and the compiler can inline the whole wrapper
//! composition into the harness loop. A gang lane pays even that match
//! once per batch: it hands its loop to [`BranchPredictor::accept`],
//! which runs it against the payload. [`build_modern_stack`] is the one
//! builder; [`build_modern`] boxes the stack it returns.

use std::fmt;

use predbranch_core::{
    Agree, Bimodal, BranchInfo, BranchPredictor, Gshare, Local, Perceptron, PerfectGuard, Pgu,
    PredictorVisitor, SquashFilter, StaticPredictor, Tournament,
};
use predbranch_sim::PredWriteEvent;

use crate::mpp::Mpp;
use crate::spec::ModernSpec;
use crate::tage::Tage;

/// One enumerated variant of [`ModernStack`]: the variant's name and the
/// concrete predictor type it monomorphizes.
///
/// Emitted by the stack macro alongside the enum itself, so CLI listings
/// of the available stacks are generated from the same token stream as
/// the dispatch code and can never drift from it (the CLI integration
/// tests diff the printed list against this table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackVariant {
    /// The enum variant name (e.g. `SfpfPguGshare`).
    pub name: &'static str,
    /// The concrete payload type as `stringify!` renders it — token
    /// fragments stringify with spaces between tokens, so prefer
    /// [`StackVariant::type_name`] for display.
    pub ty: &'static str,
}

impl StackVariant {
    /// The payload type with `stringify!`'s inter-token spaces removed
    /// (e.g. `SquashFilter<Pgu<Gshare>>`).
    pub fn type_name(&self) -> String {
        self.ty.replace(' ', "")
    }
}

/// Generates [`ModernStack`] from one row per base predictor: the base
/// variant and its payload type, its `+sfpf` variant, and — for bases
/// with global history — its `+pgu` and `+sfpf+pgu` variants. Emits the
/// enum (bases, then each wrapper group, then `Dyn`), its
/// [`StackVariant`] table, the [`BranchPredictor`] delegation (every
/// trait method is one `match` handing the call to the payload, and
/// `accept` hands a whole visitor to it), and the two wrapping steps
/// [`build_modern_stack`] composes.
macro_rules! modern_stack {
    ($(
        $(#[$meta:meta])*
        $base:ident($ty:ty), $sfpf:ident $(, $pgu:ident, $sfpf_pgu:ident)?;
    )+) => {
        modern_stack!(@enum
            $( $(#[$meta])* $base($ty), )+
            $(
                #[doc = concat!("Squash filter over `", stringify!($ty), "`.")]
                $sfpf(SquashFilter<$ty>),
            )+
            $($(
                #[doc = concat!("Predicate global update over `", stringify!($ty), "`.")]
                $pgu(Pgu<$ty>),
            )?)+
            $($(
                #[doc = concat!("Both techniques over `", stringify!($ty), "`.")]
                $sfpf_pgu(SquashFilter<Pgu<$ty>>),
            )?)+
            /// Boxed escape hatch for a filter over a filter, the one
            /// shape outside the enumerated set. The parser refuses a
            /// second filter modifier, so only a hand-built spec reaches
            /// it.
            Dyn(Box<dyn BranchPredictor>),
        );

        impl ModernStack {
            /// Wraps a bare base in PGU. A base without global history
            /// has no insertion point, so PGU degrades to the base.
            fn with_pgu(self, delay: u64) -> ModernStack {
                match self {
                    $($( ModernStack::$base(p) => ModernStack::$pgu(Pgu::new(p).with_delay(delay)), )?)+
                    other => other,
                }
            }

            /// Puts a filter in front of this stack. A filter over a
            /// filter leaves the enumerated set.
            fn with_sfpf(self, filter: Filter) -> ModernStack {
                match self {
                    $( ModernStack::$base(p) => ModernStack::$sfpf(filter.wrap(p)), )+
                    $($( ModernStack::$pgu(p) => ModernStack::$sfpf_pgu(filter.wrap(p)), )?)+
                    other => ModernStack::Dyn(Box::new(filter.wrap(other))),
                }
            }
        }
    };
    (@enum $( $(#[$meta:meta])* $variant:ident($ty:ty), )+) => {
        /// A statically-dispatched predictor: one variant per concrete
        /// shape reachable from a [`ModernSpec`] — each base, the base
        /// under SFPF, and each global-history base under PGU and under
        /// both — plus the boxed [`ModernStack::Dyn`] escape hatch.
        ///
        /// [`build_modern_stack`] builds it, and [`build_modern`] returns
        /// the same stack boxed.
        ///
        /// # Examples
        ///
        /// ```
        /// use predbranch_core::BranchPredictor;
        /// use predbranch_modern::{build_modern_stack, ModernSpec};
        ///
        /// let spec: ModernSpec = "tage:4/10/64+sfpf+pgu8".parse().unwrap();
        /// let p = build_modern_stack(&spec);
        /// assert_eq!(p.name(), "sfpf+pgu[d8]+tage-4/10/64");
        /// assert!(p.is_statically_dispatched());
        /// ```
        pub enum ModernStack {
            $( $(#[$meta])* $variant($ty), )+
        }

        impl ModernStack {
            /// Every enumerated variant, generated from the same token
            /// stream as the enum (one [`StackVariant`] per variant, in
            /// declaration order, including the `Dyn` escape hatch).
            pub const VARIANTS: &'static [StackVariant] = &[
                $( StackVariant { name: stringify!($variant), ty: stringify!($ty) }, )+
            ];

            /// Whether this stack dispatches statically (`false` only for
            /// the boxed [`ModernStack::Dyn`] escape hatch).
            pub fn is_statically_dispatched(&self) -> bool {
                !matches!(self, ModernStack::Dyn(_))
            }
        }

        impl BranchPredictor for ModernStack {
            fn name(&self) -> String {
                match self { $( ModernStack::$variant(p) => p.name(), )+ }
            }

            #[inline]
            fn predict(&mut self, branch: &BranchInfo) -> bool {
                match self { $( ModernStack::$variant(p) => p.predict(branch), )+ }
            }

            #[inline]
            fn speculate(&mut self, branch: &BranchInfo, predicted: bool) {
                match self { $( ModernStack::$variant(p) => p.speculate(branch, predicted), )+ }
            }

            #[inline]
            fn commit(&mut self, branch: &BranchInfo, taken: bool) {
                match self { $( ModernStack::$variant(p) => p.commit(branch, taken), )+ }
            }

            #[inline]
            fn squash(&mut self, branch: &BranchInfo, taken: bool) {
                match self { $( ModernStack::$variant(p) => p.squash(branch, taken), )+ }
            }

            #[inline]
            fn update(&mut self, branch: &BranchInfo, taken: bool) {
                match self { $( ModernStack::$variant(p) => p.update(branch, taken), )+ }
            }

            #[inline]
            fn on_pred_write(&mut self, write: &PredWriteEvent) {
                match self { $( ModernStack::$variant(p) => p.on_pred_write(write), )+ }
            }

            fn wants_pred_writes(&self) -> bool {
                match self { $( ModernStack::$variant(p) => p.wants_pred_writes(), )+ }
            }

            fn storage_bits(&self) -> usize {
                match self { $( ModernStack::$variant(p) => p.storage_bits(), )+ }
            }

            /// Visits the payload, so a harness loop handed over as
            /// `visitor` runs monomorphized for this variant's type.
            fn accept<V: PredictorVisitor>(&mut self, visitor: V) -> V::Output {
                match self { $( ModernStack::$variant(p) => visitor.visit(p), )+ }
            }
        }
    };
}

modern_stack! {
    /// A static (stateless) predictor.
    Static(StaticPredictor), SfpfStatic;
    /// Per-PC 2-bit counters.
    Bimodal(Bimodal), SfpfBimodal;
    /// Global-history gshare.
    Gshare(Gshare), SfpfGshare, PguGshare, SfpfPguGshare;
    /// Two-level local predictor.
    Local(Local), SfpfLocal;
    /// McFarling tournament.
    Tournament(Tournament), SfpfTournament, PguTournament, SfpfPguTournament;
    /// Agree predictor.
    Agree(Agree), SfpfAgree, PguAgree, SfpfPguAgree;
    /// Perceptron predictor.
    Perceptron(Perceptron), SfpfPerceptron, PguPerceptron, SfpfPguPerceptron;
    /// Perfect-guard oracle.
    Oracle(PerfectGuard), SfpfOracle;
    /// TAGE, plain or predicate-aware.
    Tage(Tage), SfpfTage, PguTage, SfpfPguTage;
    /// Multiperspective perceptron, plain or predicate-aware.
    Mpp(Mpp), SfpfMpp, PguMpp, SfpfPguMpp;
}

impl fmt::Debug for ModernStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModernStack({})", self.name())
    }
}

/// The policy knobs of one SFPF node in a spec.
#[derive(Clone, Copy)]
struct Filter {
    known_true: bool,
    update_filtered: bool,
    learned_guards: Option<u32>,
}

impl Filter {
    fn wrap<P>(self, inner: P) -> SquashFilter<P> {
        let filter = SquashFilter::new(inner)
            .with_known_true(self.known_true)
            .with_update_filtered(self.update_filtered);
        match self.learned_guards {
            Some(bits) => filter.with_learned_guards(bits),
            None => filter,
        }
    }
}

/// The wrappers a spec names around its base, gathered outside-in by one
/// walk that ends at the base and builds it.
#[derive(Default)]
struct Wrappers {
    /// SFPF policies, outermost first.
    filters: Vec<Filter>,
    /// The innermost PGU delay: the walk overwrites it at every PGU node,
    /// so an inner node wins.
    delay: Option<u64>,
}

impl Wrappers {
    fn walk(&mut self, spec: &ModernSpec) -> ModernStack {
        match spec {
            ModernSpec::StaticNotTaken => ModernStack::Static(StaticPredictor::NotTaken),
            ModernSpec::StaticBtfn => ModernStack::Static(StaticPredictor::Btfn),
            ModernSpec::Bimodal { index_bits } => ModernStack::Bimodal(Bimodal::new(*index_bits)),
            ModernSpec::Gshare {
                index_bits,
                history_bits,
            } => ModernStack::Gshare(Gshare::new(*index_bits, *history_bits)),
            ModernSpec::Local {
                bht_bits,
                history_bits,
                pattern_bits,
            } => ModernStack::Local(Local::new(*bht_bits, *history_bits, *pattern_bits)),
            ModernSpec::Tournament {
                gshare_bits,
                history_bits,
                bimodal_bits,
                chooser_bits,
            } => ModernStack::Tournament(Tournament::new(
                *gshare_bits,
                *history_bits,
                *bimodal_bits,
                *chooser_bits,
            )),
            ModernSpec::Agree {
                index_bits,
                history_bits,
            } => ModernStack::Agree(Agree::new(*index_bits, *history_bits)),
            ModernSpec::Perceptron {
                index_bits,
                history_bits,
            } => ModernStack::Perceptron(Perceptron::new(*index_bits, *history_bits)),
            ModernSpec::OracleGuard => ModernStack::Oracle(PerfectGuard::new()),
            ModernSpec::Tage {
                tables,
                index_bits,
                max_history,
                predicate,
            } => {
                let tage = Tage::new(*tables, *index_bits, *max_history);
                ModernStack::Tage(if *predicate {
                    tage.predicate_aware()
                } else {
                    tage
                })
            }
            ModernSpec::Mpp {
                index_bits,
                predicate,
            } => {
                let mpp = Mpp::new(*index_bits);
                ModernStack::Mpp(if *predicate {
                    mpp.predicate_aware()
                } else {
                    mpp
                })
            }
            ModernSpec::Sfpf {
                base,
                known_true,
                update_filtered,
                learned_guards,
            } => {
                self.filters.push(Filter {
                    known_true: *known_true,
                    update_filtered: *update_filtered,
                    learned_guards: *learned_guards,
                });
                self.walk(base)
            }
            ModernSpec::Pgu { base, delay } => {
                self.delay = Some(*delay);
                self.walk(base)
            }
        }
    }
}

/// Builds a statically-dispatched predictor from a spec: the one walk
/// behind every predictor the workspace builds.
///
/// The walk collects the spec's wrappers and builds its base; the
/// wrappers then compose by four rules:
///
/// - the filter sits in front of PGU;
/// - PGU over a base without global history degrades to that base,
///   which keeps sweep tables total without special cases;
/// - of nested PGU nodes the innermost delay wins;
/// - a filter over a filter falls back to [`ModernStack::Dyn`].
///
/// The parser names each technique at most once, so only a hand-built
/// spec reaches the last two rules.
pub fn build_modern_stack(spec: &ModernSpec) -> ModernStack {
    let mut wrappers = Wrappers::default();
    let base = wrappers.walk(spec);
    let stack = match wrappers.delay {
        Some(delay) => base.with_pgu(delay),
        None => base,
    };
    wrappers
        .filters
        .into_iter()
        .rev()
        .fold(stack, ModernStack::with_sfpf)
}

/// Builds a spec as a boxed predictor: the stack [`build_modern_stack`]
/// returns, behind `Box<dyn BranchPredictor>`, for callers that keep
/// predictors of several specs side by side or wrap one in an adapter.
pub fn build_modern(spec: &ModernSpec) -> Box<dyn BranchPredictor> {
    Box::new(build_modern_stack(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_core::{GangHarness, HarnessConfig, InsertFilter, PredictionHarness, Timing};
    use predbranch_isa::{assemble, Program};
    use predbranch_sim::{EventSink, Executor, Memory, TraceSink, EVENT_BATCH_CAPACITY};

    /// A counted loop with a guard that holds every fourth trip: its
    /// branch and the loop exit have guards resolved at fetch (SFPF fires
    /// on the known-false and, with `sfpf!`, the known-true ones), a third
    /// branch's guard is still in flight, and every trip writes
    /// predicates (PGU).
    fn program() -> Program {
        assemble(
            r#"
                mov r1 = 0
            loop:
                and r2 = r1, 3
                cmp.eq p3, p4 = r2, 0
                add r1 = r1, 1
                cmp.lt p1, p2 = r1, 200
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
            "#,
        )
        .unwrap()
    }

    /// An SFPF node with the given policy.
    fn filter(
        spec: ModernSpec,
        known_true: bool,
        update_filtered: bool,
        learned_guards: Option<u32>,
    ) -> ModernSpec {
        ModernSpec::Sfpf {
            base: Box::new(spec),
            known_true,
            update_filtered,
            learned_guards,
        }
    }

    /// The composition rules as data: each spec with the name its
    /// predictor reports and whether it dispatches statically. The parsed
    /// rows take every base family through the modifiers the grammar
    /// spells, in both orders; the hand-built rows name what the parser
    /// refuses (an outer PGU around a filtered inner one, a filter over a
    /// filter) and the filter policies it has no spelling for.
    fn shapes() -> Vec<(ModernSpec, &'static str, bool)> {
        let parse = |text: &str| text.parse::<ModernSpec>().unwrap();
        let mut rows: Vec<_> = [
            ("nt", "static-nt"),
            ("btfn+sfpf", "sfpf+static-btfn"),
            ("oracle+sfpf!", "sfpf±+oracle-guard"),
            ("bimodal:8+pgu4", "bimodal-8"),
            ("local:6/6/8+pgu4+sfpf", "sfpf+local-6/6/8"),
            ("gshare:10/10", "gshare-10/10"),
            ("gshare:10/10+sfpf+pgu8", "sfpf+pgu[d8]+gshare-10/10"),
            ("tournament:10/10/10/10+pgu8", "pgu[d8]+tournament-10"),
            ("agree:8/8+sfpf", "sfpf+agree-8/8"),
            ("perceptron:6/12+pgu0+sfpf", "sfpf+pgu+perceptron-6/12"),
            ("tage:4/8/48", "tage-4/8/48"),
            ("ptage:4/8/48+sfpf", "sfpf+ptage-4/8/48"),
            ("tage:4/8/48+pgu8", "pgu[d8]+tage-4/8/48"),
            ("tage:4/8/48+sfpf+pgu8", "sfpf+pgu[d8]+tage-4/8/48"),
            ("ptage:4/8/48+pgu0+sfpf!", "sfpf±+pgu+ptage-4/8/48"),
            ("mpp:10", "mpp-10"),
            ("pmpp:10+sfpf", "sfpf+pmpp-10"),
            ("mpp:10+pgu8", "pgu[d8]+mpp-10"),
            ("pmpp:10+sfpf+pgu8", "sfpf+pgu[d8]+pmpp-10"),
        ]
        .into_iter()
        .map(|(text, name)| (parse(text), name, true))
        .collect();
        rows.extend([
            // the innermost PGU delay wins
            (
                parse("gshare:10/10+pgu4+sfpf").with_pgu(8),
                "sfpf+pgu[d4]+gshare-10/10",
                true,
            ),
            (
                parse("tage:4/8/48+pgu4+sfpf").with_pgu(8),
                "sfpf+pgu[d4]+tage-4/8/48",
                true,
            ),
            (
                parse("mpp:10+pgu4+sfpf").with_pgu(8),
                "sfpf+pgu[d4]+mpp-10",
                true,
            ),
            // filter policies beyond `+sfpf` and `+sfpf!`
            (
                filter(parse("gshare:10/10+pgu8"), false, false, None),
                "sfpf+pgu[d8]+gshare-10/10",
                true,
            ),
            (
                filter(parse("pmpp:10"), false, true, Some(6)),
                "sfpf+pmpp-10",
                true,
            ),
            // a filter over a filter leaves the enumerated set
            (
                parse("tage:4/8/48+sfpf").with_sfpf(),
                "sfpf+sfpf+tage-4/8/48",
                false,
            ),
            (
                filter(parse("ptage:4/8/48+pgu4+sfpf"), true, true, None),
                "sfpf±+sfpf+pgu[d4]+ptage-4/8/48",
                false,
            ),
        ]);
        rows
    }

    /// Every shape the parser reaches dispatches statically, and each
    /// row builds the name it pins. Each row also runs as a gang lane
    /// beside a lane that ignores predicate writes and one that reads
    /// them, against a solo harness, which hands every write to its
    /// predictor. A gang hands writes only to lanes that ask for them,
    /// so a wrapper that under-reports `wants_pred_writes` starves its
    /// inner PGU or predicate history and shows up here.
    #[test]
    fn every_spec_shape_is_statically_dispatched() {
        let rows = shapes();
        for (spec, name, statically) in &rows {
            let stack = build_modern_stack(spec);
            assert_eq!(stack.name(), *name, "{spec:?}");
            assert_eq!(spec.to_string(), *name, "{spec:?}");
            assert_eq!(stack.is_statically_dispatched(), *statically, "{spec:?}");
        }

        let mut trace = TraceSink::new();
        Executor::new(&program(), Memory::new()).run(&mut trace, 100_000);
        let events = trace.events();
        let config = |retire| HarnessConfig {
            timing: Timing::new(4, retire),
            insert: InsertFilter::All,
        };
        let solo = |spec: &ModernSpec, retire| {
            let mut harness = PredictionHarness::new(build_modern(spec), config(retire));
            harness.replay_events(events);
            harness.into_parts().1
        };
        let neighbours: [ModernSpec; 2] =
            ["gshare:10/10", "gshare:10/10+pgu8"].map(|text| text.parse().unwrap());
        for retire in [0, 8] {
            let neighbours_want: Vec<_> = neighbours.iter().map(|n| solo(n, retire)).collect();
            for (spec, ..) in &rows {
                let want = solo(spec, retire);
                assert!(want.all.branches.get() > 0, "{spec:?}");
                for batch in [EVENT_BATCH_CAPACITY, 7] {
                    let mut gang = GangHarness::new();
                    for lane in neighbours.iter().chain([spec]) {
                        gang.push_lane(build_modern_stack(lane), config(retire));
                    }
                    for chunk in events.chunks(batch) {
                        gang.events(chunk);
                    }
                    let mut got = gang.into_metrics();
                    let at = format!("{spec:?} at retire {retire}, batch {batch}");
                    assert_eq!(got.pop(), Some(want), "{at}");
                    assert_eq!(got, neighbours_want, "{at}");
                }
            }
        }
    }

    #[test]
    fn pgu_fallback_matches_boxed_builder() {
        // PGU over a history-less base degrades to the plain base
        let spec: ModernSpec = "bimodal:8+pgu4".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "bimodal-8");
        assert!(matches!(stack, ModernStack::Bimodal(_)));
        // ... including under a filter, and over another base without
        // global history
        let spec: ModernSpec = "bimodal:8+pgu4+sfpf".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "sfpf+bimodal-8");
        assert!(matches!(stack, ModernStack::SfpfBimodal(_)));
        let spec: ModernSpec = "local:6/6/8+pgu4".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "local-6/6/8");
        assert!(matches!(stack, ModernStack::Local(_)));
    }

    #[test]
    fn pgu_then_sfpf_order_is_rewritten() {
        let spec: ModernSpec = "mpp:10+pgu4+sfpf".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "sfpf+pgu[d4]+mpp-10");
        assert!(matches!(stack, ModernStack::SfpfPguMpp(_)));
        let spec: ModernSpec = "gshare:10/10+pgu4+sfpf".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "sfpf+pgu[d4]+gshare-10/10");
        assert!(matches!(stack, ModernStack::SfpfPguGshare(_)));
    }

    #[test]
    fn nested_filters_use_the_escape_hatch() {
        // a filter over a filter, over a modern base and a paper-era one
        for (spec, name) in [
            (
                filter("tage:4/8/48+sfpf".parse().unwrap(), false, true, None),
                "sfpf+sfpf+tage-4/8/48",
            ),
            (
                filter("gshare:8/8+sfpf".parse().unwrap(), true, true, None),
                "sfpf±+sfpf+gshare-8/8",
            ),
        ] {
            let stack = build_modern_stack(&spec);
            assert!(!stack.is_statically_dispatched(), "{spec:?}");
            assert_eq!(stack.name(), name);
        }
    }

    #[test]
    fn debug_shows_name() {
        let stack = build_modern_stack(&"mpp:10".parse().unwrap());
        assert_eq!(format!("{stack:?}"), "ModernStack(mpp-10)");
    }

    #[test]
    fn variants_table_tracks_the_enum() {
        let names: Vec<&str> = ModernStack::VARIANTS.iter().map(|v| v.name).collect();
        // ten bases, each under SFPF, six under PGU and both, and Dyn
        assert_eq!(names.len(), 10 + 10 + 6 + 6 + 1);
        assert_eq!(names.first(), Some(&"Static"));
        assert_eq!(names.last(), Some(&"Dyn"));
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        let type_of = |name: &str| {
            ModernStack::VARIANTS
                .iter()
                .find(|v| v.name == name)
                .unwrap()
                .type_name()
        };
        assert_eq!(type_of("Gshare"), "Gshare");
        assert_eq!(type_of("SfpfOracle"), "SquashFilter<PerfectGuard>");
        assert_eq!(type_of("PguMpp"), "Pgu<Mpp>");
        assert_eq!(type_of("SfpfPguTage"), "SquashFilter<Pgu<Tage>>");
        assert_eq!(type_of("Dyn"), "Box<dynBranchPredictor>");
    }

    #[test]
    fn variants_table_tracks_both_enums() {
        // the paper-era and modern tiers share the one table: every
        // global-history base of either tier under all four wrappings,
        // and the other bases without PGU
        let names: Vec<&str> = ModernStack::VARIANTS.iter().map(|v| v.name).collect();
        for base in ["Gshare", "Tournament", "Agree", "Perceptron", "Tage", "Mpp"] {
            for prefix in ["", "Sfpf", "Pgu", "SfpfPgu"] {
                let name = format!("{prefix}{base}");
                assert!(names.contains(&name.as_str()), "{name} missing");
            }
        }
        for base in ["Static", "Bimodal", "Local", "Oracle"] {
            assert!(names.contains(&base), "{base} missing");
            let sfpf = format!("Sfpf{base}");
            assert!(names.contains(&sfpf.as_str()), "{sfpf} missing");
            let pgu = format!("Pgu{base}");
            assert!(!names.contains(&pgu.as_str()), "{pgu} listed");
        }
        let both = |name: &str| {
            ModernStack::VARIANTS
                .iter()
                .find(|v| v.name == name)
                .unwrap()
                .type_name()
        };
        assert_eq!(both("SfpfPguGshare"), "SquashFilter<Pgu<Gshare>>");
        assert_eq!(both("SfpfPguTage"), "SquashFilter<Pgu<Tage>>");
    }
}
