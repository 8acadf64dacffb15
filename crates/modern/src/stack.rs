//! Static-dispatch stacks for the modern predictor tier.

use std::fmt;

use predbranch_core::{
    build_predictor_stack, BranchInfo, BranchPredictor, Pgu, PredictorStack, SquashFilter,
    StackVariant,
};
use predbranch_sim::{PredWriteEvent, PredicateScoreboard};

use crate::mpp::Mpp;
use crate::spec::{build_modern, ModernSpec};
use crate::tage::Tage;

/// Generates [`ModernStack`] and its [`BranchPredictor`] delegation:
/// one variant per concrete modern predictor shape, plus the
/// transparent `Classic` embedding of the core enum. Structured like
/// core's `predictor_stack!` (which hardcodes its own enum name), and
/// emits the same [`StackVariant`] table so CLI listings are generated
/// from the dispatch token stream.
macro_rules! modern_stack {
    ($( $(#[$meta:meta])* $variant:ident($ty:ty) ),+ $(,)?) => {
        /// A statically-dispatched modern-tier predictor: one variant
        /// per concrete shape reachable from a [`ModernSpec`], with
        /// classic specs embedding the whole [`PredictorStack`] enum
        /// (including its `Dyn` escape hatch, which exotic modern
        /// shapes also fall back to).
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
            /// declaration order).
            pub const VARIANTS: &'static [StackVariant] = &[
                $( StackVariant { name: stringify!($variant), ty: stringify!($ty) }, )+
            ];

            /// Whether this stack dispatches statically (`false` only
            /// for a classic spec that itself fell back to the boxed
            /// escape hatch).
            pub fn is_statically_dispatched(&self) -> bool {
                match self {
                    ModernStack::Classic(inner) => inner.is_statically_dispatched(),
                    _ => true,
                }
            }
        }

        impl BranchPredictor for ModernStack {
            fn name(&self) -> String {
                match self { $( ModernStack::$variant(p) => p.name(), )+ }
            }

            #[inline]
            fn predict(&mut self, branch: &BranchInfo, scoreboard: &PredicateScoreboard) -> bool {
                match self { $( ModernStack::$variant(p) => p.predict(branch, scoreboard), )+ }
            }

            #[inline]
            fn speculate(
                &mut self,
                branch: &BranchInfo,
                predicted: bool,
                scoreboard: &PredicateScoreboard,
            ) {
                match self { $( ModernStack::$variant(p) => p.speculate(branch, predicted, scoreboard), )+ }
            }

            #[inline]
            fn commit(&mut self, branch: &BranchInfo, taken: bool, scoreboard: &PredicateScoreboard) {
                match self { $( ModernStack::$variant(p) => p.commit(branch, taken, scoreboard), )+ }
            }

            #[inline]
            fn squash(&mut self, branch: &BranchInfo, taken: bool, scoreboard: &PredicateScoreboard) {
                match self { $( ModernStack::$variant(p) => p.squash(branch, taken, scoreboard), )+ }
            }

            #[inline]
            fn update(&mut self, branch: &BranchInfo, taken: bool, scoreboard: &PredicateScoreboard) {
                match self { $( ModernStack::$variant(p) => p.update(branch, taken, scoreboard), )+ }
            }

            #[inline]
            fn on_pred_write(&mut self, write: &PredWriteEvent) {
                match self { $( ModernStack::$variant(p) => p.on_pred_write(write), )+ }
            }

            fn storage_bits(&self) -> usize {
                match self { $( ModernStack::$variant(p) => p.storage_bits(), )+ }
            }
        }
    };
}

modern_stack! {
    /// Any classic predictor shape, embedded whole (including the core
    /// enum's boxed `Dyn` escape hatch).
    Classic(PredictorStack),
    /// TAGE, plain or predicate-aware.
    Tage(Tage),
    /// Squash filter over TAGE.
    SfpfTage(SquashFilter<Tage>),
    /// Predicate global update over TAGE.
    PguTage(Pgu<Tage>),
    /// Both techniques over TAGE.
    SfpfPguTage(SquashFilter<Pgu<Tage>>),
    /// Multiperspective perceptron, plain or predicate-aware.
    Mpp(Mpp),
    /// Squash filter over the multiperspective perceptron.
    SfpfMpp(SquashFilter<Mpp>),
    /// Predicate global update over the multiperspective perceptron.
    PguMpp(Pgu<Mpp>),
    /// Both techniques over the multiperspective perceptron.
    SfpfPguMpp(SquashFilter<Pgu<Mpp>>),
}

impl fmt::Debug for ModernStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModernStack({})", self.name())
    }
}

/// Applies the SFPF policy knobs from a spec to a freshly built filter
/// (local mirror of the core stack's private helper).
fn configure_filter<P>(
    filter: SquashFilter<P>,
    known_true: bool,
    update_filtered: bool,
    learned_guards: Option<u32>,
) -> SquashFilter<P> {
    let filter = filter
        .with_known_true(known_true)
        .with_update_filtered(update_filtered);
    match learned_guards {
        Some(bits) => filter.with_learned_guards(bits),
        None => filter,
    }
}

fn tage_from(tables: u32, index_bits: u32, max_history: u32, predicate: bool) -> Tage {
    let t = Tage::new(tables, index_bits, max_history);
    if predicate {
        t.predicate_aware()
    } else {
        t
    }
}

fn mpp_from(index_bits: u32, predicate: bool) -> Mpp {
    let m = Mpp::new(index_bits);
    if predicate {
        m.predicate_aware()
    } else {
        m
    }
}

/// Builds a statically-dispatched predictor from a modern spec — the
/// hot-path counterpart of [`build_modern`], mirroring its composition
/// rules exactly. Shapes outside the enumerated set (e.g. doubly-nested
/// filters over a modern base) fall back to the boxed escape hatch via
/// `Classic(Dyn)`.
pub fn build_modern_stack(spec: &ModernSpec) -> ModernStack {
    match spec {
        ModernSpec::Classic(inner) => ModernStack::Classic(build_predictor_stack(inner)),
        ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            predicate,
        } => ModernStack::Tage(tage_from(*tables, *index_bits, *max_history, *predicate)),
        ModernSpec::Mpp {
            index_bits,
            predicate,
        } => ModernStack::Mpp(mpp_from(*index_bits, *predicate)),
        ModernSpec::Sfpf {
            base,
            known_true,
            update_filtered,
            learned_guards,
        } => {
            macro_rules! wrap {
                ($variant:ident, $inner:expr) => {
                    ModernStack::$variant(configure_filter(
                        SquashFilter::new($inner),
                        *known_true,
                        *update_filtered,
                        *learned_guards,
                    ))
                };
            }
            match &**base {
                ModernSpec::Tage {
                    tables,
                    index_bits,
                    max_history,
                    predicate,
                } => wrap!(
                    SfpfTage,
                    tage_from(*tables, *index_bits, *max_history, *predicate)
                ),
                ModernSpec::Mpp {
                    index_bits,
                    predicate,
                } => wrap!(SfpfMpp, mpp_from(*index_bits, *predicate)),
                ModernSpec::Pgu { base: inner, delay } => match &**inner {
                    ModernSpec::Tage {
                        tables,
                        index_bits,
                        max_history,
                        predicate,
                    } => wrap!(
                        SfpfPguTage,
                        Pgu::new(tage_from(*tables, *index_bits, *max_history, *predicate))
                            .with_delay(*delay)
                    ),
                    ModernSpec::Mpp {
                        index_bits,
                        predicate,
                    } => wrap!(
                        SfpfPguMpp,
                        Pgu::new(mpp_from(*index_bits, *predicate)).with_delay(*delay)
                    ),
                    // PGU over a classic base is a classic shape; over
                    // anything else, mirror build_modern's degradation
                    ModernSpec::Classic(c) => {
                        let classic = c.clone().with_pgu(*delay).with_sfpf_policy(
                            *known_true,
                            *update_filtered,
                            *learned_guards,
                        );
                        ModernStack::Classic(build_predictor_stack(&classic))
                    }
                    _ => ModernStack::Classic(PredictorStack::Dyn(build_modern(spec))),
                },
                ModernSpec::Classic(c) => {
                    let classic =
                        c.clone()
                            .with_sfpf_policy(*known_true, *update_filtered, *learned_guards);
                    ModernStack::Classic(build_predictor_stack(&classic))
                }
                // nested filters leave the enumerated set
                ModernSpec::Sfpf { .. } => {
                    ModernStack::Classic(PredictorStack::Dyn(build_modern(spec)))
                }
            }
        }
        ModernSpec::Pgu { base, delay } => match &**base {
            ModernSpec::Tage {
                tables,
                index_bits,
                max_history,
                predicate,
            } => ModernStack::PguTage(
                Pgu::new(tage_from(*tables, *index_bits, *max_history, *predicate))
                    .with_delay(*delay),
            ),
            ModernSpec::Mpp {
                index_bits,
                predicate,
            } => {
                ModernStack::PguMpp(Pgu::new(mpp_from(*index_bits, *predicate)).with_delay(*delay))
            }
            ModernSpec::Classic(c) => {
                ModernStack::Classic(build_predictor_stack(&c.clone().with_pgu(*delay)))
            }
            ModernSpec::Sfpf {
                base: inner,
                known_true,
                update_filtered,
                learned_guards,
            } => {
                // sfpf(pgu(base)): the filter sits in front of PGU
                let pgu = ModernSpec::Pgu {
                    base: inner.clone(),
                    delay: *delay,
                };
                build_modern_stack(&ModernSpec::Sfpf {
                    base: Box::new(pgu),
                    known_true: *known_true,
                    update_filtered: *update_filtered,
                    learned_guards: *learned_guards,
                })
            }
            other => build_modern_stack(other),
        },
    }
}

/// Builds the predictor bank for a gang-replay unit: one
/// statically-dispatched [`ModernStack`] lane per spec, in lane order.
/// This is the per-lane state split the gang path consumes — each lane
/// is a self-contained stack (no sharing between lanes), so a
/// `GangHarness` can wrap each in its own in-flight window and advance
/// all of them over one decoded event pass. The single-stack
/// [`build_modern_stack`] path is untouched: a bank of one is exactly
/// one `build_modern_stack` call.
pub fn build_modern_bank<'a>(specs: impl IntoIterator<Item = &'a ModernSpec>) -> Vec<ModernStack> {
    specs.into_iter().map(build_modern_stack).collect()
}

/// Helper: rebuild a classic SFPF spec carrying explicit policy knobs.
trait WithSfpfPolicy {
    fn with_sfpf_policy(
        self,
        known_true: bool,
        update_filtered: bool,
        learned_guards: Option<u32>,
    ) -> Self;
}

impl WithSfpfPolicy for predbranch_core::PredictorSpec {
    fn with_sfpf_policy(
        self,
        known_true: bool,
        update_filtered: bool,
        learned_guards: Option<u32>,
    ) -> Self {
        predbranch_core::PredictorSpec::Sfpf {
            base: Box::new(self),
            known_true,
            update_filtered,
            learned_guards,
        }
    }
}

/// Every stack variant an experiment CLI can reach: the modern
/// variants (minus the transparent `Classic` embedding) followed by
/// every classic variant. Generated from the same token streams as the
/// two enums, so a printed listing can never drift from the dispatch
/// code — the CLI integration test diffs the binary's output against
/// this table.
pub fn all_stack_variants() -> Vec<StackVariant> {
    ModernStack::VARIANTS
        .iter()
        .filter(|v| v.name != "Classic")
        .chain(PredictorStack::VARIANTS.iter())
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modern_shapes() -> Vec<&'static str> {
        vec![
            "tage:4/8/48",
            "ptage:4/8/48",
            "mpp:10",
            "pmpp:10",
            "tage:4/8/48+sfpf",
            "tage:4/8/48+pgu8",
            "tage:4/8/48+sfpf+pgu8",
            "ptage:4/8/48+sfpf+pgu8",
            "mpp:10+sfpf",
            "mpp:10+pgu8",
            "mpp:10+sfpf+pgu8",
            "pmpp:10+sfpf+pgu8",
            "gshare:10/10",
            "gshare:10/10+sfpf+pgu8",
            "tournament:10/10/10/10",
        ]
    }

    #[test]
    fn every_spec_shape_is_statically_dispatched() {
        for text in modern_shapes() {
            let spec: ModernSpec = text.parse().unwrap();
            let stack = build_modern_stack(&spec);
            assert!(stack.is_statically_dispatched(), "{text} fell back to dyn");
        }
    }

    #[test]
    fn bank_builds_one_lane_per_spec_in_order() {
        let specs: Vec<ModernSpec> = modern_shapes().iter().map(|t| t.parse().unwrap()).collect();
        let bank = build_modern_bank(&specs);
        assert_eq!(bank.len(), specs.len());
        for (lane, spec) in bank.iter().zip(&specs) {
            assert_eq!(lane.name(), build_modern_stack(spec).name());
        }
    }

    #[test]
    fn stack_name_matches_boxed_builder() {
        for text in modern_shapes() {
            let spec: ModernSpec = text.parse().unwrap();
            assert_eq!(
                build_modern_stack(&spec).name(),
                build_modern(&spec).name(),
                "{text}"
            );
        }
    }

    #[test]
    fn pgu_then_sfpf_order_is_rewritten() {
        let spec: ModernSpec = "mpp:10+pgu4+sfpf".parse().unwrap();
        let stack = build_modern_stack(&spec);
        assert_eq!(stack.name(), "sfpf+pgu[d4]+mpp-10");
        assert!(matches!(stack, ModernStack::SfpfPguMpp(_)));
    }

    #[test]
    fn nested_filters_use_the_escape_hatch() {
        let spec = nested_filter_spec();
        let stack = build_modern_stack(&spec);
        assert!(!stack.is_statically_dispatched());
        assert_eq!(stack.name(), build_modern(&spec).name());
    }

    /// The nested-filter spec no stack variant covers: it must fall back
    /// to the boxed composition.
    fn nested_filter_spec() -> ModernSpec {
        ModernSpec::Sfpf {
            base: Box::new("tage:4/8/48+sfpf".parse::<ModernSpec>().unwrap()),
            known_true: false,
            update_filtered: true,
            learned_guards: None,
        }
    }

    #[test]
    fn stack_behaves_like_boxed_predictor() {
        use predbranch_core::{HarnessConfig, InsertFilter, PredictionHarness, Timing};
        use predbranch_isa::assemble;
        use predbranch_sim::{Executor, Memory};

        // a counted loop with a guard that holds every fourth trip: its
        // branch and the loop exit have guards resolved at fetch (SFPF
        // fires on the known-false ones), a third branch's guard is
        // still in flight, and every trip writes predicates (PGU)
        let program = assemble(
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
        .unwrap();
        let mut specs: Vec<ModernSpec> = Vec::new();
        for base in ["tage:4/8/48", "ptage:4/8/48", "mpp:10", "pmpp:10"] {
            for modifiers in ["", "+sfpf", "+pgu8", "+sfpf+pgu8", "+pgu8+sfpf"] {
                specs.push(format!("{base}{modifiers}").parse().unwrap());
            }
        }
        specs.push(nested_filter_spec());
        for spec in specs {
            let config = HarnessConfig {
                timing: Timing::new(4, 8),
                insert: InsertFilter::All,
            };
            let mut boxed = PredictionHarness::new(build_modern(&spec), config.clone());
            Executor::new(&program, Memory::new()).run(&mut boxed, 100_000);
            let mut stack = PredictionHarness::new(build_modern_stack(&spec), config);
            Executor::new(&program, Memory::new()).run(&mut stack, 100_000);
            let (_, boxed_metrics) = boxed.into_parts();
            let (_, stack_metrics) = stack.into_parts();
            assert!(boxed_metrics.all.branches.get() > 0, "{spec}");
            assert_eq!(boxed_metrics, stack_metrics, "{spec}");
        }
    }

    #[test]
    fn debug_shows_name() {
        let stack = build_modern_stack(&"mpp:10".parse().unwrap());
        assert_eq!(format!("{stack:?}"), "ModernStack(mpp-10)");
    }

    #[test]
    fn variants_table_tracks_both_enums() {
        let all = all_stack_variants();
        let names: Vec<&str> = all.iter().map(|v| v.name).collect();
        // no Classic passthrough, no duplicates, both tiers present
        assert!(!names.contains(&"Classic"));
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.contains(&"Tage"));
        assert!(names.contains(&"SfpfPguMpp"));
        assert!(names.contains(&"SfpfPguGshare"));
        assert!(names.contains(&"Dyn"));
        let both = all.iter().find(|v| v.name == "SfpfPguTage").unwrap();
        assert_eq!(both.type_name(), "SquashFilter<Pgu<Tage>>");
    }
}
