//! Declarative specs for the modern predictor tier — a strict superset
//! of [`PredictorSpec`].

use std::fmt;

use predbranch_core::{build_predictor, BranchPredictor, Pgu, PredictorSpec, SquashFilter};

use crate::mpp::Mpp;
use crate::tage::Tage;

/// A predictor configuration that may be a classic spec or one of the
/// modern-tier predictors, with the same SFPF/PGU composition rules.
///
/// Every classic spec is representable as a transparent
/// [`ModernSpec::Classic`] — `Debug` and `Display` delegate to the
/// inner spec, so code keyed on a spec's `Debug` rendering (the bench
/// runner's result-cache keys) sees byte-identical output for classic
/// configurations.
///
/// # Examples
///
/// ```
/// use predbranch_modern::ModernSpec;
///
/// let classic: ModernSpec = "gshare:13/13+sfpf".parse().unwrap();
/// let modern: ModernSpec = "tage:4/10/64+pgu8".parse().unwrap();
/// assert!(matches!(classic, ModernSpec::Classic(_)));
/// assert!(matches!(modern, ModernSpec::Pgu { .. }));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub enum ModernSpec {
    /// A classic spec, built by the core builders unchanged.
    Classic(PredictorSpec),
    /// TAGE (`tage:T/I/H`), optionally predicate-aware (`ptage:T/I/H`).
    Tage {
        /// Number of tagged tables.
        tables: u32,
        /// log2 entries per tagged table (and the bimodal base).
        index_bits: u32,
        /// History length of the longest table.
        max_history: u32,
        /// Hash recent predicate outcomes into the table indices.
        predicate: bool,
    },
    /// Multiperspective perceptron (`mpp:I`), optionally with the
    /// predicate feature view (`pmpp:I`).
    Mpp {
        /// log2 entries per feature-view weight table.
        index_bits: u32,
        /// Add the predicate-history feature view.
        predicate: bool,
    },
    /// Squash false-path filter around a modern base.
    Sfpf {
        /// The wrapped configuration.
        base: Box<ModernSpec>,
        /// Also apply the known-true → taken rule.
        known_true: bool,
        /// Whether filtered branches still train the base predictor.
        update_filtered: bool,
        /// Learned pc → guard table bits (`None` = idealized).
        learned_guards: Option<u32>,
    },
    /// Predicate global update around a modern base.
    Pgu {
        /// The wrapped configuration.
        base: Box<ModernSpec>,
        /// Insertion delay in fetch slots.
        delay: u64,
    },
}

impl ModernSpec {
    /// Wraps this spec in the squash false-path filter (default
    /// policy). Classic specs stay classic (the wrapper is pushed into
    /// the inner [`PredictorSpec`]), keeping them transparent.
    pub fn with_sfpf(self) -> ModernSpec {
        match self {
            ModernSpec::Classic(c) => ModernSpec::Classic(c.with_sfpf()),
            other => ModernSpec::Sfpf {
                base: Box::new(other),
                known_true: false,
                update_filtered: true,
                learned_guards: None,
            },
        }
    }

    /// Wraps this spec in predicate global update with the given delay;
    /// classic specs stay classic.
    pub fn with_pgu(self, delay: u64) -> ModernSpec {
        match self {
            ModernSpec::Classic(c) => ModernSpec::Classic(c.with_pgu(delay)),
            other => ModernSpec::Pgu {
                base: Box::new(other),
                delay,
            },
        }
    }
}

impl From<PredictorSpec> for ModernSpec {
    fn from(spec: PredictorSpec) -> Self {
        ModernSpec::Classic(spec)
    }
}

impl From<&PredictorSpec> for ModernSpec {
    fn from(spec: &PredictorSpec) -> Self {
        ModernSpec::Classic(spec.clone())
    }
}

impl From<&ModernSpec> for ModernSpec {
    fn from(spec: &ModernSpec) -> Self {
        spec.clone()
    }
}

/// `Debug` is transparent for [`ModernSpec::Classic`] so a classic spec
/// renders exactly as the wrapped [`PredictorSpec`] would — cache keys
/// derived from the rendering are stable across the classic → modern
/// migration.
impl fmt::Debug for ModernSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModernSpec::Classic(inner) => inner.fmt(f),
            ModernSpec::Tage {
                tables,
                index_bits,
                max_history,
                predicate,
            } => f
                .debug_struct("Tage")
                .field("tables", tables)
                .field("index_bits", index_bits)
                .field("max_history", max_history)
                .field("predicate", predicate)
                .finish(),
            ModernSpec::Mpp {
                index_bits,
                predicate,
            } => f
                .debug_struct("Mpp")
                .field("index_bits", index_bits)
                .field("predicate", predicate)
                .finish(),
            ModernSpec::Sfpf {
                base,
                known_true,
                update_filtered,
                learned_guards,
            } => f
                .debug_struct("Sfpf")
                .field("base", base)
                .field("known_true", known_true)
                .field("update_filtered", update_filtered)
                .field("learned_guards", learned_guards)
                .finish(),
            ModernSpec::Pgu { base, delay } => f
                .debug_struct("Pgu")
                .field("base", base)
                .field("delay", delay)
                .finish(),
        }
    }
}

/// `Display` delegates to the built predictor's name, like the classic
/// spec.
impl fmt::Display for ModernSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&build_modern(self).name())
    }
}

/// Error from parsing a [`ModernSpec`] string. The rendered message
/// always carries the `bad predictor spec` prefix, whether the failure
/// came from the classic or the modern grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModernSpecError(String);

impl fmt::Display for ParseModernSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseModernSpecError {}

/// Parses the compact spec syntax, extending the classic grammar with
/// the modern bases:
///
/// ```text
/// base      := <any classic base> | tage:T/I/H | ptage:T/I/H
///            | mpp:I | pmpp:I
/// modifier  := +sfpf | +sfpf! | +pgu | +pguN
/// spec      := base modifier*
/// ```
///
/// A spec with a classic base parses to a transparent
/// [`ModernSpec::Classic`] via the core parser, modifiers included.
///
/// # Examples
///
/// ```
/// use predbranch_core::BranchPredictor;
/// use predbranch_modern::{build_modern, ModernSpec};
///
/// let spec: ModernSpec = "pmpp:12+sfpf".parse().unwrap();
/// assert_eq!(build_modern(&spec).name(), "sfpf+pmpp-12");
/// ```
impl std::str::FromStr for ModernSpec {
    type Err = ParseModernSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let base_kind = s
            .split('+')
            .next()
            .unwrap_or("")
            .trim()
            .split(':')
            .next()
            .unwrap_or("")
            .trim();
        if !matches!(base_kind, "tage" | "ptage" | "mpp" | "pmpp") {
            return s
                .parse::<PredictorSpec>()
                .map(ModernSpec::Classic)
                .map_err(|e| ParseModernSpecError(e.to_string()));
        }

        let err = |msg: &str| ParseModernSpecError(format!("bad predictor spec: {msg} in `{s}`"));
        let mut parts = s.split('+');
        let base_text = parts.next().ok_or_else(|| err("empty spec"))?.trim();
        let params = match base_text.split_once(':') {
            Some((_, p)) => p,
            None => "",
        };
        let nums: Vec<u32> = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split('/')
                .map(|n| n.trim().parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| err("bad numeric parameter"))?
        };
        let want = |n: usize| -> Result<(), ParseModernSpecError> {
            if nums.len() == n {
                Ok(())
            } else {
                Err(err("wrong parameter count"))
            }
        };
        let mut spec = match base_kind {
            "tage" | "ptage" => {
                want(3)?;
                ModernSpec::Tage {
                    tables: nums[0],
                    index_bits: nums[1],
                    max_history: nums[2],
                    predicate: base_kind == "ptage",
                }
            }
            // "mpp" | "pmpp" — the only kinds that reach here
            _ => {
                want(1)?;
                ModernSpec::Mpp {
                    index_bits: nums[0],
                    predicate: base_kind == "pmpp",
                }
            }
        };
        for modifier in parts {
            let modifier = modifier.trim();
            if modifier == "sfpf" {
                spec = spec.with_sfpf();
            } else if modifier == "sfpf!" {
                spec = ModernSpec::Sfpf {
                    base: Box::new(spec),
                    known_true: true,
                    update_filtered: true,
                    learned_guards: None,
                };
            } else if let Some(rest) = modifier.strip_prefix("pgu") {
                let delay: u64 = if rest.is_empty() {
                    8
                } else {
                    rest.parse().map_err(|_| err("bad pgu delay"))?
                };
                spec = spec.with_pgu(delay);
            } else {
                return Err(err("unknown modifier"));
            }
        }
        Ok(spec)
    }
}

/// Builds a TAGE instance from the spec's parameters.
pub(crate) fn tage_from(tables: u32, index_bits: u32, max_history: u32, predicate: bool) -> Tage {
    let t = Tage::new(tables, index_bits, max_history);
    if predicate {
        t.predicate_aware()
    } else {
        t
    }
}

/// Builds an MPP instance from the spec's parameters.
pub(crate) fn mpp_from(index_bits: u32, predicate: bool) -> Mpp {
    let m = Mpp::new(index_bits);
    if predicate {
        m.predicate_aware()
    } else {
        m
    }
}

/// Builds a boxed predictor from a modern spec — the superset
/// counterpart of [`predbranch_core::build_predictor`], with the same
/// composition rules: PGU requires a history-insertion point and
/// degrades to the plain base without one, and `sfpf(pgu(base))` keeps
/// the filter in front of PGU.
pub fn build_modern(spec: &ModernSpec) -> Box<dyn BranchPredictor> {
    match spec {
        ModernSpec::Classic(inner) => build_predictor(inner),
        ModernSpec::Tage {
            tables,
            index_bits,
            max_history,
            predicate,
        } => Box::new(tage_from(*tables, *index_bits, *max_history, *predicate)),
        ModernSpec::Mpp {
            index_bits,
            predicate,
        } => Box::new(mpp_from(*index_bits, *predicate)),
        ModernSpec::Sfpf {
            base,
            known_true,
            update_filtered,
            learned_guards,
        } => {
            let mut filter = SquashFilter::new(build_modern(base))
                .with_known_true(*known_true)
                .with_update_filtered(*update_filtered);
            if let Some(bits) = learned_guards {
                filter = filter.with_learned_guards(*bits);
            }
            Box::new(filter)
        }
        ModernSpec::Pgu { base, delay } => match &**base {
            ModernSpec::Classic(inner) => build_predictor(&inner.clone().with_pgu(*delay)),
            ModernSpec::Tage {
                tables,
                index_bits,
                max_history,
                predicate,
            } => Box::new(
                Pgu::new(tage_from(*tables, *index_bits, *max_history, *predicate))
                    .with_delay(*delay),
            ),
            ModernSpec::Mpp {
                index_bits,
                predicate,
            } => Box::new(Pgu::new(mpp_from(*index_bits, *predicate)).with_delay(*delay)),
            ModernSpec::Sfpf {
                base: inner,
                known_true,
                update_filtered,
                learned_guards,
            } => {
                // sfpf(pgu(base)): the filter sits in front of PGU,
                // mirroring the classic builder's rewrite
                let pgu = ModernSpec::Pgu {
                    base: inner.clone(),
                    delay: *delay,
                };
                build_modern(&ModernSpec::Sfpf {
                    base: Box::new(pgu),
                    known_true: *known_true,
                    update_filtered: *update_filtered,
                    learned_guards: *learned_guards,
                })
            }
            other => build_modern(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_specs_parse_transparently() {
        let spec: ModernSpec = "gshare:13/13+sfpf+pgu8".parse().unwrap();
        let classic: PredictorSpec = "gshare:13/13+sfpf+pgu8".parse().unwrap();
        assert_eq!(spec, ModernSpec::Classic(classic.clone()));
        // the Debug rendering (cache-key input) is byte-identical
        assert_eq!(format!("{spec:?}"), format!("{classic:?}"));
        assert_eq!(build_modern(&spec).name(), build_predictor(&classic).name());
    }

    #[test]
    fn debug_renderings_are_pinned() {
        // the rendering is a cell-key input: changing it invalidates every
        // checkpoint journal, so the literal text is pinned here
        for (text, debug) in [
            (
                "gshare:13/13+sfpf+pgu8",
                "Pgu { base: Sfpf { base: Gshare { index_bits: 13, history_bits: 13 }, \
                 known_true: false, update_filtered: true, learned_guards: None }, delay: 8 }",
            ),
            (
                "tage:4/10/64+sfpf+pgu8",
                "Pgu { base: Sfpf { base: Tage { tables: 4, index_bits: 10, max_history: 64, \
                 predicate: false }, known_true: false, update_filtered: true, \
                 learned_guards: None }, delay: 8 }",
            ),
            (
                "pmpp:12+pgu0",
                "Pgu { base: Mpp { index_bits: 12, predicate: true }, delay: 0 }",
            ),
        ] {
            let spec: ModernSpec = text.parse().unwrap();
            assert_eq!(format!("{spec:?}"), debug, "{text}");
        }
        let hand_built = ModernSpec::Pgu {
            base: Box::new(ModernSpec::Classic(PredictorSpec::Gshare {
                index_bits: 10,
                history_bits: 10,
            })),
            delay: 4,
        };
        assert_eq!(
            format!("{hand_built:?}"),
            "Pgu { base: Gshare { index_bits: 10, history_bits: 10 }, delay: 4 }"
        );
    }

    #[test]
    fn parses_every_modern_base() {
        for (text, expect_name) in [
            ("tage:4/10/64", "tage-4/10/64"),
            ("ptage:4/10/64", "ptage-4/10/64"),
            ("mpp:12", "mpp-12"),
            ("pmpp:12", "pmpp-12"),
        ] {
            let spec: ModernSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(build_modern(&spec).name(), expect_name, "{text}");
        }
    }

    #[test]
    fn modern_modifiers_compose_like_classic_ones() {
        for (text, expect_name) in [
            ("tage:4/10/64+sfpf", "sfpf+tage-4/10/64"),
            ("tage:4/10/64+pgu8", "pgu[d8]+tage-4/10/64"),
            ("tage:4/10/64+sfpf+pgu8", "sfpf+pgu[d8]+tage-4/10/64"),
            ("tage:4/10/64+pgu8+sfpf", "sfpf+pgu[d8]+tage-4/10/64"),
            ("mpp:12+sfpf+pgu", "sfpf+pgu[d8]+mpp-12"),
            ("pmpp:12+pgu0", "pgu+pmpp-12"),
        ] {
            let spec: ModernSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(build_modern(&spec).name(), expect_name, "{text}");
        }
    }

    #[test]
    fn display_matches_built_name() {
        let spec: ModernSpec = "ptage:4/10/64+sfpf".parse().unwrap();
        assert_eq!(spec.to_string(), "sfpf+ptage-4/10/64");
    }

    #[test]
    fn rejects_garbage_with_spec_prefix() {
        for bad in [
            "",
            "tage:9",
            "tage:4/10",
            "tage:4/10/64/2",
            "mpp",
            "mpp:a",
            "pmpp:12/12",
            "tage:4/10/64+magic",
            "mpp:12+pguX",
            "gshare:13",
            "unknown:1",
        ] {
            let e = bad.parse::<ModernSpec>().expect_err(bad);
            assert!(
                e.to_string().starts_with("bad predictor spec"),
                "`{bad}` error lost its prefix: {e}"
            );
        }
    }

    #[test]
    fn pgu_over_classic_base_rebuilds_classic_composition() {
        // a hand-built Pgu{Classic} (not producible by the parser, which
        // canonicalizes) still builds the classic composition
        let spec = ModernSpec::Pgu {
            base: Box::new(ModernSpec::Classic(PredictorSpec::Gshare {
                index_bits: 10,
                history_bits: 10,
            })),
            delay: 4,
        };
        assert_eq!(build_modern(&spec).name(), "pgu[d4]+gshare-10/10");
    }
}
