//! Declarative predictor specs: one enum naming every predictor shape
//! the study sweeps, and its compact text grammar.

use std::fmt;
use std::ops::RangeInclusive;

use predbranch_core::{
    BranchPredictor, MAX_HISTORY_BITS, MAX_PERCEPTRON_INDEX_BITS, MAX_TABLE_INDEX_BITS,
};
use predbranch_sim::DEFAULT_RESOLVE_LATENCY;

use crate::mpp::MAX_MPP_INDEX_BITS;
use crate::stack::build_modern_stack;
use crate::tage::{Tage, MAX_TAGE_INDEX_BITS, MAX_TAGE_TABLES};

/// A declarative predictor configuration: a base predictor, paper-era
/// or modern, optionally wrapped in the squash false-path filter and
/// predicate global update. Experiments sweep baselines × techniques ×
/// sizes from tables of specs instead of code.
///
/// The derived `Debug` rendering is an input of every cell key, so
/// renaming a variant or a field invalidates every checkpoint journal.
///
/// # Examples
///
/// ```
/// use predbranch_core::BranchPredictor;
/// use predbranch_modern::{build_modern, ModernSpec};
///
/// let spec = ModernSpec::Gshare { index_bits: 14, history_bits: 12 }
///     .with_sfpf()
///     .with_pgu(0);
/// assert_eq!(build_modern(&spec).name(), "sfpf+pgu+gshare-14/12");
///
/// let modern: ModernSpec = "tage:4/10/64+pgu8".parse().unwrap();
/// assert!(matches!(modern, ModernSpec::Pgu { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModernSpec {
    /// Always not-taken (`nt`).
    StaticNotTaken,
    /// Backward-taken / forward-not-taken (`btfn`).
    StaticBtfn,
    /// Per-PC 2-bit counters (`bimodal:I`).
    Bimodal {
        /// log2 table entries.
        index_bits: u32,
    },
    /// Global-history gshare (`gshare:I/H`).
    Gshare {
        /// log2 table entries.
        index_bits: u32,
        /// History register length.
        history_bits: u32,
    },
    /// Two-level local predictor (`local:B/H/P`).
    Local {
        /// log2 branch-history-table entries.
        bht_bits: u32,
        /// Per-branch history length.
        history_bits: u32,
        /// log2 pattern-table entries.
        pattern_bits: u32,
    },
    /// McFarling tournament (`tournament:G/H/B/C`).
    Tournament {
        /// log2 gshare table entries.
        gshare_bits: u32,
        /// Global history length.
        history_bits: u32,
        /// log2 bimodal table entries.
        bimodal_bits: u32,
        /// log2 chooser table entries.
        chooser_bits: u32,
    },
    /// Agree predictor: bias bits + gshare-indexed agree counters
    /// (`agree:I/H`, extension baseline).
    Agree {
        /// log2 table entries (bias and agree tables).
        index_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// Perceptron predictor over global history (`perceptron:I/H`,
    /// extension baseline).
    Perceptron {
        /// log2 weight-vector count.
        index_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// Perfect-guard oracle (`oracle`, 100% accurate upper bound).
    OracleGuard,
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
    /// The squash false-path filter around the base predictor.
    Sfpf {
        /// The wrapped configuration.
        base: Box<ModernSpec>,
        /// Also apply the known-true → taken rule.
        known_true: bool,
        /// Whether filtered branches still train the base predictor.
        update_filtered: bool,
        /// Model guard identification with a learned pc → guard table of
        /// `2^n` entries (`None` = idealized decode-at-fetch).
        learned_guards: Option<u32>,
    },
    /// Predicate global update around a base with global history
    /// (gshare, tournament, agree, perceptron, TAGE or MPP, or an `Sfpf`
    /// around one of those); over any other base it falls back to the
    /// plain base.
    Pgu {
        /// The wrapped configuration.
        base: Box<ModernSpec>,
        /// Insertion delay in fetch slots (0 = execute-time).
        delay: u64,
    },
}

impl ModernSpec {
    /// Wraps this spec in the squash false-path filter (default policy).
    pub fn with_sfpf(self) -> ModernSpec {
        ModernSpec::Sfpf {
            base: Box::new(self),
            known_true: false,
            update_filtered: true,
            learned_guards: None,
        }
    }

    /// Wraps this spec in predicate global update with the given delay.
    pub fn with_pgu(self, delay: u64) -> ModernSpec {
        ModernSpec::Pgu {
            base: Box::new(self),
            delay,
        }
    }
}

impl From<&ModernSpec> for ModernSpec {
    fn from(spec: &ModernSpec) -> Self {
        spec.clone()
    }
}

/// `Display` delegates to the built predictor's name so table rows and
/// specs never diverge.
impl fmt::Display for ModernSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&build_modern_stack(self).name())
    }
}

/// Error from parsing a [`ModernSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModernSpecError(String);

impl fmt::Display for ParseModernSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad predictor spec: {}", self.0)
    }
}

impl std::error::Error for ParseModernSpecError {}

/// Parses the compact spec syntax used by the CLIs:
///
/// ```text
/// base      := nt | btfn | oracle
///            | bimodal:I | gshare:I/H | local:B/H/P
///            | tournament:G/H/B/C | perceptron:I/H | agree:I/H
///            | tage:T/I/H | ptage:T/I/H | mpp:I | pmpp:I
/// modifier  := +sfpf | +sfpf! (also use known-true) | +pgu | +pguN (delay N)
/// spec      := base modifier*
/// ```
///
/// Every parameter must lie in the range its predictor's constructor
/// asserts, so a spec that parses always builds. A bare `+pgu` uses
/// PGU's commit-time delay: one default resolve latency. A spec names
/// each technique at most once: a second filter modifier (`+sfpf` or
/// `+sfpf!`) or a second `+pgu`/`+pguN` is refused.
///
/// # Examples
///
/// ```
/// use predbranch_core::BranchPredictor;
/// use predbranch_modern::{build_modern, ModernSpec};
///
/// let spec: ModernSpec = "gshare:13/13+sfpf+pgu8".parse().unwrap();
/// assert_eq!(build_modern(&spec).name(), "sfpf+pgu[d8]+gshare-13/13");
/// let spec: ModernSpec = "pmpp:12+sfpf".parse().unwrap();
/// assert_eq!(build_modern(&spec).name(), "sfpf+pmpp-12");
/// assert!("gshare:0/13".parse::<ModernSpec>().is_err());
/// ```
impl std::str::FromStr for ModernSpec {
    type Err = ParseModernSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |msg: &str| ParseModernSpecError(format!("{msg} in `{s}`"));
        let mut parts = s.split('+');
        let base_text = parts.next().unwrap_or_default().trim();
        let (kind, params) = base_text.split_once(':').unwrap_or((base_text, ""));
        let kind = kind.trim();
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
        // the `i`th parameter, refused outside the range its constructor
        // asserts
        let param = |i: usize, what: &str, range: RangeInclusive<u32>| {
            if range.contains(&nums[i]) {
                Ok(nums[i])
            } else {
                Err(err(&format!(
                    "{what} must be {}..={}",
                    range.start(),
                    range.end()
                )))
            }
        };
        let table = |i: usize| param(i, "table index bits", 1..=MAX_TABLE_INDEX_BITS);
        let history = |i: usize| param(i, "history bits", 1..=MAX_HISTORY_BITS);
        let mut spec = match kind {
            "nt" => {
                want(0)?;
                ModernSpec::StaticNotTaken
            }
            "btfn" => {
                want(0)?;
                ModernSpec::StaticBtfn
            }
            "oracle" => {
                want(0)?;
                ModernSpec::OracleGuard
            }
            "bimodal" => {
                want(1)?;
                ModernSpec::Bimodal {
                    index_bits: table(0)?,
                }
            }
            "gshare" => {
                want(2)?;
                ModernSpec::Gshare {
                    index_bits: table(0)?,
                    history_bits: history(1)?,
                }
            }
            "local" => {
                want(3)?;
                ModernSpec::Local {
                    bht_bits: table(0)?,
                    history_bits: history(1)?,
                    pattern_bits: table(2)?,
                }
            }
            "tournament" => {
                want(4)?;
                ModernSpec::Tournament {
                    gshare_bits: table(0)?,
                    history_bits: history(1)?,
                    bimodal_bits: table(2)?,
                    chooser_bits: table(3)?,
                }
            }
            "perceptron" => {
                want(2)?;
                ModernSpec::Perceptron {
                    index_bits: param(0, "perceptron index bits", 1..=MAX_PERCEPTRON_INDEX_BITS)?,
                    history_bits: history(1)?,
                }
            }
            "agree" => {
                want(2)?;
                ModernSpec::Agree {
                    index_bits: table(0)?,
                    history_bits: history(1)?,
                }
            }
            "tage" | "ptage" => {
                want(3)?;
                let tables = param(0, "tage table count", 1..=MAX_TAGE_TABLES as u32)?;
                ModernSpec::Tage {
                    tables,
                    index_bits: param(1, "tage index bits", 1..=MAX_TAGE_INDEX_BITS)?,
                    max_history: param(2, "tage max history", Tage::max_history_range(tables))?,
                    predicate: kind == "ptage",
                }
            }
            "mpp" | "pmpp" => {
                want(1)?;
                ModernSpec::Mpp {
                    index_bits: param(0, "mpp index bits", 1..=MAX_MPP_INDEX_BITS)?,
                    predicate: kind == "pmpp",
                }
            }
            _ => return Err(err("unknown base predictor")),
        };
        // Modifiers apply inside-out in the order written: "+pgu+sfpf"
        // yields sfpf(pgu(base)) like the builder methods would. Each
        // technique may appear once.
        let (mut filtered, mut updated) = (false, false);
        for modifier in parts {
            let modifier = modifier.trim();
            if modifier == "sfpf" || modifier == "sfpf!" {
                if std::mem::replace(&mut filtered, true) {
                    return Err(err("repeated sfpf modifier"));
                }
                spec = ModernSpec::Sfpf {
                    base: Box::new(spec),
                    known_true: modifier == "sfpf!",
                    update_filtered: true,
                    learned_guards: None,
                };
            } else if let Some(rest) = modifier.strip_prefix("pgu") {
                if std::mem::replace(&mut updated, true) {
                    return Err(err("repeated pgu modifier"));
                }
                let delay: u64 = if rest.is_empty() {
                    DEFAULT_RESOLVE_LATENCY
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_modern;

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
            (
                "gshare:10/10+pgu4",
                "Pgu { base: Gshare { index_bits: 10, history_bits: 10 }, delay: 4 }",
            ),
        ] {
            let spec: ModernSpec = text.parse().unwrap();
            assert_eq!(format!("{spec:?}"), debug, "{text}");
        }
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
            "gshare:10/10+sfpf+sfpf",
            "ptage:4/8/48+sfpf!+pgu0+sfpf",
            "tage:4/8/48+pgu4+sfpf+pgu",
            "mpp:10+pgu+pgu8",
        ] {
            let e = bad.parse::<ModernSpec>().expect_err(bad);
            assert!(
                e.to_string().starts_with("bad predictor spec"),
                "`{bad}` error lost its prefix: {e}"
            );
        }
        let e = "gshare:10/10+pgu4+sfpf+pgu"
            .parse::<ModernSpec>()
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "bad predictor spec: repeated pgu modifier in `gshare:10/10+pgu4+sfpf+pgu`"
        );
    }

    #[test]
    fn pgu_over_classic_base_rebuilds_classic_composition() {
        // a hand-built Pgu node over a paper-era base is the spec the
        // parser gives `gshare:10/10+pgu4` and builds core's PGU
        // composition around gshare
        let spec = ModernSpec::Pgu {
            base: Box::new(ModernSpec::Gshare {
                index_bits: 10,
                history_bits: 10,
            }),
            delay: 4,
        };
        assert_eq!(spec, "gshare:10/10+pgu4".parse::<ModernSpec>().unwrap());
        assert_eq!(build_modern(&spec).name(), "pgu[d4]+gshare-10/10");
    }

    #[test]
    fn rejects_every_parameter_outside_its_constructor_range() {
        // each parameter of each base (at `#`) with the range its
        // constructor asserts: one past either end is refused, both ends
        // parse (nothing is built: the largest tables would allocate
        // hundreds of megabytes)
        for (template, what, lo, hi) in [
            ("bimodal:#", "table index bits", 1, 28),
            ("gshare:#/13", "table index bits", 1, 28),
            ("gshare:13/#", "history bits", 1, 64),
            ("local:#/6/8", "table index bits", 1, 28),
            ("local:6/#/8", "history bits", 1, 64),
            ("local:6/6/#", "table index bits", 1, 28),
            ("tournament:#/8/8/8", "table index bits", 1, 28),
            ("tournament:8/#/8/8", "history bits", 1, 64),
            ("tournament:8/8/#/8", "table index bits", 1, 28),
            ("tournament:8/8/8/#", "table index bits", 1, 28),
            ("agree:#/8", "table index bits", 1, 28),
            ("agree:8/#", "history bits", 1, 64),
            ("perceptron:#/8", "perceptron index bits", 1, 20),
            ("perceptron:7/#", "history bits", 1, 64),
            ("tage:#/10/64", "tage table count", 1, 8),
            ("ptage:4/#/64", "tage index bits", 1, 20),
            ("tage:4/10/#", "tage max history", 8, 256),
            ("tage:1/10/#", "tage max history", 5, 256),
            ("mpp:#", "mpp index bits", 1, 16),
            ("pmpp:#", "mpp index bits", 1, 16),
        ] {
            let spec = |n: u32| template.replace('#', &n.to_string());
            for bad in [spec(lo - 1), spec(hi + 1)] {
                let e = bad.parse::<ModernSpec>().expect_err(&bad);
                let message = format!("bad predictor spec: {what} must be {lo}..={hi} in `{bad}`");
                assert_eq!(e.to_string(), message);
            }
            for good in [spec(lo), spec(hi)] {
                assert!(good.parse::<ModernSpec>().is_ok(), "rejected `{good}`");
            }
        }
    }

    #[test]
    fn specs_at_small_bounds_build() {
        // the lower bounds and the cheap upper ones build without a panic
        for text in [
            "bimodal:1",
            "gshare:1/64+pgu",
            "local:1/64/1",
            "tournament:1/1/1/1+pgu0",
            "agree:1/64",
            "perceptron:1/64+sfpf+pgu",
            "tage:1/1/5",
            "ptage:8/4/12+pgu",
            "tage:8/4/256",
            "mpp:1",
            "pmpp:16+sfpf",
        ] {
            let spec: ModernSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(!build_modern(&spec).name().is_empty(), "{text}");
        }
    }
}
