//! One module per table/figure of the study.
//!
//! The experiment ids follow DESIGN.md: `t1`/`t2` are tables, `f1`–`f10`
//! figures. Every experiment maps a [`Scale`] to a list of text
//! [`Artifact`]s so the binary, the tests, and `perfbench/` all share
//! one implementation.

use std::fmt;

use predbranch_core::Timing;
use predbranch_modern::ModernSpec;
use predbranch_stats::{Series, Table};

use crate::runner::{RunContext, DEFAULT_LATENCY, PGU_DELAY};

mod f1;
mod f10;
mod f11;
mod f12;
mod f13;
mod f14;
mod f15;
mod f16;
mod f17;
mod f18;
mod f19;
mod f2;
mod f3;
mod f4;
mod f5;
mod f6;
mod f7;
mod f8;
mod f9;
mod t1;
mod t2;

/// How much of the suite an experiment run covers, and at which
/// harness timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Restrict to the first `n` benchmarks (`None` = whole suite).
    pub limit: Option<usize>,
    /// Commit delay (in fetched instructions) for every cell the
    /// experiment runs. `0` reproduces the historical immediate-update
    /// results exactly; see [`predbranch_core::Timing`].
    pub retire_latency: u64,
}

impl Scale {
    /// The full 11-benchmark suite.
    pub fn full() -> Self {
        Scale {
            limit: None,
            retire_latency: 0,
        }
    }

    /// A 3-benchmark quick mode for tests and smoke runs.
    pub fn quick() -> Self {
        Scale {
            limit: Some(3),
            retire_latency: 0,
        }
    }

    /// The same scale with a different retire latency.
    pub fn with_retire(self, retire_latency: u64) -> Self {
        Scale {
            retire_latency,
            ..self
        }
    }

    /// The harness timing every experiment cell runs at: the suite's
    /// default resolve latency plus this scale's retire latency.
    pub fn timing(&self) -> Timing {
        Timing::new(DEFAULT_LATENCY, self.retire_latency)
    }
}

/// A rendered experiment output.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A table (rows per benchmark, typically).
    Table(Table),
    /// A labelled series (one line per configuration).
    Series(Series),
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Artifact::Table(t) => t.fmt(f),
            Artifact::Series(s) => s.fmt(f),
        }
    }
}

impl Artifact {
    /// The artifact's title.
    pub fn title(&self) -> &str {
        match self {
            Artifact::Table(t) => t.title(),
            Artifact::Series(s) => s.title(),
        }
    }
}

/// A registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Short id (`t1`, `f3`, ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Produces the artifacts. Runs its grid through the given
    /// [`RunContext`] (pool, trace cache, checkpoint, manifest); output
    /// is identical at any `--jobs` level.
    pub run: fn(&RunContext, &Scale) -> Vec<Artifact>,
}

/// All experiments, in DESIGN.md order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1",
            title: "workload characterization",
            run: t1::run,
        },
        Experiment {
            id: "t2",
            title: "machine and predictor configurations",
            run: t2::run,
        },
        Experiment {
            id: "f1",
            title: "motivation: if-conversion concentrates mispredictions",
            run: f1::run,
        },
        Experiment {
            id: "f2",
            title: "fetch-time guard knowledge vs resolve latency",
            run: f2::run,
        },
        Experiment {
            id: "f3",
            title: "headline: misprediction rate per benchmark",
            run: f3::run,
        },
        Experiment {
            id: "f4",
            title: "region-based branches only",
            run: f4::run,
        },
        Experiment {
            id: "f5",
            title: "predictor budget sweep",
            run: f5::run,
        },
        Experiment {
            id: "f6",
            title: "PGU insertion-timing sensitivity",
            run: f6::run,
        },
        Experiment {
            id: "f7",
            title: "techniques across baseline predictors",
            run: f7::run,
        },
        Experiment {
            id: "f8",
            title: "pipeline-level speedup",
            run: f8::run,
        },
        Experiment {
            id: "f9",
            title: "oracle headroom",
            run: f9::run,
        },
        Experiment {
            id: "f10",
            title: "PGU insertion-filter ablation",
            run: f10::run,
        },
        Experiment {
            id: "f11",
            title: "if-conversion aggressiveness (extension)",
            run: f11::run,
        },
        Experiment {
            id: "f12",
            title: "squash-filter policy ablation (extension)",
            run: f12::run,
        },
        Experiment {
            id: "f13",
            title: "resolve-latency sensitivity (extension)",
            run: f13::run,
        },
        Experiment {
            id: "f14",
            title: "seed stability of the headline result (extension)",
            run: f14::run,
        },
        Experiment {
            id: "f15",
            title: "compare hoisting: compiler/predictor co-design (extension)",
            run: f15::run,
        },
        Experiment {
            id: "f16",
            title: "retire-latency sensitivity of the headline result (extension)",
            run: f16::run,
        },
        Experiment {
            id: "f17",
            title: "H2P taxonomy vs per-branch misprediction deltas (extension)",
            run: f17::run,
        },
        Experiment {
            id: "f18",
            title: "modern baselines: gshare vs TAGE vs MPP, each ±SFPF ±PGU (extension)",
            run: f18::run,
        },
        Experiment {
            id: "f19",
            title: "modern-predictor wins by taxonomy bucket (extension)",
            run: f19::run,
        },
    ]
}

/// Finds an experiment by id.
pub fn find_experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

/// The study's default base predictor: a 16 K-entry (4 KB) gshare with a
/// matched 13-bit history.
pub(crate) fn base_spec() -> ModernSpec {
    ModernSpec::Gshare {
        index_bits: 13,
        history_bits: 13,
    }
}

/// The four headline configurations of the study: [`modifier_grid`]
/// over [`base_spec`], with the base labelled `gshare`.
pub(crate) fn headline_specs() -> Vec<(&'static str, ModernSpec)> {
    let mut specs = modifier_grid(base_spec());
    specs[0].0 = "gshare";
    specs
}

/// The modern-tier TAGE configuration F18/F19 evaluate: four tables of
/// 1 K entries over a 64-bit geometric history series.
pub(crate) fn tage_spec() -> ModernSpec {
    "tage:4/10/64".parse().expect("valid tage spec")
}

/// The modern-tier multiperspective-perceptron configuration F18/F19
/// evaluate: seven views of 4 K six-bit weights each.
pub(crate) fn mpp_spec() -> ModernSpec {
    "mpp:12".parse().expect("valid mpp spec")
}

/// `base` with the study's four modifier combinations (none, +SFPF,
/// +PGU, +both) — [`headline_specs`] generalized to any base predictor.
pub(crate) fn modifier_grid(base: ModernSpec) -> Vec<(&'static str, ModernSpec)> {
    vec![
        ("base", base.clone()),
        ("+SFPF", base.clone().with_sfpf()),
        ("+PGU", base.clone().with_pgu(PGU_DELAY)),
        ("+both", base.with_sfpf().with_pgu(PGU_DELAY)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        assert_eq!(all.len(), 21);
        let ids: std::collections::HashSet<_> = all.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 21);
        assert!(find_experiment("f3").is_some());
        assert!(find_experiment("f18").is_some());
        assert!(find_experiment("zz").is_none());
    }

    #[test]
    fn every_experiment_runs_at_quick_scale() {
        let ctx = RunContext::new();
        let scale = Scale::quick();
        for exp in all_experiments() {
            let artifacts = (exp.run)(&ctx, &scale);
            assert!(!artifacts.is_empty(), "{} produced nothing", exp.id);
            for a in &artifacts {
                let text = a.to_string();
                assert!(!text.is_empty(), "{}: empty artifact", exp.id);
                assert!(!a.title().is_empty());
            }
        }
    }

    #[test]
    fn headline_specs_are_four() {
        assert_eq!(headline_specs().len(), 4);
    }

    fn quick_artifacts(id: &str) -> Vec<Artifact> {
        (find_experiment(id).unwrap().run)(&RunContext::new(), &Scale::quick())
    }

    fn table_of(artifacts: &[Artifact], idx: usize) -> &Table {
        match &artifacts[idx] {
            Artifact::Table(t) => t,
            Artifact::Series(_) => panic!("expected a table at index {idx}"),
        }
    }

    fn series_of(artifacts: &[Artifact], idx: usize) -> &Series {
        match &artifacts[idx] {
            Artifact::Series(s) => s,
            Artifact::Table(_) => panic!("expected a series at index {idx}"),
        }
    }

    fn pct(cell: &predbranch_stats::Cell) -> f64 {
        cell.as_str().trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn t1_has_one_row_per_benchmark_with_ten_columns() {
        let artifacts = quick_artifacts("t1");
        let t = table_of(&artifacts, 0);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 10);
        // removed% is a valid percentage
        for row in 0..t.row_count() {
            let removed = pct(t.cell(row, 7).unwrap());
            assert!((0.0..=100.0).contains(&removed));
        }
    }

    #[test]
    fn t2_reports_equal_storage_for_all_headline_configs() {
        let artifacts = quick_artifacts("t2");
        let t = table_of(&artifacts, 1);
        let bits: Vec<&str> = (0..t.row_count())
            .map(|r| t.cell(r, 2).unwrap().as_str())
            .collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:?}");
    }

    #[test]
    fn f1_predicated_mpki_below_plain() {
        let artifacts = quick_artifacts("f1");
        let t = table_of(&artifacts, 0);
        for row in 0..t.row_count() - 1 {
            let plain: f64 = t.cell(row, 4).unwrap().as_str().parse().unwrap();
            let pred: f64 = t.cell(row, 5).unwrap().as_str().parse().unwrap();
            assert!(pred <= plain, "row {row}: {pred} > {plain}");
        }
    }

    #[test]
    fn f2_fractions_sum_to_one_hundred() {
        let artifacts = quick_artifacts("f2");
        let s = series_of(&artifacts, 0);
        for (x, ys) in s.points() {
            let sum: f64 = ys.iter().sum();
            assert!((sum - 100.0).abs() < 0.01, "latency {x}: {sum}");
        }
    }

    #[test]
    fn f6_delay_curve_trends_upward() {
        // not strictly monotone (history alignment can wobble a hair),
        // but each step may only improve marginally and the endpoints
        // must order decisively
        let artifacts = quick_artifacts("f6");
        let s = series_of(&artifacts, 0);
        let ys = s.line_values(0).unwrap();
        for w in ys.windows(2) {
            assert!(w[1] >= w[0] - 0.1, "{ys:?}");
        }
        assert!(
            ys.last().unwrap() > ys.first().unwrap(),
            "large delays must hurt: {ys:?}"
        );
    }

    #[test]
    fn f9_oracle_column_is_zero() {
        let artifacts = quick_artifacts("f9");
        let t = table_of(&artifacts, 0);
        for row in 0..t.row_count() - 1 {
            assert_eq!(pct(t.cell(row, 4).unwrap()), 0.0);
        }
    }

    #[test]
    fn f10_none_filter_matches_gshare_baseline() {
        // column 1 of f10 ("none") must equal column 1 of f3 ("gshare")
        let f10 = quick_artifacts("f10");
        let f3 = quick_artifacts("f3");
        let t10 = table_of(&f10, 0);
        let t3 = table_of(&f3, 0);
        for row in 0..3 {
            assert_eq!(
                t10.cell(row, 1).unwrap().as_str(),
                t3.cell(row, 1).unwrap().as_str(),
                "row {row}"
            );
        }
    }

    #[test]
    fn f13_baseline_is_latency_flat() {
        let artifacts = quick_artifacts("f13");
        let s = series_of(&artifacts, 0);
        let base = s.line_values(0).unwrap();
        assert!(
            base.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
            "{base:?}"
        );
    }

    #[test]
    fn f14_min_le_mean_le_max() {
        let artifacts = quick_artifacts("f14");
        let t = table_of(&artifacts, 0);
        for row in 0..t.row_count() {
            let mean = pct(t.cell(row, 1).unwrap());
            let min = pct(t.cell(row, 3).unwrap());
            let max = pct(t.cell(row, 4).unwrap());
            assert!(min <= mean + 1e-9 && mean <= max + 1e-9, "row {row}");
        }
    }

    #[test]
    fn f17_wins_concentrate_in_the_predicate_bucket() {
        let artifacts = quick_artifacts("f17");
        let deltas = table_of(&artifacts, 0);
        // rows: 4 buckets in Bucket::ALL order + the (all) total
        assert_eq!(deltas.row_count(), 5);
        let delta = |row: usize, col: usize| -> f64 {
            deltas.cell(row, col).unwrap().as_str().parse().unwrap()
        };
        // +both's win (pp, col 6) in the predicate-predictable bucket
        // (row 2) must exceed its win in every other bucket
        let predicate_win = delta(2, 6);
        assert!(predicate_win > 0.0, "{predicate_win}");
        for row in [0, 1, 3] {
            assert!(
                predicate_win > delta(row, 6),
                "row {row}: {} >= {predicate_win}",
                delta(row, 6)
            );
        }
        // every quick-suite static sits in exactly one bucket: the
        // bucket rows' static counts sum to the (all) row's
        let count = |row: usize| -> u64 {
            deltas
                .cell(row, 1)
                .unwrap()
                .as_str()
                .replace(',', "")
                .parse()
                .unwrap()
        };
        assert_eq!(count(0) + count(1) + count(2) + count(3), count(4));
        // and the per-benchmark population table tallies the same total
        let population = table_of(&artifacts, 1);
        let statics: u64 = (0..population.row_count())
            .map(|r| {
                population
                    .cell(r, 1)
                    .unwrap()
                    .as_str()
                    .replace(',', "")
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(statics, count(4));
    }

    #[test]
    fn f18_modern_bases_do_not_trail_gshare() {
        let artifacts = quick_artifacts("f18");
        assert_eq!(artifacts.len(), 3);
        // row 3 is `amean`, column 1 the bare base: the modern bases
        // must not mispredict more than the 2003-era gshare baseline
        let amean = |family: usize| pct(table_of(&artifacts, family).cell(3, 1).unwrap());
        let gshare = amean(0);
        assert!(amean(1) <= gshare, "tage {} > gshare {gshare}", amean(1));
        assert!(amean(2) <= gshare, "mpp {} > gshare {gshare}", amean(2));
    }

    #[test]
    fn f19_modern_wins_concentrate_in_the_predicate_bucket() {
        let artifacts = quick_artifacts("f19");
        let t = table_of(&artifacts, 0);
        // rows: 4 buckets in Bucket::ALL order + the (all) total
        assert_eq!(t.row_count(), 5);
        let delta =
            |row: usize, col: usize| -> f64 { t.cell(row, col).unwrap().as_str().parse().unwrap() };
        // the ISSUE's forward-looking claim: whatever the predicate
        // mechanisms still buy on a modern base lands in the
        // predicate-predictable bucket (row 2). Checked for +SFPF+PGU
        // on TAGE (col 4) and MPP (col 7), and for the predicate-aware
        // variants ptage (col 5) and pmpp (col 8).
        for col in [4, 5, 7, 8] {
            let predicate_win = delta(2, col);
            assert!(predicate_win > 0.0, "col {col}: {predicate_win}");
            for row in [0, 1, 3] {
                assert!(
                    predicate_win > delta(row, col),
                    "col {col} row {row}: {} >= {predicate_win}",
                    delta(row, col)
                );
            }
        }
    }

    #[test]
    fn f15_hoisted_distance_not_shorter() {
        let artifacts = quick_artifacts("f15");
        let t = table_of(&artifacts, 0);
        for row in 0..t.row_count() {
            let plain: f64 = t.cell(row, 1).unwrap().as_str().parse().unwrap();
            let hoisted: f64 = t.cell(row, 2).unwrap().as_str().parse().unwrap();
            assert!(hoisted >= plain - 1e-9, "row {row}: {hoisted} < {plain}");
        }
    }
}
