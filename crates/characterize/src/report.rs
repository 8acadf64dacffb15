//! Finalized per-branch profiles, the H2P taxonomy, and rendering.

use std::collections::BTreeMap;
use std::fmt;

use predbranch_stats::{entropy_bits, Align, Cell, JointDistribution, Table};
use predbranch_sweep::Json;

use crate::characterizer::BranchState;
use crate::{
    BIAS_THRESHOLD, GLOBAL_DEPTHS, LOCAL_DEPTHS, PREDICTABLE_ENTROPY_BITS, SUPPORT_PER_CONTEXT,
};

/// The four-way hard-to-predict taxonomy. Every static conditional
/// branch is assigned exactly one bucket by [`classify`]; see the crate
/// docs for the ordering rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Heavily skewed towards one direction (taken-rate ≥ 0.95 either
    /// way): a static prediction suffices.
    Biased,
    /// Some supported outcome-history depth drives the residual entropy
    /// to ≤ 0.25 bits: a conventional history-indexed predictor
    /// captures it.
    HistoryPredictable,
    /// Only the fetch-visible predicate state (guard knowledge +
    /// delayed predicate-outcome register) explains it — the branches
    /// SFPF and PGU exist for.
    PredicatePredictable,
    /// No measured context explains the branch.
    FundamentallyHard,
}

impl Bucket {
    /// All buckets, in classification (and reporting) order.
    pub const ALL: [Bucket; 4] = [
        Bucket::Biased,
        Bucket::HistoryPredictable,
        Bucket::PredicatePredictable,
        Bucket::FundamentallyHard,
    ];

    /// The stable text label used in tables, JSON, and goldens.
    pub fn label(&self) -> &'static str {
        match self {
            Bucket::Biased => "biased",
            Bucket::HistoryPredictable => "history-predictable",
            Bucket::PredicatePredictable => "predicate-predictable",
            Bucket::FundamentallyHard => "fundamentally-hard",
        }
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which history register produced a branch's best residual entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistoryKind {
    /// The all-branches global direction history.
    Global,
    /// The branch's own direction history.
    Local,
}

impl HistoryKind {
    fn letter(&self) -> char {
        match self {
            HistoryKind::Global => 'g',
            HistoryKind::Local => 'l',
        }
    }
}

/// The finished characterization of one static conditional branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProfile {
    /// Static pc of the branch.
    pub pc: u32,
    /// Whether any dynamic instance was a region-based branch.
    pub region: bool,
    /// Dynamic executions observed.
    pub executions: u64,
    /// Taken executions observed.
    pub taken: u64,
    /// The dominant-direction rate, `max(taken, not-taken) / total`.
    pub bias: f64,
    /// Marginal direction entropy `H(taken)`, bits.
    pub entropy: f64,
    /// Best *supported* history-conditioned residual entropy
    /// `H(taken | history)`, bits; equals [`BranchProfile::entropy`]
    /// when no depth passes the support rule.
    pub history_entropy: f64,
    /// The `(register, depth)` that produced
    /// [`BranchProfile::history_entropy`]; `None` when no depth was
    /// supported.
    pub history_context: Option<(HistoryKind, usize)>,
    /// Residual entropy under the fetch-visible predicate context,
    /// bits; equals the marginal when the predicate joint is
    /// unsupported.
    pub pred_entropy: f64,
    /// Mutual information between the predicate context and the branch
    /// direction, bits (`0.0` when unsupported).
    pub pred_mi: f64,
    /// The assigned taxonomy bucket.
    pub bucket: Bucket,
}

/// Assigns the bucket from the three finished metrics, in the
/// documented priority order (see the crate docs): a branch is biased
/// at a taken-rate of 0.95 or more, and a context explains it at 0.25
/// bits or less.
pub fn classify(bias: f64, history_entropy: f64, pred_entropy: f64) -> Bucket {
    if bias >= BIAS_THRESHOLD {
        Bucket::Biased
    } else if history_entropy <= PREDICTABLE_ENTROPY_BITS {
        Bucket::HistoryPredictable
    } else if pred_entropy <= PREDICTABLE_ENTROPY_BITS {
        Bucket::PredicatePredictable
    } else {
        Bucket::FundamentallyHard
    }
}

/// The lowest supported conditional entropy across a set of joints,
/// with its identifying `(kind, depth)`.
fn best_supported(
    joints: &[JointDistribution],
    depths: &[usize],
    kind: HistoryKind,
) -> Option<(f64, (HistoryKind, usize))> {
    joints
        .iter()
        .zip(depths)
        .filter(|(joint, _)| joint.supported(SUPPORT_PER_CONTEXT))
        .map(|(joint, &depth)| (joint.conditional_entropy(), (kind, depth)))
        // strict `<` keeps the shallowest depth on ties — deterministic
        .fold(None, |best: Option<(f64, _)>, cand| match best {
            Some((b, _)) if cand.0 >= b => best,
            _ => Some(cand),
        })
}

/// Finalizes one branch's accumulated state into its profile.
pub(crate) fn profile(pc: u32, state: BranchState) -> BranchProfile {
    let not_taken = state.total - state.taken;
    let bias = if state.total == 0 {
        0.0
    } else {
        state.taken.max(not_taken) as f64 / state.total as f64
    };
    let entropy = entropy_bits(&[state.taken, not_taken]);

    let global = best_supported(&state.global_joints, &GLOBAL_DEPTHS, HistoryKind::Global);
    let local = best_supported(&state.local_joints, &LOCAL_DEPTHS, HistoryKind::Local);
    let (history_entropy, history_context) = match (global, local) {
        (Some((g, gc)), Some((l, lc))) => {
            // global wins ties: it is what gshare actually indexes with
            if g <= l {
                (g, Some(gc))
            } else {
                (l, Some(lc))
            }
        }
        (Some((g, gc)), None) => (g, Some(gc)),
        (None, Some((l, lc))) => (l, Some(lc)),
        (None, None) => (entropy, None),
    };

    let (pred_entropy, pred_mi) = if state.pred_joint.supported(SUPPORT_PER_CONTEXT) {
        (
            state.pred_joint.conditional_entropy(),
            state.pred_joint.mutual_information(),
        )
    } else {
        (entropy, 0.0)
    };

    let bucket = classify(bias, history_entropy, pred_entropy);
    BranchProfile {
        pc,
        region: state.region,
        executions: state.total,
        taken: state.taken,
        bias,
        entropy,
        history_entropy,
        history_context,
        pred_entropy,
        pred_mi,
        bucket,
    }
}

/// The full report for one event stream: every static conditional
/// branch's [`BranchProfile`], sorted by pc.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    branches: Vec<BranchProfile>,
}

impl Characterization {
    pub(crate) fn from_states(states: BTreeMap<u32, BranchState>) -> Self {
        Characterization {
            branches: states
                .into_iter()
                .map(|(pc, state)| state.into_profile(pc))
                .collect(),
        }
    }

    /// Per-branch profiles, sorted by pc.
    pub fn branches(&self) -> &[BranchProfile] {
        &self.branches
    }

    /// The profile of one static branch, if it executed.
    pub fn at(&self, pc: u32) -> Option<&BranchProfile> {
        self.branches.iter().find(|b| b.pc == pc)
    }

    /// How many static branches landed in `bucket`.
    pub fn bucket_count(&self, bucket: Bucket) -> usize {
        self.branches.iter().filter(|b| b.bucket == bucket).count()
    }

    /// Total dynamic conditional branches observed.
    pub fn dynamic_branches(&self) -> u64 {
        self.branches.iter().map(|b| b.executions).sum()
    }

    /// The per-branch text table. Entropies are in bits; `hist` names
    /// the `(register, depth)` behind `H|hist` (`g4` = 4 bits of global
    /// history, `l2` = 2 bits of local), `-` when no depth passed the
    /// support rule.
    pub fn table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(
            title,
            &[
                "pc", "execs", "taken%", "H", "H|hist", "hist", "H|pred", "predMI", "bucket",
            ],
        )
        .with_aligns(&[
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
        for b in &self.branches {
            let taken_pct = if b.executions == 0 {
                0.0
            } else {
                b.taken as f64 / b.executions as f64 * 100.0
            };
            table.row(vec![
                Cell::new(b.pc),
                Cell::count(b.executions),
                Cell::percent(taken_pct),
                Cell::float(b.entropy, 3),
                Cell::float(b.history_entropy, 3),
                Cell::new(match b.history_context {
                    Some((kind, depth)) => format!("{}{depth}", kind.letter()),
                    None => "-".to_string(),
                }),
                Cell::float(b.pred_entropy, 3),
                Cell::float(b.pred_mi, 3),
                Cell::new(b.bucket),
            ]);
        }
        table
    }

    /// One-line bucket summary, e.g.
    /// `7 statics: 3 biased, 2 history-predictable, ...`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = Bucket::ALL
            .iter()
            .map(|&b| format!("{} {}", self.bucket_count(b), b.label()))
            .collect();
        format!("{} statics: {}", self.branches.len(), parts.join(", "))
    }

    /// The ordered-JSON form (same module the sweep manifests use), with
    /// per-branch metrics and the bucket tally. Field order is fixed, so
    /// rendering is byte-deterministic.
    pub fn to_json(&self) -> Json {
        let branches: Vec<Json> = self
            .branches
            .iter()
            .map(|b| {
                Json::obj()
                    .field("pc", u64::from(b.pc))
                    .field("region", b.region)
                    .field("executions", b.executions)
                    .field("taken", b.taken)
                    .field("bias", b.bias)
                    .field("entropy", b.entropy)
                    .field("history_entropy", b.history_entropy)
                    .field(
                        "history_context",
                        match b.history_context {
                            Some((kind, depth)) => Json::Str(format!("{}{depth}", kind.letter())),
                            None => Json::Null,
                        },
                    )
                    .field("pred_entropy", b.pred_entropy)
                    .field("pred_mi", b.pred_mi)
                    .field("bucket", b.bucket.label())
            })
            .collect();
        let mut buckets = Json::obj();
        for b in Bucket::ALL {
            buckets = buckets.field(b.label(), self.bucket_count(b));
        }
        Json::obj()
            .field("statics", self.branches.len())
            .field("dynamic_branches", self.dynamic_branches())
            .field("buckets", buckets)
            .field("branches", Json::Arr(branches))
    }
}
