//! Every metric name the benchmark reports (the workload names live on
//! [`crate::workload::Workload`]). Later changes refer to them by these
//! names; the self-tests check that they match `BENCHMARK.json` exactly.

use predbranch_bench::all_experiments;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("lane_branches_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cache_mb", "MB"),
    ("setup_s", "s"),
];

/// The predictors whose cost the traced run isolates: metric prefix and
/// spec. Each lane's cost minus the `nt` harness lane's is reported as
/// `<prefix>.ns_per_branch`.
pub const NAMED_PREDICTORS: [(&str, &str); 10] = [
    ("core.gshare", "gshare:13/13"),
    ("core.gshare_sfpf_pgu", "gshare:13/13+sfpf+pgu8"),
    ("core.perceptron", "perceptron:7/14"),
    ("core.perceptron_sfpf_pgu", "perceptron:7/14+sfpf+pgu8"),
    ("modern.tage", "tage:4/10/64"),
    ("modern.tage_sfpf_pgu", "tage:4/10/64+sfpf+pgu8"),
    ("modern.ptage", "ptage:4/10/64"),
    ("modern.mpp", "mpp:12"),
    ("modern.mpp_sfpf_pgu", "mpp:12+sfpf+pgu8"),
    ("modern.pmpp", "pmpp:12"),
];

/// Per-layer metrics (`--trace 1`) after the per-experiment and
/// per-predictor ones: name and unit.
const LAYER_METRICS: [(&str, &str); 17] = [
    ("workloads.compile_s", "s"),
    ("sim.exec_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("trace.record_ns_per_event", "ns"),
    ("trace.publish_ns_per_event", "ns"),
    ("trace.open_ns_per_event", "ns"),
    ("trace.serve_ns_per_event", "ns"),
    ("trace.streams", "count"),
    ("trace.replays", "count"),
    ("trace.recordings", "count"),
    ("core.harness_ns_per_branch", "ns"),
    ("core.extra_lane_ns_per_branch", "ns"),
    ("core.lane_branches", "count"),
    ("characterize.ns_per_event", "ns"),
    ("sweep.busy_frac", "ratio"),
    ("attrib.unattributed_s", "s"),
    ("attrib.trace_overhead_frac", "ratio"),
];

/// Every per-layer metric: name and unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let experiments = all_experiments()
        .into_iter()
        .map(|exp| (format!("bench.{}_s", exp.id), "s"));
    let layers = LAYER_METRICS
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit));
    let predictors = NAMED_PREDICTORS
        .iter()
        .map(|(prefix, _)| (format!("{prefix}.ns_per_branch"), "ns"));
    experiments.chain(layers).chain(predictors).collect()
}

/// Whether `name` is a valid workload or metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
