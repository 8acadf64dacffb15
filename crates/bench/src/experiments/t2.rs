//! T2 — machine and predictor configurations used throughout the study.

use predbranch_modern::build_modern;
use predbranch_sim::PipelineConfig;
use predbranch_stats::{Cell, Table};

use super::{headline_specs, Artifact, Scale};
use crate::runner::{RunContext, DEFAULT_LATENCY, PGU_DELAY};

pub(crate) fn run(_ctx: &RunContext, _scale: &Scale) -> Vec<Artifact> {
    let pipe = PipelineConfig::default();
    let mut machine = Table::new("T2a: machine configuration", &["parameter", "value"]);
    for (name, value) in [
        ("fetch width", pipe.fetch_width.to_string()),
        (
            "mispredict penalty (cycles)",
            pipe.mispredict_penalty.to_string(),
        ),
        (
            "taken-branch bubble (cycles)",
            pipe.taken_bubble.to_string(),
        ),
        (
            "predicate resolve latency (fetch slots)",
            DEFAULT_LATENCY.to_string(),
        ),
        ("PGU insertion delay (fetch slots)", PGU_DELAY.to_string()),
    ] {
        machine.row(vec![Cell::new(name), Cell::new(value)]);
    }

    let mut preds = Table::new(
        "T2b: headline predictor configurations",
        &["config", "name", "storage bits"],
    );
    for (label, spec) in headline_specs() {
        let built = build_modern(&spec);
        preds.row(vec![
            Cell::new(label),
            Cell::new(built.name()),
            Cell::count(built.storage_bits() as u64),
        ]);
    }
    vec![Artifact::Table(machine), Artifact::Table(preds)]
}
