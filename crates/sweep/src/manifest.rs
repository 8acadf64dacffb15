//! Run manifests: a JSON record of what a sweep did.
//!
//! A manifest answers, after the fact: which cells ran, where each
//! result came from (live execution, a trace-cache replay, a fresh
//! recording, a checkpoint from an interrupted run, or an earlier cell
//! of the same run with the same key), how long each
//! cell took, and against which workload fingerprints. Cells are listed
//! in canonical (label, key) order so two manifests of the same sweep
//! differ only in timings.

use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Where a cell's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Executed through the functional simulator, no cache involved.
    Live,
    /// Replayed from an existing trace-cache entry.
    Replayed,
    /// Executed once and recorded into the trace cache.
    Recorded,
    /// Skipped entirely: restored from a checkpoint journal.
    Checkpoint,
    /// Skipped entirely: copied from an earlier cell of the same run
    /// with the same key.
    Repeat,
}

impl CellSource {
    /// The manifest's string form.
    pub fn as_str(self) -> &'static str {
        match self {
            CellSource::Live => "live",
            CellSource::Replayed => "replayed",
            CellSource::Recorded => "recorded",
            CellSource::Checkpoint => "checkpoint",
            CellSource::Repeat => "repeat",
        }
    }
}

/// One completed cell, as recorded in the manifest.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Content-addressed cell key (also the checkpoint key).
    pub key: String,
    /// Human-readable cell label, e.g. `f3/gzip/+PGU`.
    pub label: String,
    /// Wall-clock milliseconds spent producing the result.
    pub wall_ms: u64,
    /// Where the result came from.
    pub source: CellSource,
}

/// Collects cell records concurrently during a sweep and renders the
/// final [`Json`] manifest.
#[derive(Debug)]
pub struct ManifestBuilder {
    started: Instant,
    command: String,
    jobs: usize,
    cells: Mutex<Vec<CellRecord>>,
    fingerprints: Mutex<Vec<(String, String)>>,
}

impl ManifestBuilder {
    /// A builder stamped with the sweep's command line and worker count.
    pub fn new(command: impl Into<String>, jobs: usize) -> Self {
        ManifestBuilder {
            started: Instant::now(),
            command: command.into(),
            jobs,
            cells: Mutex::new(Vec::new()),
            fingerprints: Mutex::new(Vec::new()),
        }
    }

    /// Records one completed cell (thread-safe; called from workers).
    pub fn record_cell(&self, record: CellRecord) {
        self.cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }

    /// Attaches a named workload fingerprint (e.g. the compile-options
    /// digest the cells were keyed under), hex-encoded by the caller.
    pub fn fingerprint(&self, name: impl Into<String>, hex: impl Into<String>) {
        self.fingerprints
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((name.into(), hex.into()));
    }

    /// Cells recorded so far.
    pub fn cell_count(&self) -> usize {
        self.cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Renders the manifest. `cache` is the trace-cache (replays,
    /// recordings) counter pair when a cache was attached.
    pub fn finish(&self, cache: Option<(u64, u64)>) -> Json {
        let mut cells = self
            .cells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        // canonical order: completion order depends on scheduling, the
        // manifest must not
        cells.sort_by(|a, b| (&a.label, &a.key).cmp(&(&b.label, &b.key)));

        let mut by_source = [0u64; 5];
        for cell in &cells {
            by_source[cell.source as usize] += 1;
        }
        let totals = Json::obj()
            .field("cells", cells.len())
            .field("live", by_source[CellSource::Live as usize])
            .field("replayed", by_source[CellSource::Replayed as usize])
            .field("recorded", by_source[CellSource::Recorded as usize])
            .field("checkpoint", by_source[CellSource::Checkpoint as usize])
            .field("repeat", by_source[CellSource::Repeat as usize])
            .field("wall_ms", self.started.elapsed().as_millis() as u64);

        let fingerprints = self
            .fingerprints
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .fold(Json::obj(), |obj, (name, hex)| {
                obj.field(name, hex.as_str())
            });

        let mut manifest = Json::obj()
            .field("manifest_version", 1u64)
            .field("command", self.command.as_str())
            .field("jobs", self.jobs)
            .field("fingerprints", fingerprints)
            .field("totals", totals);
        if let Some((replays, recordings)) = cache {
            manifest = manifest.field(
                "trace_cache",
                Json::obj()
                    .field("replays", replays)
                    .field("recordings", recordings),
            );
        }
        manifest.field(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|cell| {
                        Json::obj()
                            .field("label", cell.label.as_str())
                            .field("key", cell.key.as_str())
                            .field("source", cell.source.as_str())
                            .field("wall_ms", cell.wall_ms)
                    })
                    .collect(),
            ),
        )
    }

    /// Renders and writes the manifest to `path` (pretty-printed).
    pub fn write(&self, path: impl AsRef<Path>, cache: Option<(u64, u64)>) -> io::Result<()> {
        std::fs::write(path, self.finish(cache).pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_orders_cells_canonically() {
        let builder = ManifestBuilder::new("experiments --jobs 2 f3", 2);
        builder.record_cell(CellRecord {
            key: "k2".into(),
            label: "f3/vpr/gshare".into(),
            wall_ms: 9,
            source: CellSource::Recorded,
        });
        builder.record_cell(CellRecord {
            key: "k1".into(),
            label: "f3/gzip/gshare".into(),
            wall_ms: 4,
            source: CellSource::Replayed,
        });
        builder.record_cell(CellRecord {
            key: "k1".into(),
            label: "f4/gzip/gshare".into(),
            wall_ms: 0,
            source: CellSource::Repeat,
        });
        builder.fingerprint("compile_options", "00000000deadbeef");
        let manifest = builder.finish(Some((1, 1)));
        let cells = manifest.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[0].get("label").unwrap().as_str(),
            Some("f3/gzip/gshare")
        );
        assert_eq!(
            manifest
                .get("totals")
                .unwrap()
                .get("cells")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(
            manifest
                .get("totals")
                .unwrap()
                .get("repeat")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(cells[2].get("source").unwrap().as_str(), Some("repeat"));
        assert_eq!(
            manifest
                .get("totals")
                .unwrap()
                .get("replayed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            manifest
                .get("fingerprints")
                .unwrap()
                .get("compile_options")
                .unwrap()
                .as_str(),
            Some("00000000deadbeef")
        );
        // the rendered form parses back
        assert!(crate::json::Json::parse(&manifest.pretty()).is_ok());
    }
}
