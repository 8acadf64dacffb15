//! Resumable sweep checkpoints.
//!
//! A checkpoint is an append-only JSONL journal: one line per completed
//! cell, `{"k": <key>, "ms": <wall_ms>, "v": <payload>}`. Appends are
//! flushed per line, so a sweep killed at any instant loses at most the
//! line being written; on reopen, a torn trailing line is detected and
//! ignored (the cell simply re-runs). Lines without a `"k"` field are
//! skipped: they never load as completed cells. Keys are expected to be
//! content-addressed by the caller — a resumed sweep trusts an entry
//! *only* because its key encodes everything that determines the
//! result.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::json::Json;

/// An open checkpoint journal: previously completed cells loaded into
/// memory, plus an append handle for newly completed ones.
#[derive(Debug)]
pub struct Checkpoint {
    completed: HashMap<String, Json>,
    writer: Mutex<File>,
}

impl Checkpoint {
    /// Opens (creating if absent) the journal at `path`, loading every
    /// intact entry. A corrupt or torn tail — a journal whose writer was
    /// killed mid-append — is *truncated away*, not fatal: the affected
    /// cell simply re-runs, and subsequent appends start on a fresh
    /// line instead of gluing onto the torn one.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut completed = HashMap::new();
        let mut valid_end = 0u64;
        match std::fs::read_to_string(&path) {
            // journals hold one line per *cell* (not per event), so
            // reading whole is cheap even for huge sweeps
            Ok(text) => {
                let mut offset = 0usize;
                for segment in text.split_inclusive('\n') {
                    let terminated = segment.ends_with('\n');
                    let line = segment.trim_end_matches(['\n', '\r']);
                    let entry = if line.trim().is_empty() {
                        None
                    } else {
                        match Json::parse(line) {
                            Ok(entry) => Some(entry),
                            Err(_) => break, // torn tail: drop it and stop
                        }
                    };
                    if !terminated {
                        // an unterminated final line may have lost its
                        // newline to a kill; conservatively re-run it
                        break;
                    }
                    if let Some(entry) = entry {
                        if let (Some(key), Some(value)) =
                            (entry.get("k").and_then(Json::as_str), entry.get("v"))
                        {
                            completed.insert(key.to_string(), value.clone());
                        }
                    }
                    offset += segment.len();
                    valid_end = offset as u64;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        writer.set_len(valid_end)?;
        Ok(Checkpoint {
            completed,
            writer: Mutex::new(writer),
        })
    }

    /// The payload recorded for `key` by an earlier run, if the journal
    /// held it when it was opened. Entries [`Checkpoint::record`]
    /// appends later are on disk only: a lookup does not see them until
    /// the journal is opened again.
    pub fn lookup(&self, key: &str) -> Option<&Json> {
        self.completed.get(key)
    }

    /// Entries loaded at open time.
    pub fn loaded(&self) -> usize {
        self.completed.len()
    }

    /// Appends a completed cell and flushes it to disk before
    /// returning, so the entry survives a kill arriving right after.
    pub fn record(&self, key: &str, wall_ms: u64, payload: &Json) -> io::Result<()> {
        let line = Json::obj()
            .field("k", key)
            .field("ms", wall_ms)
            .field("v", payload.clone())
            .render();
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(writer, "{line}")?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pb-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_then_reopen_restores_entries() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.loaded(), 0);
        ckpt.record("cell-a", 5, &Json::obj().field("x", 1u64))
            .unwrap();
        ckpt.record("cell-b", 9, &Json::from("text")).unwrap();
        drop(ckpt);

        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(
            reopened
                .lookup("cell-a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(reopened.lookup("cell-b").unwrap().as_str(), Some("text"));
        assert!(reopened.lookup("cell-c").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyless_lines_never_load_as_cells() {
        let path = tmp("keyless");
        let keyless = Json::obj().field("v", 7u64).render();
        std::fs::write(&path, format!("{keyless}\n")).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.loaded(), 0, "a line without \"k\" is not a cell");
        ckpt.record("cell", 3, &Json::from(7u64)).unwrap();
        drop(ckpt);
        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert_eq!(reopened.lookup("cell").and_then(Json::as_u64), Some(7));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&keyless), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path).unwrap();
        ckpt.record("good", 1, &Json::from(1u64)).unwrap();
        ckpt.record("casualty", 1, &Json::from(2u64)).unwrap();
        drop(ckpt);
        // simulate a kill mid-append: truncate the last line in half
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert!(reopened.lookup("good").is_some());
        assert!(reopened.lookup("casualty").is_none());
        // and the journal still accepts appends afterwards
        reopened.record("new", 1, &Json::Null).unwrap();
        drop(reopened);
        let again = Checkpoint::open(&path).unwrap();
        assert!(again.lookup("new").is_some());
        let _ = std::fs::remove_file(&path);
    }
}
