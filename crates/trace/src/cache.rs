//! Content-addressed on-disk trace cache.
//!
//! Experiment sweeps evaluate many predictor configurations over the same
//! (binary, input) pairs; the cache lets each pair be executed through
//! the functional simulator exactly once and replayed thereafter. Keys
//! are content hashes (program encoding + input memory + budget, or an
//! explicit benchmark/compile-options/seed identity), so a stale file
//! can never be replayed for the wrong run. Writes go to a temporary
//! file in the cache directory and are published with an atomic rename —
//! concurrent runs may duplicate work but never observe a partial trace.
//!
//! Replays are served in preference order:
//!
//! 1. **Segment-served**: each sealed `.pbt` gets a fixed-stride `.pbtd`
//!    sidecar (built at record time), opened once per process as an
//!    mmap-backed [`crate::TraceMap`] and replayed as borrowed batches
//!    straight off the page cache. No per-replay decode, no per-replay
//!    checksum walk, and memory residency is owned by the OS — any
//!    number of streams, shared by concurrent processes sharing one
//!    cache directory.
//! 2. **Full decode**: an entry without a usable sidecar (never built,
//!    stale, or corrupt) is decoded and verified from the v1 varint
//!    stream, and the decoded stream republishes the sidecar, so the
//!    next replay is segment-served again. A failed publish (read-only
//!    directory, full disk) only means the next replay decodes again.
//!
//! A missing or invalid `.pbt` is recorded afresh.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use predbranch_isa::Program;
use predbranch_sim::{
    Event, EventSink, Executor, Memory, RunSummary, TraceSink, EVENT_BATCH_CAPACITY,
};

use crate::error::TraceError;
use crate::format::{memory_fingerprint, program_hash, Fnv64, TraceHeader};
use crate::reader::TraceReader;
use crate::segment::{publish_segment, segment_path, TraceMap};
use crate::writer::TraceWriter;

/// Identifies one recorded run: a human-readable label plus a content
/// digest. Equal keys ⇒ identical event streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    label: String,
    digest: u64,
}

impl CacheKey {
    /// A key from an explicit label and digest (e.g. a
    /// `predbranch_workloads::TraceId` digest).
    pub fn new(label: impl AsRef<str>, digest: u64) -> Self {
        let label: String = label
            .as_ref()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(64)
            .collect();
        CacheKey {
            label: if label.is_empty() {
                "trace".into()
            } else {
                label
            },
            digest,
        }
    }

    /// A fully content-addressed key: hash of the program's binary
    /// encoding, the input memory image, and the instruction budget.
    pub fn for_run(
        label: impl AsRef<str>,
        program: &Program,
        memory: &Memory,
        budget: u64,
    ) -> Self {
        CacheKey::from_digests(
            label,
            program_hash(program),
            memory_fingerprint(memory),
            budget,
        )
    }

    /// [`CacheKey::for_run`] from already-computed digests
    /// ([`program_hash`] and [`memory_fingerprint`]), for callers that
    /// key many runs of one (program, input) pair and hash it once.
    pub fn from_digests(
        label: impl AsRef<str>,
        program_hash: u64,
        memory_fingerprint: u64,
        budget: u64,
    ) -> Self {
        let mut digest = Fnv64::new();
        digest.update_u64(program_hash);
        digest.update_u64(memory_fingerprint);
        digest.update_u64(budget);
        CacheKey::new(label, digest.digest())
    }

    /// The key's digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The file name this key maps to.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.pbt", self.label, self.digest)
    }
}

/// A directory of sealed trace files, one per [`CacheKey`].
///
/// # Examples
///
/// ```no_run
/// use predbranch_sim::NullSink;
/// use predbranch_trace::{CacheKey, TraceCache};
///
/// let cache = TraceCache::open("/tmp/pbt-cache").unwrap();
/// let program = predbranch_isa::assemble("halt").unwrap();
/// let memory = predbranch_sim::Memory::new();
/// let key = CacheKey::for_run("demo", &program, &memory, 100);
/// let (summary, hit) = cache
///     .replay_or_record(&key, &program, memory, 100, &mut NullSink)
///     .unwrap();
/// assert!(summary.halted && !hit);
/// ```
#[derive(Debug)]
pub struct TraceCache {
    dir: PathBuf,
    maps: MapTable,
    serve_counters: ServeCounters,
}

/// A [`TraceCache`]'s open segment maps, keyed by trace path. Maps are
/// validated once at open and immutable after, so concurrent replays
/// share one `Arc<TraceMap>` per stream.
type MapTable = Mutex<Vec<(PathBuf, Arc<TraceMap>)>>;

/// A [`TraceCache`]'s segment-serving traffic counters.
#[derive(Debug, Default)]
struct ServeCounters {
    replays: AtomicU64,
    opens: AtomicU64,
    builds: AtomicU64,
    rejects: AtomicU64,
}

/// A snapshot of segment-serving traffic (see
/// [`TraceCache::serve_stats`]). In a healthy steady-state sweep,
/// `replays` dominates and `rejects` stays 0; a nonzero `rejects`
/// means stale or corrupt sidecars were discarded (and rebuilt on the
/// next decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Replays served zero-copy from an open segment map.
    pub segment_replays: u64,
    /// Segment maps opened and validated this process.
    pub segment_opens: u64,
    /// Sidecars published (at record time or self-healed on a v1
    /// decode).
    pub segment_builds: u64,
    /// Sidecars rejected as stale, corrupt, or wrong-program (the file
    /// is removed and rebuilt on the next full decode).
    pub segment_rejects: u64,
}

/// One sealed trace found by [`TraceCache::scan`].
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The sealed file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Benchmark label from the trace header (`None` if unreadable).
    pub name: Option<String>,
    /// Size of the `.pbtd` segment sidecar, if one exists (not
    /// validated).
    pub segment_bytes: Option<u64>,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TraceCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceCache {
            dir,
            maps: Mutex::new(Vec::new()),
            serve_counters: ServeCounters::default(),
        })
    }

    /// A snapshot of segment-serving traffic through this cache.
    pub fn serve_stats(&self) -> ServeStats {
        ServeStats {
            segment_replays: self.serve_counters.replays.load(Ordering::Relaxed),
            segment_opens: self.serve_counters.opens.load(Ordering::Relaxed),
            segment_builds: self.serve_counters.builds.load(Ordering::Relaxed),
            segment_rejects: self.serve_counters.rejects.load(Ordering::Relaxed),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s trace lives (whether or not it exists yet).
    pub fn path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Whether a sealed trace for `key` is present (not validated).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.path(key).exists()
    }

    /// The cache's fundamental operation: feed `sink` the event stream
    /// for (`program`, `memory`, `budget`) — replaying the cached trace
    /// when one exists and verifies, otherwise executing the program
    /// once while recording it. Returns the run summary and whether it
    /// was a cache hit.
    ///
    /// Both paths deliver events in [`EVENT_BATCH_CAPACITY`]-sized
    /// batches through [`EventSink::events`], so a sink sees the same
    /// calls on a hit as on a miss. Replays prefer the segment
    /// sidecar (opened once per process, then served zero-copy off the
    /// page cache); an entry without one falls back to a full decode
    /// whose stream republishes the missing sidecar, so the next
    /// replay is segment-served. A sink only ever sees events from a
    /// stream that verified in full.
    ///
    /// A present-but-stale or corrupt file (version bump, interrupted
    /// writer from a crashed process, hash mismatch) is treated as a
    /// miss and atomically re-recorded; a stale or corrupt *sidecar*
    /// is discarded and rebuilt without invalidating the trace.
    pub fn replay_or_record<S: EventSink>(
        &self,
        key: &CacheKey,
        program: &Program,
        memory: Memory,
        budget: u64,
        sink: &mut S,
    ) -> Result<(RunSummary, bool), TraceError> {
        let path = self.path(key);
        let expected_hash = program_hash(program);
        if let Some(summary) = self.try_segment_replay(&path, expected_hash, sink)? {
            return Ok((summary, true));
        }
        if path.exists() {
            match self.try_replay(&path, expected_hash, sink) {
                Ok(summary) => return Ok((summary, true)),
                Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
                Err(_stale) => {} // fall through and re-record
            }
        }
        let header = TraceHeader::new(key.label.as_str(), expected_hash, key.digest, budget);
        let summary = self.record(&path, &header, program, memory, budget, sink)?;
        Ok((summary, false))
    }

    /// Serves one replay from the segment sidecar if a usable one
    /// exists. `Ok(None)` means "no sidecar to serve" (absent, stale,
    /// corrupt, or wrong-program — invalid files are deleted so the
    /// next full decode rebuilds them); only real I/O failures
    /// propagate as errors.
    fn try_segment_replay<S: EventSink>(
        &self,
        path: &Path,
        expected_hash: u64,
        sink: &mut S,
    ) -> Result<Option<RunSummary>, TraceError> {
        let map = match self.map_lookup(path) {
            Some(map) => map,
            None => {
                let seg = segment_path(path);
                if !seg.exists() {
                    return Ok(None);
                }
                // Bind against the sealed trace when it still exists;
                // a sidecar that outlived its trace is still sound to
                // serve (self-checksummed, program hash checked below).
                let opened = if path.exists() {
                    TraceMap::open_bound(path)
                } else {
                    TraceMap::open(&seg)
                };
                match opened {
                    Ok(map) => {
                        self.serve_counters.opens.fetch_add(1, Ordering::Relaxed);
                        let map = Arc::new(map);
                        self.map_insert(path, Arc::clone(&map));
                        map
                    }
                    Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
                    Err(_invalid) => {
                        let _ = fs::remove_file(&seg);
                        self.serve_counters.rejects.fetch_add(1, Ordering::Relaxed);
                        return Ok(None);
                    }
                }
            }
        };
        if map.header().program_hash != expected_hash {
            self.map_remove(path);
            let _ = fs::remove_file(segment_path(path));
            self.serve_counters.rejects.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let mut buffer = Vec::with_capacity(EVENT_BATCH_CAPACITY);
        let summary = map.replay(sink, &mut buffer)?;
        self.serve_counters.replays.fetch_add(1, Ordering::Relaxed);
        Ok(Some(summary))
    }

    /// An already-open segment map for `path`, if this process has one.
    fn map_lookup(&self, path: &Path) -> Option<Arc<TraceMap>> {
        let maps = self
            .maps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        maps.iter()
            .find(|(p, _)| p == path)
            .map(|(_, m)| Arc::clone(m))
    }

    fn map_insert(&self, path: &Path, map: Arc<TraceMap>) {
        let mut maps = self
            .maps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !maps.iter().any(|(p, _)| p == path) {
            maps.push((path.to_path_buf(), map));
        }
    }

    fn map_remove(&self, path: &Path) {
        let mut maps = self
            .maps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        maps.retain(|(p, _)| p != path);
    }

    /// Decodes `path` fully (so corrupt traces deliver *nothing* before
    /// the fall-through re-records them) and feeds the verified stream
    /// to `sink` in batches, then publishes it as the missing sidecar
    /// (best effort) so repeat replays are segment-served.
    fn try_replay<S: EventSink>(
        &self,
        path: &Path,
        expected_hash: u64,
        sink: &mut S,
    ) -> Result<RunSummary, TraceError> {
        let reader = TraceReader::open(path)?;
        let stored = reader.header().program_hash;
        if stored != expected_hash {
            return Err(TraceError::ProgramMismatch {
                stored,
                expected: expected_hash,
            });
        }
        let (events, stats) = reader.read_events()?;
        for chunk in events.chunks(EVENT_BATCH_CAPACITY) {
            sink.events(chunk);
        }
        self.publish(path, expected_hash, stats.checksum, &stats.summary, &events);
        Ok(stats.summary)
    }

    /// Best-effort sidecar publication from an already-decoded stream.
    /// A failure (read-only cache dir, disk full) leaves the v1 entry
    /// authoritative; the next replay simply decodes it again.
    fn publish(
        &self,
        path: &Path,
        program_hash: u64,
        source_checksum: u64,
        summary: &RunSummary,
        events: &[Event],
    ) {
        if publish_segment(path, program_hash, source_checksum, summary, events).is_ok() {
            self.serve_counters.builds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every sealed entry in the cache directory, sorted by file name
    /// (skips temporaries and non-trace files). `name` is the
    /// benchmark label from the trace header, or `None` when the file
    /// is unreadable/corrupt — callers decide whether that matters.
    pub fn scan(&self) -> io::Result<Vec<CacheEntry>> {
        let mut entries = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            let file_name = dirent.file_name();
            let file_name = file_name.to_string_lossy();
            if file_name.starts_with('.') || !file_name.ends_with(".pbt") {
                continue;
            }
            let bytes = dirent.metadata()?.len();
            let name = TraceReader::open(&path)
                .ok()
                .map(|reader| reader.header().name.clone());
            let segment_bytes = fs::metadata(segment_path(&path)).ok().map(|m| m.len());
            entries.push(CacheEntry {
                path,
                bytes,
                name,
                segment_bytes,
            });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Records a run to `path` via write-then-fsync-then-rename, teeing
    /// each [`EVENT_BATCH_CAPACITY`]-sized batch into `sink` as it
    /// executes — the same batches a replay of the sealed trace
    /// delivers. Publication is atomic: any
    /// number of concurrent publishers may race on the same key (from
    /// this or other threads/processes), each writes its own uniquely
    /// named temporary, and whichever rename lands last simply
    /// replaces an identical sealed file — readers never observe a
    /// partial trace.
    ///
    /// The events are also collected in memory and, once the trace is
    /// sealed, published as its `.pbtd` sidecar (best effort) so the
    /// very first replay is already segment-served.
    fn record<S: EventSink>(
        &self,
        path: &Path,
        header: &TraceHeader,
        program: &Program,
        memory: Memory,
        budget: u64,
        sink: &mut S,
    ) -> Result<RunSummary, TraceError> {
        let tmp = self.dir.join(format!(
            ".{}.tmp.{}.{}",
            header.name,
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let mut collector = TraceSink::new();
        let result = (|| {
            let mut writer = TraceWriter::create(&tmp, header)?;
            let mut tee = ((&mut *sink, &mut collector), &mut writer);
            let mut buffer = Vec::with_capacity(EVENT_BATCH_CAPACITY);
            let summary = Executor::new(program, memory).run_batched(&mut tee, budget, &mut buffer);
            let mut file = writer
                .finish(&summary)?
                .into_inner()
                .map_err(|e| io::Error::other(format!("flush failed: {e}")))?;
            file.flush()?;
            // fsync before publishing: a crash after the rename must not
            // leave a sealed name pointing at unwritten blocks
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, path)?;
            Ok(summary)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        let summary = result.map_err(TraceError::Io)?;
        // A re-recorded trace invalidates whatever map/sidecar the old
        // generation had.
        self.map_remove(path);
        if let Ok(tail) = crate::segment::trace_tail_checksum(path) {
            self.publish(
                path,
                header.program_hash,
                tail,
                &summary,
                collector.events(),
            );
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::assemble;
    use predbranch_sim::TraceSink;

    fn toy_program() -> Program {
        assemble(
            r#"
                mov r1 = 5
            loop:
                cmp.gt p1, p2 = r1, 0
                (p1) sub r1 = r1, 1
                (p1) br loop
                halt
            "#,
        )
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pbt-cache-test-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_records_then_hit_replays_identically() {
        let dir = tmp_dir("hit");
        let cache = TraceCache::open(&dir).unwrap();
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);

        let mut first = TraceSink::new();
        let (s1, hit1) = cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut first)
            .unwrap();
        assert!(!hit1);
        assert!(cache.contains(&key));

        let mut second = TraceSink::new();
        let (s2, hit2) = cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut second)
            .unwrap();
        assert!(hit2);
        assert_eq!(s1, s2);
        assert_eq!(first.events(), second.events());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_re_recorded_not_fatal() {
        let dir = tmp_dir("corrupt");
        let cache = TraceCache::open(&dir).unwrap();
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);
        cache
            .replay_or_record(
                &key,
                &program,
                Memory::new(),
                1_000,
                &mut predbranch_sim::NullSink,
            )
            .unwrap();

        // truncate the sealed file to simulate a torn write
        let path = cache.path(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let mut sink = TraceSink::new();
        let (summary, hit) = cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut sink)
            .unwrap();
        assert!(!hit, "corrupt file must not count as a hit");
        assert!(summary.halted);
        // and the re-recorded file now verifies
        TraceReader::open(&path).unwrap().verify().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_inputs_get_different_keys() {
        let program = toy_program();
        let mut mem = Memory::new();
        mem.store(1_000, 7);
        let a = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);
        let b = CacheKey::for_run("toy", &program, &mem, 1_000);
        let c = CacheKey::for_run("toy", &program, &Memory::new(), 2_000);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(b.digest(), c.digest());
    }

    #[test]
    fn labels_are_sanitized_for_filenames() {
        let key = CacheKey::new("a/b c!", 7);
        assert_eq!(key.file_name(), "a_b_c_-0000000000000007.pbt");
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmp_dir("clean");
        let cache = TraceCache::open(&dir).unwrap();
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);
        cache
            .replay_or_record(
                &key,
                &program,
                Memory::new(),
                1_000,
                &mut predbranch_sim::NullSink,
            )
            .unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_publishes_a_sidecar_and_replays_are_segment_served() {
        let dir = tmp_dir("segment");
        let cache = TraceCache::open(&dir).unwrap();
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);

        let mut recorded = TraceSink::new();
        cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut recorded)
            .unwrap();
        assert!(crate::segment::segment_path(&cache.path(&key)).exists());
        assert_eq!(cache.serve_stats().segment_builds, 1);

        for _ in 0..2 {
            let mut sink = TraceSink::new();
            let (_, hit) = cache
                .replay_or_record(&key, &program, Memory::new(), 1_000, &mut sink)
                .unwrap();
            assert!(hit);
            assert_eq!(sink.events(), recorded.events());
        }
        let stats = cache.serve_stats();
        assert_eq!(stats.segment_replays, 2);
        assert_eq!(stats.segment_opens, 1, "map opens once, serves many");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_only_entry_self_heals_a_sidecar() {
        let dir = tmp_dir("selfheal");
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);
        TraceCache::open(&dir)
            .unwrap()
            .replay_or_record(
                &key,
                &program,
                Memory::new(),
                1_000,
                &mut predbranch_sim::NullSink,
            )
            .unwrap();

        // drop the sidecar: a pure v1 cache entry, as an older cache or
        // a failed publish leaves it
        let cache = TraceCache::open(&dir).unwrap();
        fs::remove_file(crate::segment::segment_path(&cache.path(&key))).unwrap();
        // first replay falls back to a full decode and builds the sidecar
        let mut first = TraceSink::new();
        let (_, hit) = cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut first)
            .unwrap();
        assert!(hit);
        assert_eq!(cache.serve_stats().segment_builds, 1);
        assert!(crate::segment::segment_path(&cache.path(&key)).exists());
        // repeat replays are segment-served
        let mut second = TraceSink::new();
        cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut second)
            .unwrap();
        assert_eq!(cache.serve_stats().segment_replays, 1);
        assert_eq!(first.events(), second.events());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Logs every callback a sink receives, with each batch's length.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct CallLog(Vec<(&'static str, usize)>);

    impl EventSink for CallLog {
        fn branch(&mut self, _event: &predbranch_sim::BranchEvent) {
            self.0.push(("branch", 1));
        }
        fn pred_write(&mut self, _event: &predbranch_sim::PredWriteEvent) {
            self.0.push(("pred_write", 1));
        }
        fn events(&mut self, events: &[Event]) {
            self.0.push(("events", events.len()));
        }
    }

    #[test]
    fn record_replay_and_live_deliver_identical_batches() {
        let dir = tmp_dir("batches");
        let cache = TraceCache::open(&dir).unwrap();
        let program = assemble(
            r#"
                mov r1 = 0
            loop:
                cmp.lt p1, p2 = r1, 1500
                (p1) add r1 = r1, 1
                (p1) br loop
                halt
            "#,
        )
        .unwrap();
        let budget = 100_000;
        let key = CacheKey::for_run("batches", &program, &Memory::new(), budget);

        let mut recorded = CallLog::default();
        let (_, hit) = cache
            .replay_or_record(&key, &program, Memory::new(), budget, &mut recorded)
            .unwrap();
        assert!(!hit);
        let mut replayed = CallLog::default();
        let (_, hit) = cache
            .replay_or_record(&key, &program, Memory::new(), budget, &mut replayed)
            .unwrap();
        assert!(hit);
        let mut live = CallLog::default();
        Executor::new(&program, Memory::new()).run_batched(&mut live, budget, &mut Vec::new());

        assert_eq!(recorded, replayed);
        assert_eq!(recorded, live);
        let full = ("events", EVENT_BATCH_CAPACITY);
        assert_eq!(&recorded.0[..4], &[full; 4], "{:?}", recorded.0);
        assert_eq!(recorded.0.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sidecar_is_rejected_then_rebuilt() {
        let dir = tmp_dir("sidecar-corrupt");
        let cache = TraceCache::open(&dir).unwrap();
        let program = toy_program();
        let key = CacheKey::for_run("toy", &program, &Memory::new(), 1_000);
        let mut recorded = TraceSink::new();
        cache
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut recorded)
            .unwrap();

        let seg = crate::segment::segment_path(&cache.path(&key));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&seg, &bytes).unwrap();

        // a fresh handle (no open map) rejects the corrupt sidecar,
        // serves the replay from a full v1 decode, and rebuilds it
        let fresh = TraceCache::open(&dir).unwrap();
        let mut sink = TraceSink::new();
        let (_, hit) = fresh
            .replay_or_record(&key, &program, Memory::new(), 1_000, &mut sink)
            .unwrap();
        assert!(hit, "the v1 trace is intact: still a replay hit");
        assert_eq!(sink.events(), recorded.events());
        let stats = fresh.serve_stats();
        assert_eq!(stats.segment_rejects, 1);
        assert_eq!(stats.segment_builds, 1);
        // and the rebuilt sidecar serves the next replay
        fresh
            .replay_or_record(
                &key,
                &program,
                Memory::new(),
                1_000,
                &mut predbranch_sim::NullSink,
            )
            .unwrap();
        assert_eq!(fresh.serve_stats().segment_replays, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
