//! Decoded segment sidecars (`.pbtd`) and the mmap-backed [`TraceMap`].
//!
//! The v1 varint stream is compact but serial: every replay pays a full
//! decode and checksum walk. The segment sidecar trades disk bytes for
//! serving speed: events are stored **fixed-stride**, so a replay is a
//! pointer cast over an `mmap`ed file — no decode and no per-replay
//! allocation proportional to the stream. The bytes live in the OS page
//! cache, shared between concurrent processes sharing one cache
//! directory; the pages a replay reads count toward the process's
//! resident set only until the cache releases them after the replay.
//!
//! # Layout (segment version 2)
//!
//! ```text
//! offset  0  magic "PBTD" · version u16 LE · layout canary u16 LE (0x00FF)
//! offset  8  program_hash u64 · source_checksum u64 · event_count u64
//! offset 32  RunSummary: instructions · branches · conditional ·
//!            region · taken_conditional · pred_writes · halted (7 × u64)
//! offset 88  reserved u64 (zero)
//! offset 96  events: event_count × 24-byte records (below)
//! tail       checksum u64 LE — FNV-1a over the little-endian u64
//!            words of every preceding byte (one step per word)
//! ```
//!
//! Each 24-byte record:
//!
//! ```text
//! index u64 · pc u32 · target u32 · kind u8 (0x01 branch, 0x02 pred
//! write) · guard u8 · flags u8 (same bits as the v1 format) · preg u8
//! · region u16 · pad u16 (zero)
//! ```
//!
//! # Alignment and endianness contract
//!
//! All multi-byte fields are little-endian **byte arrays**: the record
//! struct has alignment 1 and size 24 (statically asserted), so the
//! borrowed `&[RawEvent]` cast out of the mapping is valid at any byte
//! offset and on any host. Big-endian hosts read the same files
//! correctly (at the cost of a byte swap per field); the layout canary
//! at offset 6 reads as `0x00FF` exactly when the file is interpreted
//! little-endian. The event section starts at byte 96 — 8-aligned so a
//! future wider record type could be cast directly.
//!
//! # Integrity
//!
//! `source_checksum` is the trailing FNV-1a checksum of the `.pbt` the
//! segment was built from. A sealed trace is never rewritten in place
//! (the cache publishes by rename), so checking those 8 bytes binds a
//! sidecar to its exact trace generation: re-record the trace and the
//! stale sidecar is detected ([`TraceError::SegmentStale`]) and
//! rebuilt. [`TraceMap::open`] verifies the segment's own trailing
//! checksum once per open, in the same pass that checks every record —
//! replays served from an open map do no further hashing.
//!
//! The segment's checksum is FNV-1a taken a word at a time: the body
//! (header and records) is always whole little-endian `u64` words, and
//! each word is one xor-multiply step, so a record costs three
//! dependent multiplies instead of byte-wise FNV-1a's 24. It still
//! covers every byte, and since each step is one-to-one in the state
//! and in the word, a change confined to one word always changes it.
//! The `.pbt` format and every content key keep byte-wise FNV-1a.
//! Version 1 sidecars were checksummed byte-wise; open refuses them by
//! version ([`TraceError::UnsupportedSegmentVersion`]) before any
//! checksum, and the cache's next replay, or `pbtrace migrate`,
//! rebuilds them from their intact `.pbt`.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use predbranch_isa::PredReg;
use predbranch_sim::{
    BranchEvent, Event, EventSink, PredWriteEvent, RunSummary, EVENT_BATCH_CAPACITY,
};

use crate::error::TraceError;
use crate::format::{
    Fnv64, FLAG_CONDITIONAL, FLAG_GUARD_VALUE, FLAG_HAS_REGION, FLAG_TAKEN, FLAG_VALUE,
};
use crate::reader::TraceReader;

/// File magic of a segment sidecar.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"PBTD";

/// Current segment format version. Readers reject anything else.
pub(crate) const SEGMENT_VERSION: u16 = 2;

/// The layout canary stored at offset 6: reads back as this value
/// exactly when the file is interpreted little-endian.
const LAYOUT_CANARY: u16 = 0x00FF;

/// Bytes before the event section.
const SEGMENT_HEADER_LEN: usize = 96;

/// Bytes per event record.
pub(crate) const SEGMENT_EVENT_STRIDE: usize = 24;

/// Sidecar file extension (next to `.pbt`).
pub(crate) const SEGMENT_EXTENSION: &str = "pbtd";

const KIND_BRANCH: u8 = 0x01;
const KIND_PRED_WRITE: u8 = 0x02;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where the segment sidecar for `trace_path` lives.
pub fn segment_path(trace_path: &Path) -> PathBuf {
    trace_path.with_extension(SEGMENT_EXTENSION)
}

/// The trailing FNV-1a checksum of a sealed `.pbt` — the 8 bytes that
/// bind a sidecar to its exact trace generation — read without
/// decoding the file.
pub fn trace_tail_checksum(trace_path: &Path) -> Result<u64, TraceError> {
    let mut file = fs::File::open(trace_path).map_err(TraceError::Io)?;
    let len = file.metadata().map_err(TraceError::Io)?.len();
    if len < 8 {
        return Err(TraceError::Truncated);
    }
    file.seek(SeekFrom::End(-8)).map_err(TraceError::Io)?;
    let mut tail = [0u8; 8];
    file.read_exact(&mut tail).map_err(TraceError::from)?;
    Ok(u64::from_le_bytes(tail))
}

/// One fixed-stride event record, exactly as stored on disk.
///
/// Every multi-byte field is a little-endian byte array, which pins
/// `align_of::<RawEvent>()` to 1 and `size_of` to the stride — both
/// statically asserted — so a `&[u8]` region of the mapping casts to
/// `&[RawEvent]` soundly regardless of host alignment rules, and field
/// reads (`u64::from_le_bytes` etc.) compile to plain loads on
/// little-endian hosts.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct RawEvent {
    index: [u8; 8],
    pc: [u8; 4],
    target: [u8; 4],
    kind: u8,
    guard: u8,
    flags: u8,
    preg: u8,
    region: [u8; 2],
    pad: [u8; 2],
}

const _: () = {
    assert!(std::mem::size_of::<RawEvent>() == SEGMENT_EVENT_STRIDE);
    assert!(std::mem::align_of::<RawEvent>() == 1);
    assert!(SEGMENT_HEADER_LEN.is_multiple_of(8));
    assert!(SEGMENT_EVENT_STRIDE.is_multiple_of(8));
};

impl RawEvent {
    /// Encodes a decoded event into its fixed-stride record.
    pub fn encode(event: &Event) -> RawEvent {
        match event {
            Event::Branch(b) => {
                let mut flags = 0u8;
                if b.taken {
                    flags |= FLAG_TAKEN;
                }
                if b.conditional {
                    flags |= FLAG_CONDITIONAL;
                }
                if b.region.is_some() {
                    flags |= FLAG_HAS_REGION;
                }
                RawEvent {
                    index: b.index.to_le_bytes(),
                    pc: b.pc.to_le_bytes(),
                    target: b.target.to_le_bytes(),
                    kind: KIND_BRANCH,
                    guard: b.guard.index(),
                    flags,
                    preg: 0,
                    region: b.region.unwrap_or(0).to_le_bytes(),
                    pad: [0; 2],
                }
            }
            Event::PredWrite(p) => {
                let mut flags = 0u8;
                if p.value {
                    flags |= FLAG_VALUE;
                }
                if p.guard_value {
                    flags |= FLAG_GUARD_VALUE;
                }
                RawEvent {
                    index: p.index.to_le_bytes(),
                    pc: p.pc.to_le_bytes(),
                    target: [0; 4],
                    kind: KIND_PRED_WRITE,
                    guard: p.guard.index(),
                    flags,
                    preg: p.preg.index(),
                    region: [0; 2],
                    pad: [0; 2],
                }
            }
        }
    }

    /// Decodes the record, validating predicate-register indices and
    /// the kind tag.
    pub fn decode(&self) -> Result<Event, TraceError> {
        let index = u64::from_le_bytes(self.index);
        let pc = u32::from_le_bytes(self.pc);
        let guard = PredReg::new(self.guard).ok_or(TraceError::BadPredReg(self.guard))?;
        match self.kind {
            KIND_BRANCH => Ok(Event::Branch(BranchEvent {
                pc,
                target: u32::from_le_bytes(self.target),
                guard,
                taken: self.flags & FLAG_TAKEN != 0,
                conditional: self.flags & FLAG_CONDITIONAL != 0,
                region: if self.flags & FLAG_HAS_REGION != 0 {
                    Some(u16::from_le_bytes(self.region))
                } else {
                    None
                },
                index,
            })),
            KIND_PRED_WRITE => Ok(Event::PredWrite(PredWriteEvent {
                pc,
                preg: PredReg::new(self.preg).ok_or(TraceError::BadPredReg(self.preg))?,
                value: self.flags & FLAG_VALUE != 0,
                index,
                guard,
                guard_value: self.flags & FLAG_GUARD_VALUE != 0,
            })),
            other => Err(TraceError::BadEventTag(other)),
        }
    }

    fn as_bytes(&self) -> [u8; SEGMENT_EVENT_STRIDE] {
        let mut out = [0u8; SEGMENT_EVENT_STRIDE];
        out[0..8].copy_from_slice(&self.index);
        out[8..12].copy_from_slice(&self.pc);
        out[12..16].copy_from_slice(&self.target);
        out[16] = self.kind;
        out[17] = self.guard;
        out[18] = self.flags;
        out[19] = self.preg;
        out[20..22].copy_from_slice(&self.region);
        // bytes 22..24 stay zero (pad)
        out
    }
}

/// Provenance and totals of one segment sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Hash of the program the source trace was recorded from.
    pub program_hash: u64,
    /// Trailing checksum of the `.pbt` this segment was built from.
    pub source_checksum: u64,
    /// Events in the segment.
    pub event_count: u64,
    /// The recording run's summary, as the v1 footer stored it.
    pub summary: RunSummary,
}

impl SegmentHeader {
    /// The header's bytes, exactly as stored.
    fn to_bytes(self) -> [u8; SEGMENT_HEADER_LEN] {
        let s = &self.summary;
        let words = [
            self.program_hash,
            self.source_checksum,
            self.event_count,
            s.instructions,
            s.branches,
            s.conditional_branches,
            s.region_branches,
            s.taken_conditional,
            s.pred_writes,
            s.halted as u64,
            0u64, // reserved
        ];
        let mut out = [0u8; SEGMENT_HEADER_LEN];
        out[0..4].copy_from_slice(&SEGMENT_MAGIC);
        out[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out[6..8].copy_from_slice(&LAYOUT_CANARY.to_le_bytes());
        for (slot, word) in out[8..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn read_from(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(TraceError::Truncated);
        }
        if bytes[0..4] != SEGMENT_MAGIC {
            return Err(TraceError::BadSegment("bad magic"));
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != SEGMENT_VERSION {
            return Err(TraceError::UnsupportedSegmentVersion {
                found: version,
                expected: SEGMENT_VERSION,
            });
        }
        if u16::from_le_bytes(bytes[6..8].try_into().unwrap()) != LAYOUT_CANARY {
            return Err(TraceError::BadSegment("layout canary mismatch"));
        }
        let halted = word(80);
        if halted > 1 || word(88) != 0 {
            return Err(TraceError::BadSegment("corrupt header field"));
        }
        Ok(SegmentHeader {
            program_hash: word(8),
            source_checksum: word(16),
            event_count: word(24),
            summary: RunSummary {
                instructions: word(32),
                branches: word(40),
                conditional_branches: word(48),
                region_branches: word(56),
                taken_conditional: word(64),
                pred_writes: word(72),
                halted: halted != 0,
            },
        })
    }
}

/// Atomically publishes a segment sidecar next to `trace_path` from an
/// already-decoded event stream. Used by the cache when it first
/// decodes a trace, and by `pbtrace migrate`; a recording builds its
/// sidecar with a `SegmentWriter` as the events arrive.
pub fn publish_segment(
    trace_path: &Path,
    program_hash: u64,
    source_checksum: u64,
    summary: &RunSummary,
    events: &[Event],
) -> Result<PathBuf, TraceError> {
    let mut writer = SegmentWriter::create(trace_path);
    writer.events(events);
    writer
        .finish(program_hash, source_checksum, summary)
        .map_err(TraceError::Io)
}

/// Bytes of one batch of records: what a [`SegmentWriter`] holds
/// between writes.
const RECORD_BATCH_BYTES: usize = EVENT_BATCH_CAPACITY * SEGMENT_EVENT_STRIDE;

/// An [`EventSink`] that writes a segment sidecar as its stream
/// arrives, so building one never holds the stream in memory: records
/// are encoded [`EVENT_BATCH_CAPACITY`] at a time into one reusable
/// buffer, which the file takes in one write.
///
/// Same discipline as trace publication: write a uniquely named
/// temporary in the same directory, fsync, rename. Concurrent builders
/// race benignly — every temporary has identical contents. The header
/// (event count, source binding, summary) is known only once the stream
/// ends, and the checksum starts with it, so [`SegmentWriter::finish`]
/// writes the header in place and reads the records back, a batch at a
/// time, to checksum them. I/O errors inside sink callbacks are latched
/// and returned by `finish`; a writer dropped unfinished removes its
/// temporary.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    target: PathBuf,
    /// The temporary, until it is renamed into place.
    tmp: Option<PathBuf>,
    /// The temporary's file, or the first I/O error it returned.
    file: io::Result<fs::File>,
    /// Encoded records not yet written: at most one batch.
    records: Vec<u8>,
    events: u64,
}

impl SegmentWriter {
    /// Starts the sidecar of `trace_path`, leaving room for its header.
    pub(crate) fn create(trace_path: &Path) -> Self {
        let dir = trace_path.parent().unwrap_or_else(|| Path::new("."));
        let stem = trace_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "segment".into());
        let tmp = dir.join(format!(
            ".{stem}.pbtd.tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .and_then(|mut file| {
                file.write_all(&[0; SEGMENT_HEADER_LEN])?;
                Ok(file)
            });
        SegmentWriter {
            target: segment_path(trace_path),
            tmp: Some(tmp),
            file,
            records: Vec::with_capacity(RECORD_BATCH_BYTES),
            events: 0,
        }
    }

    fn push(&mut self, event: &Event) {
        self.records
            .extend_from_slice(&RawEvent::encode(event).as_bytes());
        self.events += 1;
        if self.records.len() == RECORD_BATCH_BYTES {
            self.write_records();
        }
    }

    /// Appends the pending records to the file, latching an error.
    fn write_records(&mut self) {
        if let Ok(file) = &mut self.file {
            if let Err(e) = file.write_all(&self.records) {
                self.file = Err(e);
            }
        }
        self.records.clear();
    }

    /// Seals the sidecar — header, checksum, fsync — and renames it into
    /// place. Returns its path.
    pub(crate) fn finish(
        mut self,
        program_hash: u64,
        source_checksum: u64,
        summary: &RunSummary,
    ) -> io::Result<PathBuf> {
        self.write_records();
        let header = SegmentHeader {
            program_hash,
            source_checksum,
            event_count: self.events,
            summary: *summary,
        }
        .to_bytes();
        // take the file, or the latched error; `Drop` needs only `tmp`
        let mut file = std::mem::replace(&mut self.file, Err(io::ErrorKind::Other.into()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        let mut hash = Fnv64::new();
        hash.update_words(&header);
        let mut unread = self.events as usize * SEGMENT_EVENT_STRIDE;
        self.records.resize(RECORD_BATCH_BYTES, 0);
        while unread > 0 {
            let batch = &mut self.records[..unread.min(RECORD_BATCH_BYTES)];
            file.read_exact(batch)?;
            hash.update_words(batch);
            unread -= batch.len();
        }
        file.write_all(&hash.digest().to_le_bytes())?;
        file.sync_all()?;
        let tmp = self.tmp.take().expect("a writer is finished once");
        if let Err(e) = fs::rename(&tmp, &self.target) {
            self.tmp = Some(tmp);
            return Err(e);
        }
        Ok(self.target.clone())
    }
}

impl EventSink for SegmentWriter {
    fn branch(&mut self, event: &BranchEvent) {
        self.push(&Event::Branch(*event));
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.push(&Event::PredWrite(*event));
    }

    fn events(&mut self, events: &[Event]) {
        for event in events {
            self.push(event);
        }
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            let _ = fs::remove_file(tmp);
        }
    }
}

/// What [`migrate_trace`] did for one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateOutcome {
    /// A valid, up-to-date sidecar already existed; nothing written.
    UpToDate,
    /// A sidecar was built (none existed, or the existing one was
    /// stale/corrupt).
    Built,
}

/// Ensures `trace_path` has a valid segment sidecar, building one from
/// a full (verified) decode when needed. Idempotent: a second call
/// finds the sidecar current and writes nothing.
pub fn migrate_trace(trace_path: &Path) -> Result<MigrateOutcome, TraceError> {
    let tail = trace_tail_checksum(trace_path)?;
    match TraceMap::open(&segment_path(trace_path)) {
        Ok(map) if map.header().source_checksum == tail => return Ok(MigrateOutcome::UpToDate),
        _ => {}
    }
    let reader = TraceReader::open(trace_path)?;
    let program_hash = reader.header().program_hash;
    let (events, stats) = reader.read_events()?;
    publish_segment(
        trace_path,
        program_hash,
        stats.checksum,
        &stats.summary,
        &events,
    )?;
    Ok(MigrateOutcome::Built)
}

/// An open, validated segment sidecar serving borrowed event batches
/// straight off the page cache.
///
/// Opening validates structure (magic, version, canary, exact size for
/// the stored event count) and walks the trailing checksum **once**;
/// every [`TraceMap::replay`] after that is a fixed-stride scan of the
/// mapping — no decode pass, no hashing. The pages a replay reads stay
/// in the process's resident set until they are released, which the
/// cache does after each replay; a later replay refaults them.
#[derive(Debug)]
pub struct TraceMap {
    mapping: crate::mmap::Mapping,
    header: SegmentHeader,
}

impl TraceMap {
    /// Opens and fully validates a `.pbtd` file.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mapping = crate::mmap::Mapping::open(path).map_err(TraceError::from)?;
        let header = SegmentHeader::read_from(&mapping)?;
        let events_len = (header.event_count as usize)
            .checked_mul(SEGMENT_EVENT_STRIDE)
            .ok_or(TraceError::BadSegment("event count overflows"))?;
        let expected_len = SEGMENT_HEADER_LEN + events_len + 8;
        if mapping.len() != expected_len {
            return Err(if mapping.len() < expected_len {
                TraceError::Truncated
            } else {
                TraceError::BadSegment("trailing garbage")
            });
        }
        let stored = u64::from_le_bytes(mapping[expected_len - 8..].try_into().unwrap());
        let map = TraceMap { mapping, header };
        // One pass over the records: absorb each one's words and check
        // its tag and register fields, so a successful open guarantees
        // replays deliver only well-formed events (the sink
        // partial-delivery invariant the v1 path gets from
        // decode-before-deliver). A checksum mismatch is reported ahead
        // of a malformed record.
        let mut hash = Fnv64::new();
        hash.update_words(&map.mapping[..SEGMENT_HEADER_LEN]);
        let records = &map.mapping[SEGMENT_HEADER_LEN..expected_len - 8];
        let mut malformed = None;
        for (bytes, raw) in records
            .chunks_exact(SEGMENT_EVENT_STRIDE)
            .zip(map.raw_events())
        {
            hash.update_words(bytes);
            if let Err(e) = raw.decode() {
                malformed.get_or_insert(e);
            }
        }
        let computed = hash.digest();
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        match malformed {
            Some(e) => Err(e),
            None => Ok(map),
        }
    }

    /// Opens the sidecar for `trace_path` and checks it was built from
    /// exactly the sealed trace currently on disk (trailing-checksum
    /// binding). A sidecar left over from a previous recording of the
    /// same key yields [`TraceError::SegmentStale`].
    pub fn open_bound(trace_path: &Path) -> Result<Self, TraceError> {
        let map = TraceMap::open(&segment_path(trace_path))?;
        let tail = trace_tail_checksum(trace_path)?;
        if map.header.source_checksum != tail {
            return Err(TraceError::SegmentStale {
                segment: map.header.source_checksum,
                trace: tail,
            });
        }
        Ok(map)
    }

    /// The segment's provenance header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// The recording run's summary.
    pub fn summary(&self) -> RunSummary {
        self.header.summary
    }

    /// The raw fixed-stride records, borrowed from the mapping.
    pub fn raw_events(&self) -> &[RawEvent] {
        let count = self.header.event_count as usize;
        let bytes =
            &self.mapping[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + count * SEGMENT_EVENT_STRIDE];
        debug_assert_eq!(
            bytes
                .as_ptr()
                .align_offset(std::mem::align_of::<RawEvent>()),
            0
        );
        // SAFETY: `RawEvent` is a plain-old-data byte-array struct with
        // size == SEGMENT_EVENT_STRIDE and alignment 1 (both statically
        // asserted), every bit pattern is a valid value of the type,
        // and `bytes` spans exactly `count` records (length validated
        // at open). The returned slice borrows `self.mapping`, which
        // outlives it.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const RawEvent, count) }
    }

    /// Replays the whole stream into `sink` in
    /// [`predbranch_sim::EVENT_BATCH_CAPACITY`]-sized batches, decoding
    /// each batch into the caller's scratch `buffer` (one reusable
    /// allocation, independent of stream length). Returns the recorded
    /// run's summary.
    pub fn replay<S: EventSink>(
        &self,
        sink: &mut S,
        buffer: &mut Vec<Event>,
    ) -> Result<RunSummary, TraceError> {
        for chunk in self.raw_events().chunks(EVENT_BATCH_CAPACITY) {
            buffer.clear();
            for raw in chunk {
                buffer.push(raw.decode()?);
            }
            sink.events(buffer);
        }
        buffer.clear();
        Ok(self.header.summary)
    }

    /// Hands the mapping's resident pages back to the kernel once a
    /// replay is done with them (see `mmap`). The map stays open and
    /// validated; the next replay refaults the pages it reads.
    pub(crate) fn release_resident(&self) {
        self.mapping.release_resident();
    }

    /// Decodes the whole stream into memory.
    pub fn read_events(&self) -> Result<Vec<Event>, TraceError> {
        self.raw_events().iter().map(RawEvent::decode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_sim::{Executor, Memory, TraceSink};

    /// A fresh, empty directory under the OS temp dir.
    fn fresh_dir(dir_tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pb-segment-{dir_tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Publishes a sidecar of a fixed header and two records, one of
    /// each kind, into a fresh directory; returns the sidecar's path.
    fn known_answer_sidecar(dir_tag: &str) -> PathBuf {
        let summary = RunSummary {
            instructions: 40,
            branches: 3,
            conditional_branches: 2,
            region_branches: 1,
            taken_conditional: 1,
            pred_writes: 1,
            halted: true,
        };
        let reg = |i| PredReg::new(i).unwrap();
        let events = [
            Event::Branch(BranchEvent {
                pc: 7,
                target: 2,
                guard: reg(3),
                taken: true,
                conditional: true,
                region: Some(5),
                index: 12,
            }),
            Event::PredWrite(PredWriteEvent {
                pc: 9,
                preg: reg(4),
                value: false,
                index: 20,
                guard: reg(1),
                guard_value: true,
            }),
        ];
        publish_segment(
            &fresh_dir(dir_tag).join("kat.pbt"),
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            &summary,
            &events,
        )
        .unwrap()
    }

    /// The checksum is part of the format: changing how it is computed
    /// (or the bytes it covers) without a new `SEGMENT_VERSION` would
    /// let a build misread sidecars another build wrote.
    #[test]
    fn word_checksum_known_answer() {
        let seg = known_answer_sidecar("kat");
        let bytes = fs::read(&seg).unwrap();
        assert_eq!(
            bytes.len(),
            SEGMENT_HEADER_LEN + 2 * SEGMENT_EVENT_STRIDE + 8
        );
        let tail = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(
            (SEGMENT_VERSION, tail),
            (2, 0x3e2e_3cc1_3094_80d6),
            "a new checksum needs a new SEGMENT_VERSION"
        );
        let map = TraceMap::open(&seg).unwrap();
        assert_eq!(map.header().event_count, 2);
        let _ = fs::remove_dir_all(seg.parent().unwrap());
    }

    /// Every single-bit flip of a small sidecar is refused at open,
    /// whichever word it lands in: by a structural check where one
    /// trips, by the word checksum everywhere else (flag, pad and
    /// region bits, hashes, the checksum itself).
    #[test]
    fn every_bit_flip_of_a_small_sidecar_is_refused() {
        let seg = known_answer_sidecar("flips");
        let bytes = fs::read(&seg).unwrap();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                fs::write(&seg, &flipped).unwrap();
                assert!(
                    TraceMap::open(&seg).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
        let _ = fs::remove_dir_all(seg.parent().unwrap());
    }

    #[test]
    fn unfinished_writer_leaves_no_file() {
        let dir = fresh_dir("unfinished");
        let mut writer = SegmentWriter::create(&dir.join("t.pbt"));
        let reg = |i| PredReg::new(i).unwrap();
        for index in 0..3_000 {
            writer.pred_write(&PredWriteEvent {
                pc: 9,
                preg: reg(4),
                value: index % 3 == 0,
                index,
                guard: reg(0),
                guard_value: true,
            });
        }
        drop(writer);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    fn toy_trace(dir_tag: &str) -> (PathBuf, Vec<Event>, RunSummary) {
        let program = predbranch_isa::assemble(
            r#"
                mov r1 = 6
            loop:
                cmp.gt p1, p2 = r1, 0
                (p1) sub r1 = r1, 1
                (p1) br loop
                halt
            "#,
        )
        .unwrap();
        let path = fresh_dir(dir_tag).join("toy.pbt");
        let header =
            crate::TraceHeader::new("toy", crate::format::program_hash(&program), 0, 1_000);
        let mut writer = crate::TraceWriter::create(&path, &header).unwrap();
        let mut sink = TraceSink::new();
        let summary = {
            let mut tee = (&mut sink, &mut writer);
            Executor::new(&program, Memory::new()).run(&mut tee, 1_000)
        };
        writer.finish(&summary).unwrap();
        (path, sink.events().to_vec(), summary)
    }

    #[test]
    fn migrate_builds_then_is_idempotent() {
        let (path, events, summary) = toy_trace("migrate");
        assert_eq!(migrate_trace(&path).unwrap(), MigrateOutcome::Built);
        assert_eq!(migrate_trace(&path).unwrap(), MigrateOutcome::UpToDate);

        let map = TraceMap::open_bound(&path).unwrap();
        assert_eq!(map.summary(), summary);
        assert_eq!(map.read_events().unwrap(), events);

        let mut replayed = TraceSink::new();
        let mut buffer = Vec::new();
        let s = map.replay(&mut replayed, &mut buffer).unwrap();
        assert_eq!(s, summary);
        assert_eq!(replayed.events(), events.as_slice());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn stale_sidecar_is_detected_by_source_binding() {
        let (path, _, summary) = toy_trace("stale");
        migrate_trace(&path).unwrap();
        // simulate a re-recorded trace: append-free rewrite with a
        // different tail (flip one byte of the stored checksum)
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TraceMap::open_bound(&path),
            Err(TraceError::SegmentStale { .. })
        ));
        // migrate rebuilds from the (now-corrupt) trace: decode fails,
        // typed error, no partial sidecar published
        assert!(migrate_trace(&path).is_err());
        let _ = summary;
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corruption_in_the_event_section_fails_open() {
        let (path, _, _) = toy_trace("corrupt");
        migrate_trace(&path).unwrap();
        let seg = segment_path(&path);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN - 8) / 2;
        bytes[mid] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            TraceMap::open(&seg),
            Err(TraceError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn truncation_and_garbage_are_typed() {
        let (path, _, _) = toy_trace("trunc");
        migrate_trace(&path).unwrap();
        let seg = segment_path(&path);
        let bytes = fs::read(&seg).unwrap();

        fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(TraceMap::open(&seg), Err(TraceError::Truncated)));

        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        fs::write(&seg, &long).unwrap();
        assert!(matches!(
            TraceMap::open(&seg),
            Err(TraceError::BadSegment(_))
        ));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
