//! Decoded segment sidecars (`.pbtd`) and the mmap-backed [`TraceMap`].
//!
//! The v1 varint stream is compact but serial: every replay pays a full
//! decode and checksum walk. The segment sidecar trades disk bytes for
//! serving speed: events are stored **fixed-stride**, so a replay is a
//! pointer cast over an `mmap`ed file — no decode, no per-replay
//! allocation proportional to the stream, and residency managed by the
//! OS page cache, shared between every process of a sharded sweep.
//!
//! # Layout (segment version 1)
//!
//! ```text
//! offset  0  magic "PBTD" · version u16 LE · layout canary u16 LE (0x00FF)
//! offset  8  program_hash u64 · source_checksum u64 · event_count u64
//! offset 32  RunSummary: instructions · branches · conditional ·
//!            region · taken_conditional · pred_writes · halted (7 × u64)
//! offset 88  reserved u64 (zero)
//! offset 96  events: event_count × 24-byte records (below)
//! tail       checksum u64 LE — FNV-1a of every preceding byte
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
//! checksum once per open — replays served from an open map do no
//! further hashing.

use std::fs;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use predbranch_isa::PredReg;
use predbranch_sim::{BranchEvent, Event, EventSink, PredWriteEvent, RunSummary};

use crate::error::TraceError;
use crate::format::{
    Fnv64, HashingWriter, FLAG_CONDITIONAL, FLAG_GUARD_VALUE, FLAG_HAS_REGION, FLAG_TAKEN,
    FLAG_VALUE,
};
use crate::reader::TraceReader;

/// File magic of a segment sidecar.
pub const SEGMENT_MAGIC: [u8; 4] = *b"PBTD";

/// Current segment format version. Readers reject anything else.
pub const SEGMENT_VERSION: u16 = 1;

/// The layout canary stored at offset 6: reads back as this value
/// exactly when the file is interpreted little-endian.
const LAYOUT_CANARY: u16 = 0x00FF;

/// Bytes before the event section.
const SEGMENT_HEADER_LEN: usize = 96;

/// Bytes per event record.
pub const SEGMENT_EVENT_STRIDE: usize = 24;

/// Sidecar file extension (next to `.pbt`).
pub const SEGMENT_EXTENSION: &str = "pbtd";

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
    fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&SEGMENT_MAGIC)?;
        out.write_all(&SEGMENT_VERSION.to_le_bytes())?;
        out.write_all(&LAYOUT_CANARY.to_le_bytes())?;
        out.write_all(&self.program_hash.to_le_bytes())?;
        out.write_all(&self.source_checksum.to_le_bytes())?;
        out.write_all(&self.event_count.to_le_bytes())?;
        let s = &self.summary;
        for word in [
            s.instructions,
            s.branches,
            s.conditional_branches,
            s.region_branches,
            s.taken_conditional,
            s.pred_writes,
            s.halted as u64,
            0u64, // reserved
        ] {
            out.write_all(&word.to_le_bytes())?;
        }
        Ok(())
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
            return Err(TraceError::UnsupportedVersion(version));
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
/// already-decoded event stream. Used by the cache when it records or
/// first decodes a trace, and by `pbtrace migrate`.
///
/// Same discipline as trace publication: write a uniquely named
/// temporary in the same directory, fsync, rename. Concurrent builders
/// race benignly — every temporary has identical contents.
pub fn publish_segment(
    trace_path: &Path,
    program_hash: u64,
    source_checksum: u64,
    summary: &RunSummary,
    events: &[Event],
) -> Result<PathBuf, TraceError> {
    let target = segment_path(trace_path);
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
    let header = SegmentHeader {
        program_hash,
        source_checksum,
        event_count: events.len() as u64,
        summary: *summary,
    };
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let mut out = HashingWriter::new(BufWriter::new(file));
        header.write_to(&mut out)?;
        for event in events {
            out.write_all(&RawEvent::encode(event).as_bytes())?;
        }
        let digest = out.digest();
        let inner = out.get_mut();
        inner.write_all(&digest.to_le_bytes())?;
        inner.flush()?;
        inner.get_ref().sync_all()?;
        fs::rename(&tmp, &target)?;
        Ok(target.clone())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map_err(TraceError::Io)
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
/// mapping — no decode pass, no hashing, memory residency owned by the
/// OS rather than by the process.
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
        let body = &mapping[..expected_len - 8];
        let mut hash = Fnv64::new();
        hash.update(body);
        let computed = hash.digest();
        let stored = u64::from_le_bytes(mapping[expected_len - 8..].try_into().unwrap());
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let map = TraceMap { mapping, header };
        // Validate every record's tag and register fields now, so a
        // successful open guarantees replays deliver only well-formed
        // events (the sink partial-delivery invariant the v1 path gets
        // from decode-before-deliver).
        for raw in map.raw_events() {
            raw.decode()?;
        }
        Ok(map)
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

    /// Whether the bytes come from a real `mmap` (false = buffered
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_mapped()
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
        for chunk in self
            .raw_events()
            .chunks(predbranch_sim::EVENT_BATCH_CAPACITY)
        {
            buffer.clear();
            for raw in chunk {
                buffer.push(raw.decode()?);
            }
            sink.events(buffer);
        }
        buffer.clear();
        Ok(self.header.summary)
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
        let dir = std::env::temp_dir().join(format!(
            "pb-segment-{dir_tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.pbt");
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
