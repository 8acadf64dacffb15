//! The on-disk trace format: layout constants, header, event records,
//! footer, and the stable content hashes used for cache keys.
//!
//! # Layout (version 1)
//!
//! ```text
//! magic      4 bytes   "PBTR"
//! version    u16 LE
//! header     program_hash u64 LE · seed u64 LE · budget u64 LE
//!            · name_len u16 LE · name bytes (UTF-8)
//! events     tagged records (see below), delta-encoded indices
//! end        tag byte 0xE0
//! footer     RunSummary fields (varints + halted byte)
//!            · event_count varint
//! checksum   u64 LE — FNV-1a of every preceding byte
//! ```
//!
//! Event records:
//!
//! ```text
//! 0x01 Branch    Δindex zigzag-varint · pc varint · target varint
//!                · guard u8 · flags u8 (taken/conditional/has-region)
//!                · [region varint]
//! 0x02 PredWrite Δindex zigzag-varint · pc varint · preg u8
//!                · guard u8 · flags u8 (value/guard-value)
//! ```
//!
//! Indices are stored as zigzag deltas against the previous record, so
//! the common case (events a few instructions apart) costs one byte and
//! arbitrary sequences — including non-monotone test streams — still
//! round-trip exactly.

use std::io::{self, Read, Write};

use predbranch_isa::{encode_program, PredReg, Program};
use predbranch_sim::{BranchEvent, Event, Memory, PredWriteEvent, RunSummary};

use crate::error::TraceError;
use crate::varint;

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"PBTR";

/// Current format version. Readers reject anything else.
pub const FORMAT_VERSION: u16 = 1;

/// Tag byte of a [`BranchEvent`] record.
pub(crate) const TAG_BRANCH: u8 = 0x01;

/// Tag byte of a [`PredWriteEvent`] record.
pub(crate) const TAG_PRED_WRITE: u8 = 0x02;

/// Tag byte terminating the event section.
pub(crate) const TAG_END: u8 = 0xE0;

pub(crate) const FLAG_TAKEN: u8 = 1 << 0;
pub(crate) const FLAG_CONDITIONAL: u8 = 1 << 1;
pub(crate) const FLAG_HAS_REGION: u8 = 1 << 2;
pub(crate) const FLAG_VALUE: u8 = 1 << 0;
pub(crate) const FLAG_GUARD_VALUE: u8 = 1 << 1;

/// Everything identifying what a trace was recorded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Stable hash of the traced program (see [`program_hash`]).
    pub program_hash: u64,
    /// Input seed the memory image was generated from (0 when unknown).
    pub seed: u64,
    /// Instruction budget the recording run used.
    pub budget: u64,
    /// Benchmark (or other source) name; informational.
    pub name: String,
}

impl TraceHeader {
    /// A header for `name` with the given provenance.
    pub fn new(name: impl Into<String>, program_hash: u64, seed: u64, budget: u64) -> Self {
        TraceHeader {
            program_hash,
            seed,
            budget,
            name: name.into(),
        }
    }

    pub(crate) fn write_to<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&self.program_hash.to_le_bytes())?;
        out.write_all(&self.seed.to_le_bytes())?;
        out.write_all(&self.budget.to_le_bytes())?;
        let name = self.name.as_bytes();
        let len = u16::try_from(name.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "trace name longer than 64 KiB")
        })?;
        out.write_all(&len.to_le_bytes())?;
        out.write_all(name)
    }

    pub(crate) fn read_from<R: Read + ?Sized>(input: &mut R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = read_u16(input)?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let program_hash = read_u64_le(input)?;
        let seed = read_u64_le(input)?;
        let budget = read_u64_le(input)?;
        let name_len = read_u16(input)? as usize;
        let mut name = vec![0u8; name_len];
        input.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| TraceError::BadName)?;
        Ok(TraceHeader {
            program_hash,
            seed,
            budget,
            name,
        })
    }
}

fn read_u16<R: Read + ?Sized>(input: &mut R) -> Result<u16, TraceError> {
    let mut b = [0u8; 2];
    input.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64_le<R: Read + ?Sized>(input: &mut R) -> Result<u64, TraceError> {
    let mut b = [0u8; 8];
    input.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// The longest event record: a branch's tag, index delta, pc, target,
/// guard, flags and region.
const MAX_EVENT_LEN: usize = 1 + varint::MAX_LEN + 5 + 5 + 2 + 3;

/// Encodes one event against the previous record's index, building the
/// record on the stack and handing it to `out` in one `write_all`.
pub(crate) fn write_event<W: Write + ?Sized>(
    out: &mut W,
    event: &Event,
    prev_index: u64,
) -> io::Result<u64> {
    let mut buf = [0u8; MAX_EVENT_LEN];
    let delta = varint::zigzag(event.index().wrapping_sub(prev_index) as i64);
    let len = match event {
        Event::Branch(b) => {
            buf[0] = TAG_BRANCH;
            let mut at = varint::put_u64(&mut buf, 1, delta);
            at = varint::put_u64(&mut buf, at, b.pc as u64);
            at = varint::put_u64(&mut buf, at, b.target as u64);
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
            buf[at] = b.guard.index();
            buf[at + 1] = flags;
            match b.region {
                Some(region) => varint::put_u64(&mut buf, at + 2, region as u64),
                None => at + 2,
            }
        }
        Event::PredWrite(p) => {
            buf[0] = TAG_PRED_WRITE;
            let mut at = varint::put_u64(&mut buf, 1, delta);
            at = varint::put_u64(&mut buf, at, p.pc as u64);
            let mut flags = 0u8;
            if p.value {
                flags |= FLAG_VALUE;
            }
            if p.guard_value {
                flags |= FLAG_GUARD_VALUE;
            }
            buf[at..at + 3].copy_from_slice(&[p.preg.index(), p.guard.index(), flags]);
            at + 3
        }
    };
    out.write_all(&buf[..len])?;
    Ok(event.index())
}

/// Decodes the record following an already-consumed tag byte.
pub(crate) fn read_event<R: Read + ?Sized>(
    input: &mut R,
    tag: u8,
    prev_index: u64,
) -> Result<Event, TraceError> {
    let delta = varint::unzigzag(varint::read_u64(input)?);
    let index = prev_index.wrapping_add(delta as u64);
    match tag {
        TAG_BRANCH => {
            let pc = read_u32_field(input, "pc")?;
            let target = read_u32_field(input, "target")?;
            let mut rest = [0u8; 2];
            input.read_exact(&mut rest)?;
            let [guard, flags] = rest;
            let guard = pred_reg(guard)?;
            let region = if flags & FLAG_HAS_REGION != 0 {
                let r = varint::read_u64(input)?;
                Some(u16::try_from(r).map_err(|_| TraceError::FieldOverflow("region"))?)
            } else {
                None
            };
            Ok(Event::Branch(BranchEvent {
                pc,
                target,
                guard,
                taken: flags & FLAG_TAKEN != 0,
                conditional: flags & FLAG_CONDITIONAL != 0,
                region,
                index,
            }))
        }
        TAG_PRED_WRITE => {
            let pc = read_u32_field(input, "pc")?;
            let mut rest = [0u8; 3];
            input.read_exact(&mut rest)?;
            let [preg, guard, flags] = rest;
            Ok(Event::PredWrite(PredWriteEvent {
                pc,
                preg: pred_reg(preg)?,
                value: flags & FLAG_VALUE != 0,
                index,
                guard: pred_reg(guard)?,
                guard_value: flags & FLAG_GUARD_VALUE != 0,
            }))
        }
        other => Err(TraceError::BadEventTag(other)),
    }
}

fn read_u32_field<R: Read + ?Sized>(input: &mut R, field: &'static str) -> Result<u32, TraceError> {
    let v = varint::read_u64(input)?;
    u32::try_from(v).map_err(|_| TraceError::FieldOverflow(field))
}

fn pred_reg(index: u8) -> Result<PredReg, TraceError> {
    PredReg::new(index).ok_or(TraceError::BadPredReg(index))
}

/// The index carried by an event (alias of [`Event::index`], kept so
/// writer/reader share one name for the delta base).
pub(crate) fn event_index(event: &Event) -> u64 {
    event.index()
}

pub(crate) fn write_summary<W: Write + ?Sized>(
    out: &mut W,
    summary: &RunSummary,
) -> io::Result<()> {
    varint::write_u64(out, summary.instructions)?;
    varint::write_u64(out, summary.branches)?;
    varint::write_u64(out, summary.conditional_branches)?;
    varint::write_u64(out, summary.region_branches)?;
    varint::write_u64(out, summary.taken_conditional)?;
    varint::write_u64(out, summary.pred_writes)?;
    out.write_all(&[summary.halted as u8])
}

pub(crate) fn read_summary<R: Read + ?Sized>(input: &mut R) -> Result<RunSummary, TraceError> {
    let instructions = varint::read_u64(input)?;
    let branches = varint::read_u64(input)?;
    let conditional_branches = varint::read_u64(input)?;
    let region_branches = varint::read_u64(input)?;
    let taken_conditional = varint::read_u64(input)?;
    let pred_writes = varint::read_u64(input)?;
    let mut halted = [0u8; 1];
    input.read_exact(&mut halted)?;
    Ok(RunSummary {
        instructions,
        branches,
        conditional_branches,
        region_branches,
        taken_conditional,
        pred_writes,
        halted: halted[0] != 0,
    })
}

/// Incremental FNV-1a 64 — the trace checksum and cache-key hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub(crate) fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// Absorbs `bytes` as little-endian `u64` words, one FNV-1a step
    /// per word rather than per byte: the segment sidecar's checksum.
    /// A step is one-to-one in the state and in the word, so a change
    /// confined to one word always changes the digest. `bytes` must be
    /// whole words.
    pub(crate) fn update_words(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(8));
        for word in bytes.chunks_exact(8) {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// A `Write` adapter hashing everything it forwards.
#[derive(Debug)]
pub(crate) struct HashingWriter<W> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    pub(crate) fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: Fnv64::new(),
        }
    }

    pub(crate) fn digest(&self) -> u64 {
        self.hash.digest()
    }

    pub(crate) fn into_inner(self) -> W {
        self.inner
    }

    pub(crate) fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A `Read` adapter hashing everything it yields.
#[derive(Debug)]
pub(crate) struct HashingReader<R> {
    inner: R,
    hash: Fnv64,
}

impl<R: Read> HashingReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: Fnv64::new(),
        }
    }

    pub(crate) fn digest(&self) -> u64 {
        self.hash.digest()
    }

    pub(crate) fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

/// A stable content hash of a program: the FNV-1a of its binary
/// encoding (falling back to the debug rendering for programs with
/// unencodable instructions). Identical programs hash identically
/// across processes and platforms.
pub fn program_hash(program: &Program) -> u64 {
    let mut hash = Fnv64::new();
    match encode_program(program) {
        Ok(words) => {
            for word in words {
                hash.update_u64(word);
            }
        }
        Err(_) => hash.update(format!("{program:?}").as_bytes()),
    }
    hash.digest()
}

/// A stable content hash of a memory image (order-independent: pairs
/// are sorted by address before hashing).
pub fn memory_fingerprint(memory: &Memory) -> u64 {
    let mut pairs: Vec<(i64, i64)> = memory.iter().collect();
    pairs.sort_unstable();
    let mut hash = Fnv64::new();
    for (addr, value) in pairs {
        hash.update_u64(addr as u64);
        hash.update_u64(value as u64);
    }
    hash.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::assemble;

    fn branch(index: u64) -> Event {
        Event::Branch(BranchEvent {
            pc: 12,
            target: 3,
            guard: PredReg::new(5).unwrap(),
            taken: true,
            conditional: true,
            region: Some(7),
            index,
        })
    }

    #[test]
    fn header_roundtrip() {
        let header = TraceHeader::new("gzip", 0xdead_beef, 42, 4_000_000);
        let mut buf = Vec::new();
        header.write_to(&mut buf).unwrap();
        let back = TraceHeader::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, header);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let header = TraceHeader::new("x", 1, 2, 3);
        let mut buf = Vec::new();
        header.write_to(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            TraceHeader::read_from(&mut bad.as_slice()),
            Err(TraceError::BadMagic(_))
        ));

        let mut wrong = buf;
        wrong[4] = 0xFE;
        wrong[5] = 0xFF;
        assert!(matches!(
            TraceHeader::read_from(&mut wrong.as_slice()),
            Err(TraceError::UnsupportedVersion(0xFFFE))
        ));
    }

    #[test]
    fn event_roundtrip_with_deltas() {
        let events = [branch(10), branch(10), branch(7)]; // non-monotone ok
        let mut buf = Vec::new();
        let mut prev = 0;
        for e in &events {
            prev = write_event(&mut buf, e, prev).unwrap();
        }
        let mut cursor = buf.as_slice();
        let mut prev = 0;
        for e in &events {
            let mut tag = [0u8; 1];
            cursor.read_exact(&mut tag).unwrap();
            let back = read_event(&mut cursor, tag[0], prev).unwrap();
            assert_eq!(&back, e);
            prev = event_index(&back);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [0u8; 8];
        assert!(matches!(
            read_event(&mut buf.as_ref(), 0x7f, 0),
            Err(TraceError::BadEventTag(0x7f))
        ));
    }

    #[test]
    fn program_hash_is_stable_and_discriminating() {
        let a = assemble("mov r1 = 1\n halt").unwrap();
        let b = assemble("mov r1 = 2\n halt").unwrap();
        assert_eq!(program_hash(&a), program_hash(&a));
        assert_ne!(program_hash(&a), program_hash(&b));
    }

    #[test]
    fn memory_fingerprint_ignores_insertion_order() {
        let mut m1 = Memory::new();
        m1.store(1, 10);
        m1.store(2, 20);
        let mut m2 = Memory::new();
        m2.store(2, 20);
        m2.store(1, 10);
        assert_eq!(memory_fingerprint(&m1), memory_fingerprint(&m2));
        m2.store(3, 30);
        assert_ne!(memory_fingerprint(&m1), memory_fingerprint(&m2));
    }
}
