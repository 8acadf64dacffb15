//! Streaming trace recording.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use predbranch_sim::{BranchEvent, Event, EventSink, PredWriteEvent, RunSummary};

use crate::format::{event_index, write_event, write_summary, HashingWriter, TraceHeader, TAG_END};

/// An [`EventSink`] that encodes every event straight to an
/// [`io::Write`], in constant memory.
///
/// The writer is a drop-in sink for [`predbranch_sim::Executor::run`]:
/// record alone, or tee alongside a live consumer with the tuple sink
/// (`(&mut harness, &mut writer)`). Call [`TraceWriter::finish`] with
/// the run's [`RunSummary`] to seal the file — an unfinished trace has
/// no footer/checksum and readers will reject it as truncated.
///
/// I/O errors inside sink callbacks (which cannot return errors) are
/// latched and surfaced by `finish`.
///
/// # Examples
///
/// ```
/// use predbranch_sim::{Executor, Memory};
/// use predbranch_trace::{program_hash, TraceHeader, TraceReader, TraceWriter};
///
/// let program = predbranch_isa::assemble("mov r1 = 1\n halt").unwrap();
/// let header = TraceHeader::new("demo", program_hash(&program), 0, 100);
/// let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
/// let summary = Executor::new(&program, Memory::new()).run(&mut writer, 100);
/// let bytes = writer.finish(&summary).unwrap();
/// let reader = TraceReader::new(bytes.as_slice()).unwrap();
/// assert_eq!(reader.header().name, "demo");
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: HashingWriter<W>,
    prev_index: u64,
    events: u64,
    error: Option<io::Error>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<Path>, header: &TraceHeader) -> io::Result<Self> {
        TraceWriter::new(BufWriter::new(File::create(path)?), header)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on any writer; the header goes out immediately.
    pub fn new(out: W, header: &TraceHeader) -> io::Result<Self> {
        let mut out = HashingWriter::new(out);
        header.write_to(&mut out)?;
        Ok(TraceWriter {
            out,
            prev_index: 0,
            events: 0,
            error: None,
        })
    }

    /// Appends one event (what the [`EventSink`] impl calls).
    pub fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        match write_event(&mut self.out, event, self.prev_index) {
            Ok(index) => {
                self.prev_index = index;
                self.events += 1;
                debug_assert_eq!(self.prev_index, event_index(event));
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Seals the trace: end marker, run summary, event count, checksum.
    /// Returns the inner writer, flushed.
    pub fn finish(mut self, summary: &RunSummary) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.write_all(&[TAG_END])?;
        write_summary(&mut self.out, summary)?;
        crate::varint::write_u64(&mut self.out, self.events)?;
        let digest = self.out.digest();
        // the checksum itself is outside the checksummed range
        self.out.get_mut().write_all(&digest.to_le_bytes())?;
        let mut inner = self.out.into_inner();
        inner.flush()?;
        Ok(inner)
    }
}

impl<W: Write> EventSink for TraceWriter<W> {
    fn branch(&mut self, event: &BranchEvent) {
        self.record(&Event::Branch(*event));
    }

    fn pred_write(&mut self, event: &PredWriteEvent) {
        self.record(&Event::PredWrite(*event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predbranch_isa::PredReg;

    fn header() -> TraceHeader {
        TraceHeader::new("t", 1, 2, 3)
    }

    fn write_ev(index: u64) -> PredWriteEvent {
        PredWriteEvent {
            pc: 4,
            preg: PredReg::new(1).unwrap(),
            value: true,
            index,
            guard: PredReg::TRUE,
            guard_value: true,
        }
    }

    /// The record encoding is part of the format: every field's bytes,
    /// and the trailing byte-wise FNV-1a checksum over all of them,
    /// computed by hand from the layout in `format.rs`.
    #[test]
    fn record_bytes_known_answer() {
        let reg = |i| PredReg::new(i).unwrap();
        let header = TraceHeader::new("kat", 0x0123_4567_89ab_cdef, 42, 4_000_000);
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        // a branch with a region and two-byte pc/target varints
        w.branch(&BranchEvent {
            pc: 300,
            target: 1000,
            guard: reg(3),
            taken: true,
            conditional: true,
            region: Some(130),
            index: 5,
        });
        // a branch without a region, at the same index (delta 0)
        w.branch(&BranchEvent {
            pc: 9,
            target: 2,
            guard: reg(1),
            taken: false,
            conditional: true,
            region: None,
            index: 5,
        });
        // a predicate write 100,000 instructions later (3-byte delta)
        w.pred_write(&PredWriteEvent {
            pc: 4,
            preg: reg(2),
            value: true,
            index: 100_005,
            guard: reg(1),
            guard_value: true,
        });
        let summary = RunSummary {
            instructions: 100_010,
            branches: 2,
            conditional_branches: 2,
            region_branches: 1,
            taken_conditional: 1,
            pred_writes: 1,
            halted: true,
        };
        let bytes = w.finish(&summary).unwrap();

        let mut expected: Vec<u8> = Vec::new();
        // magic, version 1, program hash, seed 42, budget 4,000,000, name
        expected.extend_from_slice(b"PBTR\x01\x00");
        expected.extend_from_slice(&[0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01]);
        expected.extend_from_slice(&[0x2a, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[0x00, 0x09, 0x3d, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(b"\x03\x00kat");
        // tag, zigzag Δ5, pc 300, target 1000, p3, taken|cond|region, 130
        expected.extend_from_slice(&[0x01, 0x0a, 0xac, 0x02, 0xe8, 0x07, 0x03, 0x07, 0x82, 0x01]);
        // tag, Δ0, pc 9, target 2, p1, cond
        expected.extend_from_slice(&[0x01, 0x00, 0x09, 0x02, 0x01, 0x02]);
        // tag, zigzag Δ100,000, pc 4, p2, guard p1, value|guard-value
        expected.extend_from_slice(&[0x02, 0xc0, 0x9a, 0x0c, 0x04, 0x02, 0x01, 0x03]);
        // end tag, summary (100,010 · 2 · 2 · 1 · 1 · 1 · halted), 3 events
        expected.extend_from_slice(&[0xe0, 0xaa, 0x8d, 0x06, 0x02, 0x02, 0x01, 0x01, 0x01]);
        expected.extend_from_slice(&[0x01, 0x03]);
        expected.extend_from_slice(&0x61af_00d9_898e_b0a1u64.to_le_bytes());
        assert_eq!(bytes, expected);
    }

    #[test]
    fn counts_by_kind() {
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        w.pred_write(&write_ev(0));
        w.pred_write(&write_ev(1));
        let bytes = w.finish(&RunSummary::default()).unwrap();
        let stats = crate::TraceReader::new(bytes.as_slice())
            .unwrap()
            .replay(&mut predbranch_sim::NullSink)
            .unwrap();
        assert_eq!((stats.events, stats.pred_writes, stats.branches), (2, 2, 0));
    }

    #[test]
    fn finish_surfaces_latched_io_errors() {
        /// A writer that fails after the header has gone out.
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    Err(io::Error::other("disk full"))
                } else {
                    self.0 -= buf.len();
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut w = TraceWriter::new(FailAfter(64), &header()).unwrap();
        for i in 0..64 {
            w.pred_write(&write_ev(i));
        }
        let summary = RunSummary {
            instructions: 64,
            branches: 0,
            conditional_branches: 0,
            region_branches: 0,
            taken_conditional: 0,
            pred_writes: 64,
            halted: true,
        };
        assert!(w.finish(&summary).is_err());
    }
}
