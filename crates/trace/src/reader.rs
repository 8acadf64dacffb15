//! Streaming trace replay.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use predbranch_sim::{Event, EventSink, NullSink, RunSummary, TraceSink, EVENT_BATCH_CAPACITY};

use crate::error::TraceError;
use crate::format::{event_index, read_event, read_summary, HashingReader, TraceHeader, TAG_END};
use crate::varint;

/// What a full replay observed, beyond the events themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// The recording run's summary, restored from the footer — identical
    /// to what [`predbranch_sim::Executor::run`] returned when the trace
    /// was recorded.
    pub summary: RunSummary,
    /// Events replayed.
    pub events: u64,
    /// Branch events replayed.
    pub branches: u64,
    /// Predicate-write events replayed.
    pub pred_writes: u64,
    /// The verified file checksum.
    pub checksum: u64,
}

/// Streams a recorded trace back into any [`EventSink`], so the whole
/// prediction methodology (harness, scoreboard, metrics) runs unchanged
/// without re-executing the program.
///
/// Construction reads and validates the header; [`TraceReader::replay`]
/// then streams the event section in constant memory, verifying the
/// trailing checksum and event count. Truncated, corrupt, or
/// wrong-version files yield a typed [`TraceError`] — never a panic.
///
/// # Examples
///
/// ```
/// use predbranch_sim::{Executor, Memory, TraceSink};
/// use predbranch_trace::{program_hash, TraceHeader, TraceReader, TraceWriter};
///
/// let program = predbranch_isa::assemble(
///     "mov r1 = 2\nloop: cmp.gt p1, p2 = r1, 0\n (p1) sub r1 = r1, 1\n (p1) br loop\n halt",
/// ).unwrap();
/// let header = TraceHeader::new("demo", program_hash(&program), 0, 100);
/// let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
/// let summary = Executor::new(&program, Memory::new()).run(&mut writer, 100);
/// let bytes = writer.finish(&summary).unwrap();
///
/// let mut replayed = TraceSink::new();
/// let stats = TraceReader::new(bytes.as_slice())
///     .unwrap()
///     .replay(&mut replayed)
///     .unwrap();
/// assert_eq!(stats.summary, summary);
/// assert_eq!(stats.branches, summary.branches);
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: HashingReader<R>,
    header: TraceHeader,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        TraceReader::new(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps any reader; consumes and validates the header.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut input = HashingReader::new(input);
        let header = TraceHeader::read_from(&mut input)?;
        Ok(TraceReader { input, header })
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Replays every branch / predicate-write event into `sink`,
    /// verifying checksum and event count along the way.
    ///
    /// Events are decoded into a batch buffer and delivered in
    /// [`EVENT_BATCH_CAPACITY`]-sized chunks through
    /// [`EventSink::events`] — same order, same payloads as per-event
    /// delivery, but a dynamically-dispatched sink pays one virtual call
    /// per chunk.
    pub fn replay<S: EventSink>(mut self, sink: &mut S) -> Result<ReplayStats, TraceError> {
        let mut buffer = Vec::with_capacity(EVENT_BATCH_CAPACITY);
        let mut prev_index = 0u64;
        let mut events = 0u64;
        let mut branches = 0u64;
        let mut pred_writes = 0u64;
        loop {
            let mut tag = [0u8; 1];
            self.input.read_exact(&mut tag).map_err(TraceError::from)?;
            if tag[0] == TAG_END {
                break;
            }
            let event = read_event(&mut self.input, tag[0], prev_index)?;
            prev_index = event_index(&event);
            events += 1;
            match &event {
                Event::Branch(_) => branches += 1,
                Event::PredWrite(_) => pred_writes += 1,
            }
            buffer.push(event);
            if buffer.len() == EVENT_BATCH_CAPACITY {
                sink.events(&buffer);
                buffer.clear();
            }
        }
        if !buffer.is_empty() {
            sink.events(&buffer);
        }
        let summary = read_summary(&mut self.input)?;
        let stored_count = varint::read_u64(&mut self.input)?;
        if stored_count != events {
            return Err(TraceError::CountMismatch {
                stored: stored_count,
                decoded: events,
            });
        }
        // digest covers everything up to (not including) the checksum
        let computed = self.input.digest();
        let mut stored = [0u8; 8];
        self.input
            .get_mut()
            .read_exact(&mut stored)
            .map_err(TraceError::from)?;
        let stored = u64::from_le_bytes(stored);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        Ok(ReplayStats {
            summary,
            events,
            branches,
            pred_writes,
            checksum: stored,
        })
    }

    /// Fully checks the trace (structure, event count, checksum) without
    /// consuming events.
    pub fn verify(self) -> Result<ReplayStats, TraceError> {
        self.replay(&mut NullSink)
    }

    /// Decodes the whole event section into memory.
    pub fn read_events(self) -> Result<(Vec<Event>, ReplayStats), TraceError> {
        let mut sink = TraceSink::new();
        let stats = self.replay(&mut sink)?;
        Ok((sink.events().to_vec(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use predbranch_isa::{assemble, Program};
    use predbranch_sim::{Executor, Memory};

    fn toy() -> (Program, RunSummary, Vec<u8>) {
        let program = assemble(
            r#"
                mov r1 = 3
            loop:
                cmp.gt p1, p2 = r1, 0
                (p1) sub r1 = r1, 1
                (p1) br loop
                halt
            "#,
        )
        .unwrap();
        let header = TraceHeader::new("toy", crate::format::program_hash(&program), 0, 1_000);
        let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let summary = Executor::new(&program, Memory::new()).run(&mut writer, 1_000);
        let bytes = writer.finish(&summary).unwrap();
        (program, summary, bytes)
    }

    #[test]
    fn replay_restores_summary_and_counts() {
        let (_, summary, bytes) = toy();
        let stats = TraceReader::new(bytes.as_slice())
            .unwrap()
            .verify()
            .unwrap();
        assert_eq!(stats.summary, summary);
        assert_eq!(stats.branches, summary.branches);
        assert_eq!(stats.pred_writes, summary.pred_writes);
        assert_eq!(stats.events, summary.branches + summary.pred_writes);
    }

    #[test]
    fn replayed_events_match_live_trace() {
        let (program, _, bytes) = toy();
        let mut live = TraceSink::new();
        Executor::new(&program, Memory::new()).run(&mut live, 1_000);
        let (events, _) = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_events()
            .unwrap();
        assert_eq!(events, live.events());
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let (_, _, bytes) = toy();
        // chop at a spread of offsets: header, events, footer, checksum
        for cut in [
            0,
            3,
            5,
            20,
            bytes.len() / 2,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            let err = match TraceReader::new(&bytes[..cut]) {
                Err(e) => e,
                Ok(reader) => reader.verify().unwrap_err(),
            };
            assert!(
                matches!(err, TraceError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let (_, _, mut bytes) = toy();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = TraceReader::new(bytes.as_slice())
            .and_then(|r| r.verify())
            .unwrap_err();
        // depending on where the flip lands the decoder may trip on a
        // structural error first; checksum is the backstop
        assert!(
            matches!(
                err,
                TraceError::ChecksumMismatch { .. }
                    | TraceError::BadEventTag(_)
                    | TraceError::BadPredReg(_)
                    | TraceError::CountMismatch { .. }
                    | TraceError::FieldOverflow(_)
                    | TraceError::Truncated
            ),
            "{err:?}"
        );
    }
}
