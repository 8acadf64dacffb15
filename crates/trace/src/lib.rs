//! Binary trace record/replay for predicated-branch experiments.
//!
//! The paper's evaluation methodology is trace-driven: every predictor
//! configuration sees the *same* dynamic branch and predicate-write
//! stream, so accuracy differences are attributable to the predictor
//! alone. The in-tree simulator achieves that by re-executing each
//! benchmark once per predictor — correct, but wasteful for sweeps that
//! evaluate dozens of configurations over identical (binary, input)
//! pairs. This crate makes the trace a first-class artifact:
//!
//! * [`TraceWriter`] — an [`predbranch_sim::EventSink`] that streams
//!   events to any `io::Write` in a compact versioned binary format
//!   (`PBTR` magic, provenance header, varint/delta-encoded events, run
//!   summary footer, trailing checksum). Record alone, or tee next to a
//!   live harness with the tuple sink.
//! * [`TraceReader`] — streams a recorded trace back into any
//!   `EventSink` in constant memory, so
//!   `predbranch_core::PredictionHarness` runs unchanged over a replay.
//!   Truncated, corrupt, or wrong-version files yield a typed
//!   [`TraceError`], never a panic or a silently short stream.
//! * [`TraceCache`] — a content-addressed on-disk cache
//!   ([`CacheKey`] = benchmark label + hash of program encoding, input
//!   memory, and instruction budget) with atomic write-then-rename
//!   publication. `predbranch_bench`'s runner consults it so an entire
//!   experiment sweep executes each (binary, input) exactly once.
//! * [`TraceMap`] — an mmap-backed view of a fixed-stride `.pbtd`
//!   **segment sidecar** (built next to each cached `.pbt`), serving
//!   event batches as borrowed slices straight off the OS page cache:
//!   no per-replay decode and no per-replay checksum walk. Mapped pages
//!   count toward the process's resident set while they are mapped in,
//!   so the cache hands a map's pages back to the kernel after every
//!   replay and holds no stream resident between replays.
//!   See the `segment` module docs for the layout and the
//!   alignment/endianness contract.
//! * `pbtrace` — a CLI to record, inspect, dump, verify, and migrate
//!   trace files (`pbtrace record --bench <name> -o out.pbt`,
//!   `pbtrace info`, `pbtrace dump`, `pbtrace verify <dir>`,
//!   `pbtrace migrate <dir>`).
//!
//! # Format (version 1)
//!
//! ```text
//! magic "PBTR" | version u16 LE
//! header: program_hash u64 | seed u64 | budget u64 | name (u16 len + bytes)
//! events: tag 0x01 branch | 0x02 pred-write, fields varint-encoded,
//!         instruction indices zigzag-delta-coded against the previous event
//! footer: tag 0xE0 | run summary | event count
//! checksum: FNV-1a-64 of all preceding bytes, u64 LE
//! ```
//!
//! Replay fidelity: prediction metrics depend only on the event stream,
//! and the recorded [`predbranch_sim::RunSummary`] is restored from the
//! footer, so a replayed run is byte-identical to a live one — the
//! differential tests in `tests/` assert exactly that across benchmarks
//! and predictor configurations.

mod cache;
mod error;
mod format;
mod mmap;
mod reader;
mod segment;
mod varint;
mod writer;

pub use cache::{CacheEntry, CacheKey, TraceCache};
pub use error::TraceError;
pub use format::{memory_fingerprint, program_hash, TraceHeader, FORMAT_VERSION, MAGIC};
pub use reader::{ReplayStats, TraceReader};
pub use segment::{
    migrate_trace, publish_segment, segment_path, trace_tail_checksum, MigrateOutcome, RawEvent,
    SegmentHeader, TraceMap,
};
pub use writer::TraceWriter;
