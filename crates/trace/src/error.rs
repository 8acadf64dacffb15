//! Typed errors for trace reading and writing.

use std::fmt;
use std::io;

/// Everything that can go wrong reading, verifying, or recording a
/// trace file.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure (opening, renaming, flushing, ...).
    Io(io::Error),
    /// The file does not start with the `PBTR` magic.
    BadMagic([u8; 4]),
    /// The file's format version is not one this reader understands.
    UnsupportedVersion(u16),
    /// The file ended in the middle of the header, an event record, or
    /// the footer.
    Truncated,
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// An event record carried an unknown tag byte.
    BadEventTag(u8),
    /// An event record referenced an invalid predicate register.
    BadPredReg(u8),
    /// A varint field overflowed its target width.
    FieldOverflow(&'static str),
    /// The footer's event count disagrees with the records read.
    CountMismatch {
        /// Count stored in the footer.
        stored: u64,
        /// Events actually decoded.
        decoded: u64,
    },
    /// The benchmark name in the header is not valid UTF-8.
    BadName,
    /// The trace belongs to a different program than expected (hash
    /// mismatch against the caller's program).
    ProgramMismatch {
        /// Hash recorded in the trace header.
        stored: u64,
        /// Hash of the program the caller wanted to replay.
        expected: u64,
    },
    /// A segment sidecar is structurally invalid (bad magic, layout
    /// canary, size, or header field).
    BadSegment(&'static str),
    /// A segment sidecar's format version is not the one this build
    /// reads (an older build wrote it). It is derived data: `pbtrace
    /// migrate`, or the cache's next replay of its trace, rebuilds it.
    UnsupportedSegmentVersion {
        /// Version stored in the sidecar.
        found: u16,
        /// The version this build reads and writes.
        expected: u16,
    },
    /// A segment sidecar was built from a different generation of its
    /// trace (source-checksum binding failed); rebuild it.
    SegmentStale {
        /// Source checksum recorded in the segment header.
        segment: u64,
        /// Trailing checksum of the sealed trace on disk.
        trace: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (file says {stored:#018x}, contents hash to {computed:#018x})"
            ),
            TraceError::BadEventTag(t) => write!(f, "unknown event tag {t:#04x}"),
            TraceError::BadPredReg(p) => write!(f, "invalid predicate register p{p}"),
            TraceError::FieldOverflow(field) => {
                write!(f, "event field `{field}` overflows its width")
            }
            TraceError::CountMismatch { stored, decoded } => write!(
                f,
                "event count mismatch (footer says {stored}, decoded {decoded})"
            ),
            TraceError::BadName => write!(f, "trace header name is not valid UTF-8"),
            TraceError::ProgramMismatch { stored, expected } => write!(
                f,
                "trace was recorded from a different program \
                 (header {stored:#018x}, expected {expected:#018x})"
            ),
            TraceError::BadSegment(reason) => {
                write!(f, "segment sidecar is invalid: {reason}")
            }
            TraceError::UnsupportedSegmentVersion { found, expected } => write!(
                f,
                "segment sidecar has format version {found}, not {expected}; \
                 `pbtrace migrate` or the next replay rebuilds it from its trace"
            ),
            TraceError::SegmentStale { segment, trace } => write!(
                f,
                "segment sidecar is stale (built from trace {segment:#018x}, \
                 sealed trace is {trace:#018x})"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_maps_to_truncated() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(TraceError::from(eof), TraceError::Truncated));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(TraceError::from(other), TraceError::Io(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = TraceError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        // the caller names the file, which may be a `.pbt` or a `.pbtd`
        assert_eq!(
            e.to_string(),
            "checksum mismatch (file says 0x0000000000000001, contents hash to 0x0000000000000002)"
        );
        assert!(TraceError::UnsupportedVersion(9).to_string().contains('9'));
        let old = TraceError::UnsupportedSegmentVersion {
            found: 1,
            expected: 2,
        };
        assert_eq!(
            old.to_string(),
            "segment sidecar has format version 1, not 2; \
             `pbtrace migrate` or the next replay rebuilds it from its trace"
        );
    }
}
