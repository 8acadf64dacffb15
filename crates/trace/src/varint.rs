//! LEB128 varints and zigzag signed deltas — the wire primitives of the
//! trace format.

use std::io::{self, Read, Write};

/// The longest varint: a `u64` in 7-bit groups.
pub(crate) const MAX_LEN: usize = 10;

/// Encodes `value` as an LEB128 varint into `buf` at `at`; returns the
/// offset just past it. Panics if `buf` has no room for it.
pub(crate) fn put_u64(buf: &mut [u8], mut at: usize, mut value: u64) -> usize {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf[at] = byte;
            return at + 1;
        }
        buf[at] = byte | 0x80;
        at += 1;
    }
}

/// Writes `value` as an LEB128 varint (1–10 bytes) in one `write_all`.
pub(crate) fn write_u64<W: Write + ?Sized>(out: &mut W, value: u64) -> io::Result<()> {
    let mut buf = [0u8; MAX_LEN];
    let len = put_u64(&mut buf, 0, value);
    out.write_all(&buf[..len])
}

/// Reads an LEB128 varint. Fails with `InvalidData` past 10 bytes.
pub(crate) fn read_u64<R: Read + ?Sized>(input: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zigzag-encodes a signed value so small magnitudes stay small.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverts [`zigzag`].
pub(crate) fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            assert_eq!(read_u64(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100).unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let buf = [0x80u8, 0x80];
        let err = read_u64(&mut buf.as_ref()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xffu8; 11];
        let err = read_u64(&mut buf.as_ref()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
