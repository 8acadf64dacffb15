#!/usr/bin/env python3
"""Checks every `.pbtd` segment sidecar in trace-cache directories.

An independent reading of the two trace formats, written from their
layout docs (`crates/trace/src/format.rs` for `.pbt`,
`crates/trace/src/segment.rs` for `.pbtd`) rather than from the code
that reads them. For each sidecar it checks:

- structure: magic, version 2, layout canary, the reserved word and the
  halted flag, and the exact length its event count implies;
- checksum: FNV-1a over the body's little-endian u64 words;
- binding: its `.pbt` verifies under that file's byte-wise FNV-1a
  checksum, the sidecar's source checksum is that file's trailing
  checksum, and both carry the same program hash;
- records: they are the `.pbt`'s events re-encoded at the fixed stride,
  byte for byte, and both files carry the same run summary and count.

Every `.pbt` must have a sidecar, and each directory at least one.

Usage: check_sidecars.py DIR [DIR ...]
Prints one line per directory; exits 1 naming each failure.
"""

import struct
import sys
from pathlib import Path

MASK = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

SEGMENT_VERSION = 2
HEADER_LEN = 96
STRIDE = 24

KIND_BRANCH, KIND_PRED_WRITE, TAG_END = 0x01, 0x02, 0xE0
BRANCH_FLAGS = 0x07  # taken, conditional, has-region
HAS_REGION = 0x04
PRED_WRITE_FLAGS = 0x03  # value, guard value
PRED_REGS = 64


class Bad(Exception):
    """A failed check, with what failed."""


def fnv_bytes(data):
    digest = FNV_OFFSET
    for byte in data:
        digest = ((digest ^ byte) * FNV_PRIME) & MASK
    return digest


def fnv_words(data):
    digest = FNV_OFFSET
    for (word,) in struct.iter_unpack("<Q", data):
        digest = ((digest ^ word) * FNV_PRIME) & MASK
    return digest


class Cursor:
    """Reads a `.pbt` body front to back."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise Bad(".pbt is truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self):
        try:
            b = self.data[self.pos]
        except IndexError:
            raise Bad(".pbt is truncated") from None
        self.pos += 1
        return b

    def varint(self, bits=64):
        value = shift = 0
        while True:
            b = self.byte()
            value |= (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
        if value >> bits:
            raise Bad(f".pbt varint before byte {self.pos} overflows {bits} bits")
        return value


def pred_reg(index):
    if index >= PRED_REGS:
        raise Bad(f"invalid predicate register p{index}")
    return index


def read_trace(path):
    """The `.pbt`'s program hash, trailing checksum, summary words and
    events as fixed-stride records."""
    data = path.read_bytes()
    if len(data) < 8:
        raise Bad(".pbt is truncated")
    body, tail = data[:-8], struct.unpack("<Q", data[-8:])[0]
    if fnv_bytes(body) != tail:
        raise Bad(".pbt fails its own checksum")
    cur = Cursor(body)
    if cur.take(4) != b"PBTR" or struct.unpack("<H", cur.take(2))[0] != 1:
        raise Bad(".pbt is not a version 1 trace")
    program_hash, _seed, _budget, name_len = struct.unpack("<QQQH", cur.take(26))
    cur.take(name_len)
    records = []
    index = 0
    while True:
        tag = cur.byte()
        if tag == TAG_END:
            break
        delta = cur.varint()
        delta = (delta >> 1) ^ -(delta & 1)  # zigzag
        index = (index + delta) & MASK
        pc = cur.varint(32)
        if tag == KIND_BRANCH:
            target = cur.varint(32)
            guard, flags = pred_reg(cur.byte()), cur.byte() & BRANCH_FLAGS
            region = cur.varint(16) if flags & HAS_REGION else 0
            records.append(
                struct.pack("<QIIBBBBHH", index, pc, target, tag, guard, flags, 0, region, 0)
            )
        elif tag == KIND_PRED_WRITE:
            preg, guard = pred_reg(cur.byte()), pred_reg(cur.byte())
            flags = cur.byte() & PRED_WRITE_FLAGS
            records.append(
                struct.pack("<QIIBBBBHH", index, pc, 0, tag, guard, flags, preg, 0, 0)
            )
        else:
            raise Bad(f".pbt has unknown event tag {tag:#04x}")
    summary = [cur.varint() for _ in range(6)] + [cur.byte()]
    count = cur.varint()
    if cur.pos != len(body) or count != len(records):
        raise Bad(".pbt footer disagrees with its events")
    return program_hash, tail, summary, records


def check_sidecar(path):
    data = path.read_bytes()
    if len(data) < HEADER_LEN + 8:
        raise Bad("truncated")
    magic, version, canary = struct.unpack("<4sHH", data[:8])
    if magic != b"PBTD" or canary != 0x00FF:
        raise Bad("bad magic or layout canary")
    if version != SEGMENT_VERSION:
        raise Bad(f"format version {version}, not {SEGMENT_VERSION}")
    words = struct.unpack("<11Q", data[8:HEADER_LEN])
    program_hash, source_checksum, count = words[:3]
    summary, halted, reserved = list(words[3:9]), words[9], words[10]
    if halted > 1 or reserved != 0:
        raise Bad("corrupt header field")
    if len(data) != HEADER_LEN + STRIDE * count + 8:
        raise Bad(f"{len(data)} bytes do not hold {count} records")
    body, tail = data[:-8], struct.unpack("<Q", data[-8:])[0]
    if fnv_words(body) != tail:
        raise Bad("checksum mismatch")

    trace = path.with_suffix(".pbt")
    if not trace.exists():
        raise Bad("no .pbt beside it")
    trace_hash, trace_tail, trace_summary, records = read_trace(trace)
    if source_checksum != trace_tail:
        raise Bad("stale: source checksum is not its .pbt's trailing checksum")
    if program_hash != trace_hash:
        raise Bad("program hash differs from its .pbt's")
    if summary + [halted] != trace_summary:
        raise Bad("run summary differs from its .pbt's")
    if count != len(records):
        raise Bad("event count differs from its .pbt's")
    if b"".join(records) != body[HEADER_LEN:]:
        for i, record in enumerate(records):
            at = HEADER_LEN + STRIDE * i
            if body[at : at + STRIDE] != record:
                raise Bad(f"record {i} differs from its .pbt's event")
    return count


def main(dirs):
    if not dirs:
        sys.exit("usage: check_sidecars.py DIR [DIR ...]")
    failures = 0
    for name in dirs:
        root = Path(name)
        sidecars = sorted(root.glob("*.pbtd"))
        events = 0
        for trace in sorted(root.glob("*.pbt")):
            if not trace.with_suffix(".pbtd").exists():
                print(f"{trace}: FAILED: no sidecar")
                failures += 1
        for sidecar in sidecars:
            try:
                events += check_sidecar(sidecar)
            except (Bad, OSError) as e:
                print(f"{sidecar}: FAILED: {e}")
                failures += 1
        if not sidecars:
            print(f"{root}: FAILED: no sidecars")
            failures += 1
        print(f"{root}: checked {len(sidecars)} sidecars, {events} events")
    if failures:
        sys.exit(f"{failures} failure(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
