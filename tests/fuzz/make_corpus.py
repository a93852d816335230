#!/usr/bin/env python3
"""Regenerates the checked-in corrupt-fixture corpus under tests/fuzz/corpus/.

Each fixture is a hand-crafted attack on one validation step of an on-disk
format (see src/capture/binary_log.cpp and src/study/snapshot.cpp for the
layouts). fuzz_smoke sweeps every fixture through every parser, and the
libFuzzer target uses the directory as its seed corpus. Deterministic: no
timestamps, no randomness — reruns are byte-identical, so `git status`
stays clean unless a format actually changed.
"""

from __future__ import annotations

import os
import struct
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")


def crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def v2_header(count: int, version: int = 2) -> bytes:
    head = b"YFL2" + struct.pack("<IQ", version, count)
    return head + struct.pack("<I", crc(head))


def ytr_record(time: float = 0.0, seq: int = 0, session: int = 1, a: int = 0,
               b: int = 0, x: float = 0.0, etype: int = 0, vp: int = 0,
               code: int = 0) -> bytes:
    """One 56-byte YTR1 event record (see src/sim/tracer.cpp)."""
    return struct.pack("<dQQqqdBBHI", time, seq, session, a, b, x,
                       etype, vp, code, 0)


def ytr_file(events: list[bytes], strings: tuple[bytes, ...] = ()) -> bytes:
    """A complete YTR1 stream: header | string table | blocks | trailer."""
    head = b"YTR1" + struct.pack("<IQ", 1, len(events))
    out = head + struct.pack("<I", crc(head))
    payload = b"".join(struct.pack("<I", len(s)) + s for s in strings)
    out += struct.pack("<III", len(strings), len(payload), crc(payload))
    out += payload
    for start in range(0, len(events), 1024):
        block = b"".join(events[start:start + 1024])
        out += struct.pack("<II", len(events[start:start + 1024]), crc(block))
        out += block
    trailer = b"YTRE" + struct.pack("<Q", len(events))
    return out + trailer + struct.pack("<I", crc(trailer))


def fixtures() -> dict[str, bytes]:
    out: dict[str, bytes] = {}

    # --- binary log (YFL2) -----------------------------------------------
    out["empty.yfl"] = b""
    out["bad_magic.yfl"] = b"XXXX" + bytes(range(60))
    out["truncated_header.yfl"] = b"YFL2\x02\x00"
    # Unknown future version with an internally consistent header CRC: must
    # be rejected as UnsupportedVersion, not misreported as CRC damage.
    out["v2_future_version.yfl"] = v2_header(0, version=99)
    # The classic length attack: a count field of all-ones with a VALID
    # header CRC, so only overflow-safe size arithmetic rejects it.
    out["v2_count_overflow.yfl"] = v2_header(0xFFFFFFFFFFFFFFFF) + b"\x00" * 64
    # One well-framed v2 record whose block CRC is wrong.
    record = struct.pack("<IIddQQB", 1, 2, 0.0, 1.0, 100, 7, 22)
    block = struct.pack("<II", 1, crc(record) ^ 0xDEADBEEF) + record
    trailer_body = b"YFLE" + struct.pack("<Q", 1)
    trailer = trailer_body + struct.pack("<I", 0)
    out["v2_bad_block_crc.yfl"] = v2_header(1) + block + trailer
    # Valid header, block and trailer CRCs around an invalid record (itag 0
    # does not exist): field validation, not framing, must reject it.
    bad_record = struct.pack("<IIddQQB", 1, 2, 0.0, 1.0, 100, 7, 0)
    good_trailer = trailer_body + struct.pack("<I", crc(trailer_body))
    out["v2_bad_itag.yfl"] = (
        v2_header(1) + struct.pack("<II", 1, crc(bad_record)) + bad_record
        + good_trailer)

    # --- incremental-reader fixtures (FlowLogReader parity) --------------
    # Valid header for 3 records, block header agrees, but the stream ends
    # mid-record: the streaming reader's refill path must report the same
    # truncation the batch reader does, not spin or over-read.
    rec = struct.pack("<IIddQQB", 1, 2, 0.0, 1.0, 100, 7, 22)
    block3 = rec * 3
    out["v2_truncated_mid_block.yfl"] = (
        v2_header(3) + struct.pack("<II", 3, crc(block3)) + block3[:70])
    # Block header declares more records than the file-level count admits:
    # count cross-validation, not CRC, must reject it.
    out["v2_block_count_lies.yfl"] = (
        v2_header(1) + struct.pack("<II", 5, crc(rec)) + rec)
    # Well-formed blocks but a trailer whose magic is wrong (its own CRC is
    # consistent): the end-of-stream validator must name BadMagic.
    tail = b"XFLE" + struct.pack("<Q", 1)
    out["v2_trailer_bad_magic.yfl"] = (
        v2_header(1) + struct.pack("<II", 1, crc(rec)) + rec
        + tail + struct.pack("<I", crc(tail)))

    # --- snapshot (YSS2) --------------------------------------------------
    out["snapshot_bad_magic.yss"] = b"XSS2" + bytes(32)
    out["snapshot_truncated.yss"] = b"YSS2" + struct.pack("<I", 2) + b"\x01"
    body = b"YSS2" + struct.pack("<I", 2) + bytes(48)
    out["snapshot_bad_crc.yss"] = body + struct.pack("<I", crc(body) ^ 1)
    # Valid whole-file CRC over a garbage body: the CRC gate passes, the
    # structural parser must still fail cleanly.
    out["snapshot_valid_crc_garbage.yss"] = body + struct.pack("<I", crc(body))

    # --- fault-schedule DSL ----------------------------------------------
    out["schedule_bad_tokens.txt"] = (
        b"@0 dc-down frankfurt\n"        # valid line: errors must name line 2+
        b"0 dc-down frankfurt\n"
        b"@ dc-down frankfurt\n"
        b"@12x dc-down frankfurt\n"
        b"@5 warp frankfurt\n"
        b"@5 dc-down\n")
    out["schedule_huge_numbers.txt"] = (
        b"@" + b"9" * 400 + b" dc-down x\n"
        b"@1e309 dc-up x\n"
        b"@-5 dc-up x\n")
    out["schedule_binary_noise.txt"] = b"@0 dc\xff\xfe-down fra\x00nkfurt\n"

    # --- structured-event trace (YTR1) -----------------------------------
    # A complete well-formed trace: one session timeline plus a fault event
    # referencing the string table. test_tracer round-trips it and the CLI
    # exit-code suite pins trace_dump on it (exit 0).
    session = [
        ytr_record(time=1.0, seq=0, session=1, a=42, b=0, etype=0, code=22),
        ytr_record(time=1.0, seq=1, session=1, a=0, etype=2),
        ytr_record(time=1.0, seq=2, session=1, a=3, etype=4),
        ytr_record(time=1.0, seq=3, session=1, a=3, b=5, etype=6),
        ytr_record(time=2.5, seq=4, session=0, a=0, b=0, etype=13, vp=255,
                   code=0),
        ytr_record(time=9.25, seq=5, session=1, etype=1),
    ]
    out["trace_valid.ytr"] = ytr_file(session, strings=(b"frankfurt",))
    out["trace_bad_magic.ytr"] = b"XTR1" + out["trace_valid.ytr"][4:]
    # Cut mid-block, leaving enough bytes that the declared event count
    # still looks plausible: the reader must report Truncated, never
    # over-read past the end of the stream.
    out["trace_truncated.ytr"] = out["trace_valid.ytr"][:380]
    # Flip one payload bit so only the block CRC catches it.
    damaged = bytearray(out["trace_valid.ytr"])
    damaged[-70] ^= 0x40
    out["trace_bad_crc.ytr"] = bytes(damaged)
    # All-ones count with a valid header CRC: overflow-safe arithmetic only.
    head = b"YTR1" + struct.pack("<IQ", 1, 0xFFFFFFFFFFFFFFFF)
    out["trace_count_overflow.ytr"] = (
        head + struct.pack("<I", crc(head)) + b"\x00" * 64)
    # A fault event whose string index points past the (empty) table.
    out["trace_bad_string_ref.ytr"] = ytr_file(
        [ytr_record(time=0.0, seq=0, session=0, b=7, etype=13, vp=255)])

    # --- unstructured -----------------------------------------------------
    out["zeros_4k.bin"] = bytes(4096)
    out["ones_256.bin"] = b"\xff" * 256

    return out


def main() -> None:
    os.makedirs(CORPUS, exist_ok=True)
    for name, data in sorted(fixtures().items()):
        with open(os.path.join(CORPUS, name), "wb") as f:
            f.write(data)
        print(f"wrote corpus/{name} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
