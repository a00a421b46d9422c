"""Traffic matrix file (TMF) codec.

A TMF file is a concatenation of independent blocks, one per matrix:

    +----------------------------+
    | 64-byte header (LE fields) |  magic "GTM1", version, flags,
    +----------------------------+  window/packet counts, time range,
    | payload (payload_len bytes)|  key_id, scheme, entry_count,
    +----------------------------+  payload_len

The payload lists entries in ascending (row, col) order as
(row_delta, col, count) triples of unsigned LEB128 varints: row_delta is the
difference from the previous entry's row (the first row is emitted absolute),
col and count are absolute. The varint stream is then deflate-compressed
(RFC 1951) unless flag bit 0 is cleared.

Writing is canonical: the same matrix sequence always produces identical
bytes, so files can be compared and deduplicated byte-wise. Blocks are
skippable without decompression via header payload_len alone.

The matrix rules are ``matrix``'s: each decoded block must pass
``TrafficMatrix.validate``, as a matrix in memory must, so an out-of-order
block raises InvariantViolation; only format faults raise format errors.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BadMagic, CorruptPayload, UnknownScheme, UnknownVersion
from .matrix import TrafficMatrix, check_compatible
from .streams import read_full

MAGIC = b"GTM1"
FORMAT_VERSION = 1
FLAG_DEFLATE = 0x0001
ANON_SCHEME_HMAC_SHA256_64 = 1

# magic, version, flags, window_size, packet_count, start_time_us,
# end_time_us, key_id, anon_scheme, reserved, entry_count, payload_len
_HEADER = struct.Struct("<4sHHIQQQ8sB3sQQ")
HEADER_LEN = _HEADER.size
assert HEADER_LEN == 64

# Pinned so output stays canonical; payloads are small, so level 9 is cheap.
_DEFLATE_LEVEL = 9

# Bounds on varint bytes per (row_delta, col, count) triple.
_MIN_TRIPLE_LEN = 3
_MAX_TRIPLE_LEN = 30

# Raw deflate emits at most 258 bytes per 2 bits of input.
_MAX_INFLATE_RATIO = 1032


class TmfBlockHeader(NamedTuple):
    """Parsed fixed header of one block."""

    window_size: int
    packet_count: int
    start_time_us: int
    end_time_us: int
    key_id: bytes
    flags: int
    entry_count: int
    payload_len: int


def write_tmf(
    matrices: Iterable[TrafficMatrix], sink: BinaryIO, *, compress: bool = True
) -> int:
    """Serialize matrices to a TMF byte stream; returns bytes written.

    Each matrix must pass ``check_compatible`` against the first, as for
    ``merge``, and ``validate()``. I/O failures propagate as the OSError.
    """
    first = None
    total = 0
    for m in matrices:
        first = first or m
        check_compatible(first, m)
        m.validate()

        raw = _encode_entries(m.rows, m.cols, m.counts)
        if compress:
            payload = _deflate(raw)
            flags = FLAG_DEFLATE
        else:
            payload = raw
            flags = 0
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            flags,
            m.window_size,
            m.packet_count,
            m.start_time_us,
            m.end_time_us,
            m.key_id,
            ANON_SCHEME_HMAC_SHA256_64,
            b"\x00\x00\x00",
            len(m.counts),
            len(payload),
        )
        sink.write(header)
        sink.write(payload)
        total += HEADER_LEN + len(payload)
    return total


def iter_tmf(source: BinaryIO) -> Iterator[TrafficMatrix]:
    """Decode a TMF byte stream one block at a time, validating each block as
    it is read; a fault raises when its block is reached."""
    return (_decode_block(header, payload) for header, payload in _blocks(source))


def read_tmf(source: BinaryIO) -> list[TrafficMatrix]:
    """Parse a TMF byte stream back into matrices, validating every block."""
    return list(iter_tmf(source))


def iter_block_headers(source: BinaryIO) -> Iterator[TmfBlockHeader]:
    """Scan block headers without decoding payloads (forward skip only)."""
    return (header for header, _ in _blocks(source))


def _blocks(source: BinaryIO) -> Iterator[tuple[TmfBlockHeader, bytes]]:
    """The one block-framing loop: each block's parsed header and raw payload."""
    first = True
    while True:
        raw = read_full(source, HEADER_LEN)
        if not raw and not first:
            return
        header = _parse_header(raw, first)
        first = False
        yield header, _read_payload(source, header.payload_len)


def _read_payload(source: BinaryIO, size: int) -> bytes:
    payload = read_full(source, size)
    if len(payload) < size:
        raise CorruptPayload("file ends inside a block payload")
    return payload


def _parse_header(header: bytes, first: bool) -> TmfBlockHeader:
    if len(header) < HEADER_LEN:
        if first and (len(header) < 4 or header[:4] != MAGIC):
            raise BadMagic(
                f"not a traffic matrix file (magic {header[:4].hex() or 'empty'})"
            )
        raise CorruptPayload("file ends inside a block header")
    (magic, version, flags, window_size, packet_count, start, end, key_id,
     scheme, reserved, entry_count, payload_len) = _HEADER.unpack(header)
    if magic != MAGIC:
        if first:
            raise BadMagic(f"not a traffic matrix file (magic {magic.hex()})")
        raise CorruptPayload(f"bad block magic {magic.hex()}")
    if version != FORMAT_VERSION:
        raise UnknownVersion(f"format version {version} is not supported")
    if scheme != ANON_SCHEME_HMAC_SHA256_64:
        raise UnknownScheme(f"anonymization scheme {scheme} is not recognized")
    if flags & ~FLAG_DEFLATE:
        raise CorruptPayload(f"reserved flag bits set ({flags:#06x})")
    if reserved != b"\x00\x00\x00":
        raise CorruptPayload("reserved header bytes are not zero")
    max_raw = payload_len * (_MAX_INFLATE_RATIO if flags & FLAG_DEFLATE else 1)
    if entry_count * _MIN_TRIPLE_LEN > max_raw:
        raise CorruptPayload(
            f"{entry_count} entries cannot fit a {payload_len}-byte payload"
        )
    return TmfBlockHeader(
        window_size, packet_count, start, end, key_id, flags, entry_count,
        payload_len,
    )


def _decode_block(header: TmfBlockHeader, payload: bytes) -> TrafficMatrix:
    if header.flags & FLAG_DEFLATE:
        raw = _inflate(payload, header.entry_count * _MAX_TRIPLE_LEN)
    else:
        raw = payload
    m = TrafficMatrix(
        header.window_size, header.packet_count, header.start_time_us,
        header.end_time_us, header.key_id, *_decode_entries(raw, header.entry_count),
    )
    m.validate()  # the order, count and time invariants
    return m


def _encode_entries(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> bytes:
    values = np.empty(3 * len(rows), np.uint64)
    values[0::3] = rows
    values[3::3] -= rows[:-1]  # row deltas; rows are sorted
    values[1::3] = cols
    values[2::3] = counts
    # Row k of groups holds the ten 7-bit groups of value k, low group first;
    # its varint is the groups up to the highest nonzero one.
    groups = np.empty((len(values), 10), np.uint8)
    sizes = np.ones(len(values), np.uint8)
    for i in range(10):
        groups[:, i] = values  # the low byte; its top bit is set just below
        values >>= np.uint64(7)
        sizes += values != 0
    groups |= 0x80  # continuation bits, cleared again on each varint's last byte
    groups[np.arange(len(groups)), sizes - 1] &= 0x7F
    return groups[np.arange(10, dtype=np.uint8) < sizes[:, None]].tobytes()


def _decode_entries(raw: bytes, entry_count: int) -> tuple[np.ndarray, ...]:
    """The rows (the row deltas' running sum, modulo 2**64), cols and counts
    of ``entry_count`` varint triples. Only varint faults raise here; a row
    carried past 2**64 breaks the order, which ``validate()`` checks."""
    data = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(data < 0x80)  # the last byte of each varint
    # Continuation bytes before each end; the last run is a varint cut at the end.
    runs = np.empty(len(ends) + 1, np.intp)
    runs[:-1] = ends
    runs[-1] = len(data)
    runs[1:] -= ends + 1
    # The first bad varint decides: 10 continuation bytes, or a 10th byte past bit 63.
    over = np.append((runs[:-1] == 9) & (data[ends] > 1), False)
    bad = np.flatnonzero((runs >= 10) | over)
    if len(bad):
        raise CorruptPayload("varint longer than 10 bytes" if runs[bad[0]] >= 10
                             else "varint exceeds 64 bits")
    if runs[-1] or len(ends) < 3 * entry_count:
        raise CorruptPayload("varint runs past end of payload")
    if len(ends) > 3 * entry_count:
        raise CorruptPayload("trailing bytes after the last entry")
    starts, sizes = ends - runs[:-1], runs[:-1] + 1
    places = np.arange(len(data)) - np.repeat(starts, sizes)  # each byte's in its varint
    groups = (data & 0x7F).astype(np.uint64)
    groups <<= (7 * places).astype(np.uint64)
    values = np.add.reduceat(groups, starts)
    return np.cumsum(values[0::3]), values[1::3], values[2::3]


def _deflate(data: bytes) -> bytes:
    comp = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return comp.compress(data) + comp.flush()


def _inflate(data: bytes, max_out: int) -> bytes:
    decomp = zlib.decompressobj(-15)
    try:
        raw = decomp.decompress(data, max_out + 1)
    except zlib.error as exc:
        raise CorruptPayload(f"deflate stream invalid: {exc}") from exc
    if len(raw) > max_out:
        raise CorruptPayload("payload inflates beyond its declared entry count")
    if not decomp.eof:
        raise CorruptPayload("deflate stream is incomplete")
    if decomp.unused_data:
        raise CorruptPayload("trailing bytes after deflate stream")
    return raw


def tmf_filename(prefix: str, epoch_hour: int, seq: int) -> str:
    """Output naming convention: <prefix>-<unix_epoch_hour>-<seq>.tmf."""
    return f"{prefix}-{epoch_hour}-{seq:03d}.tmf"
