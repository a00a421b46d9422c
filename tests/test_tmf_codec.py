"""The vectorized TMF varint codec against a per-value LEB128 reference.

The reference is the straightforward loop: one varint at a time, each value
a Python int, and each row the running sum of the row deltas modulo 2**64.
Both must give the same bytes, the same entries, and the same error for a
damaged payload. The codec checks no entry order: ``TrafficMatrix.validate``
does, for each decoded block, so those cases are read as whole blocks.
"""

import io
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor import tmf
from tmsensor.errors import CorruptPayload, InvariantViolation

U64_MAX = (1 << 64) - 1
EDGES = [0, 1, 127, 128, 16383, 16384, 1 << 63, U64_MAX]


def varints(values) -> bytes:
    out = bytearray()
    for value in values:
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def reference_encode(items) -> bytes:
    values = []
    prev_row = 0
    for (row, col), count in items:
        values += (row - prev_row, col, count)
        prev_row = row
    return varints(values)


def reference_decode(raw: bytes, entry_count: int) -> list[tuple[int, int, int]]:
    values = []
    value = shift = 0
    for byte in raw:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise CorruptPayload("varint longer than 10 bytes")
        elif value >> 64:
            raise CorruptPayload("varint exceeds 64 bits")
        else:
            values.append(value)
            value = shift = 0
    if shift or len(values) < 3 * entry_count:
        raise CorruptPayload("varint runs past end of payload")
    if len(values) > 3 * entry_count:
        raise CorruptPayload("trailing bytes after the last entry")
    rows = (row & U64_MAX for row in itertools.accumulate(values[0::3]))
    return list(zip(rows, values[1::3], values[2::3]))


def outcome(decode, raw, entry_count):
    """The decoded (row, col, count) triples, or the error class and message."""
    try:
        result = decode(raw, entry_count)
    except CorruptPayload as exc:
        return CorruptPayload, str(exc)
    if isinstance(result, tuple):
        result = list(zip(*(a.tolist() for a in result)))
    return result


def read_block(raw: bytes, entry_count: int, packets: int) -> list[tuple[int, int, int]]:
    """The (row, col, count) triples that ``read_tmf`` reads from one
    uncompressed block holding the payload ``raw``."""
    times = (1, 2) if packets else (0, 0)
    header = struct.pack("<4sHHIQQQ8sB3sQQ", tmf.MAGIC, 1, 0, 16, packets, *times,
                         b"\x0b" * 8, 1, b"\x00" * 3, entry_count, len(raw))
    [m] = tmf.read_tmf(io.BytesIO(header + raw))
    return list(zip(m.rows.tolist(), m.cols.tolist(), m.counts.tolist()))


u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, U64_MAX))
entry_dicts = st.dictionaries(st.tuples(u64, u64), u64, max_size=40)


def arrays(entries):
    items = sorted(entries.items())
    rows = np.array([r for (r, _), _ in items], np.uint64)
    cols = np.array([c for (_, c), _ in items], np.uint64)
    counts = np.array([n for _, n in items], np.uint64)
    return rows, cols, counts


def triples(entries) -> list[tuple[int, int, int]]:
    return [(row, col, count) for (row, col), count in sorted(entries.items())]


@settings(max_examples=300, deadline=None)
@given(entry_dicts)
def test_encode_and_decode_match_the_reference(entries):
    raw = reference_encode(sorted(entries.items()))
    assert tmf._encode_entries(*arrays(entries)) == raw
    assert outcome(tmf._decode_entries, raw, len(entries)) == triples(entries)


def test_edge_values_encode_like_the_reference():
    entries = {(r, c): n for r, c, n in itertools.product(EDGES, EDGES, EDGES[:3])}
    raw = reference_encode(sorted(entries.items()))
    assert tmf._encode_entries(*arrays(entries)) == raw
    assert outcome(tmf._decode_entries, raw, len(entries)) == triples(entries)


def _cut(data, raw):
    return raw[: data.draw(st.integers(0, len(raw)))]


def _flip(data, raw):
    if not raw:
        return raw
    at = data.draw(st.integers(0, len(raw) - 1))
    bit = data.draw(st.integers(0, 7))
    return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]


def _over_long(data, raw):
    at = data.draw(st.integers(0, len(raw)))
    run = b"\x80" * data.draw(st.integers(1, 12)) + data.draw(st.sampled_from(
        [b"", b"\x00", b"\x01", b"\x02", b"\x7f"]))
    return raw[:at] + run + raw[at:]


def _arbitrary(data, raw):
    return data.draw(st.binary(max_size=64))


@settings(max_examples=500, deadline=None)
@given(entry_dicts, st.sampled_from([_cut, _flip, _over_long, _arbitrary]),
       st.integers(-1, 1), st.data())
def test_damaged_payloads_fail_like_the_reference(entries, damage, count_skew, data):
    raw = damage(data, reference_encode(sorted(entries.items())))
    entry_count = max(0, len(entries) + count_skew)
    assert (outcome(tmf._decode_entries, raw, entry_count)
            == outcome(reference_decode, raw, entry_count))


@pytest.mark.parametrize("entry_count", [0, 1])
@pytest.mark.parametrize("raw", [b"", b"\x80", b"\x80" * 10, b"\x00"])
def test_payloads_with_few_or_no_varint_ends_decode_like_the_reference(raw, entry_count):
    assert (outcome(tmf._decode_entries, raw, entry_count)
            == outcome(reference_decode, raw, entry_count))


def test_row_wrapping_past_64_bits_fails_like_the_reference():
    # Rows U64_MAX then U64_MAX + 1: the second delta carries past 2**64, so
    # the row decodes to 0, and the block fails its order check.
    raw = reference_encode([((U64_MAX, 1), 1)]) + bytes([1, 1, 1])
    assert (outcome(tmf._decode_entries, raw, 2) == outcome(reference_decode, raw, 2)
            == [(U64_MAX, 1, 1), (0, 1, 1)])
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        read_block(raw, 2, 2)


@pytest.mark.parametrize("second", ["000701", "000601", "000801", "010701"])
def test_same_row_order_fails_like_the_reference(second):
    raw = bytes.fromhex("050702" + second)  # (5, 7) then another cell
    cells = outcome(reference_decode, raw, 2)
    assert outcome(tmf._decode_entries, raw, 2) == cells
    if cells[0][:2] < cells[1][:2]:  # (5, 8) and (6, 7) come after (5, 7)
        assert read_block(raw, 2, 3) == cells
    else:
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            read_block(raw, 2, 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 2), u64), st.one_of(st.integers(0, 2), u64),
                          st.integers(1, 1 << 32)), max_size=20))
def test_a_block_decodes_exactly_when_its_cells_strictly_increase(entries):
    rows = list(itertools.accumulate(delta for delta, _, _ in entries))
    cells = [(row, col) for row, (_, col, _) in zip(rows, entries)]
    raw = varints(itertools.chain.from_iterable(entries))
    packets = sum(count for _, _, count in entries)
    if all(row <= U64_MAX for row in rows) and all(
            a < b for a, b in itertools.pairwise(cells)):
        assert read_block(raw, len(entries), packets) == [
            (row, col, count) for (row, col), (_, _, count) in zip(cells, entries)]
    else:
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            read_block(raw, len(entries), packets)
