"""The vectorized TMF varint codec against a per-value LEB128 reference.

The reference is the straightforward loop: one varint at a time, each value
a Python int. Both must give the same bytes, the same entries, and the same
error for a damaged payload.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor import tmf
from tmsensor.errors import CorruptPayload, InvariantViolation

U64_MAX = (1 << 64) - 1
EDGES = [0, 1, 127, 128, 16383, 16384, 1 << 63, U64_MAX]


def reference_encode(items) -> bytes:
    out = bytearray()
    prev_row = 0
    for (row, col), count in items:
        for value in (row - prev_row, col, count):
            while value > 0x7F:
                out.append(value & 0x7F | 0x80)
                value >>= 7
            out.append(value)
        prev_row = row
    return bytes(out)


def reference_decode(raw: bytes, entry_count: int) -> dict[tuple[int, int], int]:
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
    cells = list(zip(itertools.accumulate(values[0::3]), values[1::3]))
    if any(a >= b for a, b in itertools.pairwise(cells)):
        raise CorruptPayload("entries are not strictly increasing")
    if any(row > U64_MAX for row, _ in cells):
        raise InvariantViolation("coordinates must fit in 64 bits")
    return dict(zip(cells, values[2::3]))


def outcome(decode, raw, entry_count):
    """Decoded entries, or the error class and (for payload faults) message."""
    try:
        result = decode(raw, entry_count)
    except CorruptPayload as exc:
        return CorruptPayload, str(exc)
    except InvariantViolation:
        return InvariantViolation, None
    if isinstance(result, tuple):
        rows, cols, counts = (a.tolist() for a in result)
        result = dict(zip(zip(rows, cols), counts))
    return result


u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, U64_MAX))
entry_dicts = st.dictionaries(st.tuples(u64, u64), u64, max_size=40)


def arrays(entries):
    items = sorted(entries.items())
    rows = np.array([r for (r, _), _ in items], np.uint64)
    cols = np.array([c for (_, c), _ in items], np.uint64)
    counts = np.array([n for _, n in items], np.uint64)
    return rows, cols, counts


@settings(max_examples=300, deadline=None)
@given(entry_dicts)
def test_encode_and_decode_match_the_reference(entries):
    raw = reference_encode(sorted(entries.items()))
    assert tmf._encode_entries(*arrays(entries)) == raw
    assert outcome(tmf._decode_entries, raw, len(entries)) == entries


def test_edge_values_encode_like_the_reference():
    entries = {(r, c): n for r, c, n in itertools.product(EDGES, EDGES, EDGES[:3])}
    raw = reference_encode(sorted(entries.items()))
    assert tmf._encode_entries(*arrays(entries)) == raw
    assert outcome(tmf._decode_entries, raw, len(entries)) == entries


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


def test_row_wrapping_past_64_bits_fails_like_the_reference():
    # Rows U64_MAX then U64_MAX + 1: the second delta carries past 2**64.
    raw = reference_encode([((U64_MAX, 1), 1)]) + bytes([1, 1, 1])
    assert outcome(tmf._decode_entries, raw, 2) == (InvariantViolation, None)
    assert outcome(reference_decode, raw, 2) == (InvariantViolation, None)


@pytest.mark.parametrize("second", ["000701", "000601", "000801", "010701"])
def test_same_row_order_fails_like_the_reference(second):
    raw = bytes.fromhex("050702" + second)  # (5, 7) then another cell
    assert (outcome(tmf._decode_entries, raw, 2)
            == outcome(reference_decode, raw, 2))
