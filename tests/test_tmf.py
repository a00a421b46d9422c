"""Matrix file codec: layout, round-trip, canonical bytes, corruption."""

import io
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor.errors import (
    BadMagic,
    CorruptPayload,
    InvariantViolation,
    KeyMismatch,
    UnknownScheme,
    UnknownVersion,
    WindowSizeMismatch,
)
from tmsensor.matrix import TrafficMatrix, merge
from tmsensor.streams import MAX_READ
from tmsensor.tmf import (
    HEADER_LEN,
    MAGIC,
    iter_block_headers,
    iter_tmf,
    read_tmf,
    tmf_filename,
    write_tmf,
)

from conftest import cells, random_matrix

KEY_ID = b"\x0b" * 8


def write_bytes(matrices, **kwargs) -> bytes:
    buf = io.BytesIO()
    write_tmf(matrices, buf, **kwargs)
    return buf.getvalue()


def read_bytes(data: bytes):
    return read_tmf(io.BytesIO(data))


def leb128_reference_decode(raw: bytes):
    """Independent LEB128 stream decoder (no shared code with the package)."""
    values = []
    value = 0
    shift = 0
    for byte in raw:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(value)
            value = 0
            shift = 0
    assert shift == 0, "dangling continuation bit"
    return values


def test_header_is_64_bytes_little_endian():
    m = TrafficMatrix.from_entries(2048, 3, 10, 20, KEY_ID, {(1, 2): 3})
    data = write_bytes([m])
    assert data[:4] == MAGIC == b"GTM1"
    (version, flags, window, packets, start, end, key_id, scheme, reserved,
     entry_count, payload_len) = struct.unpack("<HHIQQQ8sB3sQQ", data[4:HEADER_LEN])
    assert HEADER_LEN == 64
    assert version == 1
    assert flags == 1  # deflate on by default
    assert window == 2048
    assert packets == 3
    assert (start, end) == (10, 20)
    assert key_id == KEY_ID
    assert scheme == 1
    assert reserved == b"\x00\x00\x00"
    assert entry_count == 1
    assert payload_len == len(data) - HEADER_LEN


def test_empty_matrix_block_is_header_plus_deflated_nothing():
    m = TrafficMatrix.from_entries(1024, 0, 0, 0, KEY_ID, {})
    data = write_bytes([m])
    payload = data[HEADER_LEN:]
    assert payload == zlib.compress(b"", 9)[2:-4]  # raw deflate of empty input
    assert len(data) == HEADER_LEN + 2
    (decoded,) = read_bytes(data)
    assert decoded == m


def test_known_entries_produce_known_varint_payload():
    """{(5,7):2, (5,9):1, (8,7):4} → triples (5,7,2),(0,9,1),(3,7,4)."""
    m = TrafficMatrix.from_entries(16, 7, 1, 2, KEY_ID, {(5, 7): 2, (5, 9): 1, (8, 7): 4})
    data = write_bytes([m], compress=False)
    payload = data[HEADER_LEN:]
    assert payload == bytes.fromhex("050702000901030704")
    assert leb128_reference_decode(payload) == [5, 7, 2, 0, 9, 1, 3, 7, 4]


def test_multibyte_varints_decode_with_reference_decoder():
    big = (1 << 63) + 12345
    m = TrafficMatrix.from_entries(16, 9, 0, 0, KEY_ID, {(big, 3): 9})
    payload = write_bytes([m], compress=False)[HEADER_LEN:]
    assert leb128_reference_decode(payload) == [big, 3, 9]
    (decoded,) = read_bytes(write_bytes([m]))
    assert cells(decoded) == {(big, 3): 9}


def test_round_trip_three_random_matrices():
    rng = random.Random(1)
    ms = [random_matrix(rng, key_id=KEY_ID) for _ in range(3)]
    assert read_bytes(write_bytes(ms)) == ms


def test_round_trip_uncompressed():
    rng = random.Random(2)
    ms = [random_matrix(rng, key_id=KEY_ID) for _ in range(2)]
    data = write_bytes(ms, compress=False)
    assert struct.unpack_from("<H", data, 6)[0] == 0  # flags clear
    assert read_bytes(data) == ms


def test_canonical_serialization():
    rng = random.Random(3)
    ms = [random_matrix(rng, key_id=KEY_ID) for _ in range(4)]
    first = write_bytes(ms)
    again = write_bytes(ms)
    rewritten = write_bytes(read_bytes(first))
    assert first == again == rewritten


def test_entry_insertion_order_does_not_change_bytes():
    entries = {(9, 1): 2, (1, 5): 1, (1, 2): 4}
    m1 = TrafficMatrix.from_entries(64, 7, 5, 6, KEY_ID, dict(sorted(entries.items())))
    m2 = TrafficMatrix.from_entries(64, 7, 5, 6, KEY_ID,
                                    dict(reversed(sorted(entries.items()))))
    assert write_bytes([m1]) == write_bytes([m2])


def test_blocks_skippable_by_payload_len_alone():
    rng = random.Random(4)
    ms = [random_matrix(rng, key_id=KEY_ID) for _ in range(5)]
    data = write_bytes(ms)
    headers = list(iter_block_headers(io.BytesIO(data)))
    assert [h.packet_count for h in headers] == [m.packet_count for m in ms]
    assert [h.entry_count for h in headers] == [len(cells(m)) for m in ms]
    assert sum(HEADER_LEN + h.payload_len for h in headers) == len(data)


def test_zero_length_input_raises_bad_magic():
    with pytest.raises(BadMagic):
        read_bytes(b"")


def test_wrong_magic_raises_bad_magic():
    with pytest.raises(BadMagic):
        read_bytes(b"NOPE" + b"\x00" * 60)


def test_the_magic_alone_is_a_cut_header_not_bad_magic():
    with pytest.raises(CorruptPayload, match="file ends inside a block header"):
        read_bytes(MAGIC)


@pytest.mark.parametrize("data", [b"NOPE!", b"NOPE!" + bytes(59)], ids=["cut", "whole"])
def test_bad_magic_shows_the_first_four_bytes_in_hex(data):
    with pytest.raises(BadMagic, match=r"\(magic 4e4f5045\)"):
        read_bytes(data)


def test_mutated_packet_count_raises_invariant_violation():
    m = TrafficMatrix.from_entries(16, 3, 1, 2, KEY_ID, {(1, 2): 3})
    data = bytearray(write_bytes([m]))
    # packet_count is the u64 at offset 12 (magic, version, flags, window).
    struct.pack_into("<Q", data, 12, 4)
    with pytest.raises(InvariantViolation):
        read_bytes(bytes(data))


def test_unknown_version_rejected():
    data = bytearray(write_bytes([TrafficMatrix.from_entries(16, 0, 0, 0, KEY_ID, {})]))
    struct.pack_into("<H", data, 4, 2)
    with pytest.raises(UnknownVersion):
        read_bytes(bytes(data))


def test_unknown_scheme_rejected():
    data = bytearray(write_bytes([TrafficMatrix.from_entries(16, 0, 0, 0, KEY_ID, {})]))
    data[44] = 9  # anon_scheme byte, after the 8-byte key_id at 36..44
    with pytest.raises(UnknownScheme):
        read_bytes(bytes(data))


def test_reserved_flag_bits_rejected():
    data = bytearray(write_bytes([TrafficMatrix.from_entries(16, 0, 0, 0, KEY_ID, {})]))
    struct.pack_into("<H", data, 6, 0x8001)
    with pytest.raises(CorruptPayload):
        read_bytes(bytes(data))


def test_nonzero_reserved_bytes_rejected():
    data = bytearray(write_bytes([TrafficMatrix.from_entries(16, 0, 0, 0, KEY_ID, {})]))
    data[45] = 1  # first reserved byte
    with pytest.raises(CorruptPayload):
        read_bytes(bytes(data))


def test_corrupt_deflate_stream_rejected():
    m = TrafficMatrix.from_entries(16, 3, 1, 2, KEY_ID, {(1, 2): 3})
    data = bytearray(write_bytes([m]))
    data[HEADER_LEN] ^= 0xFF
    with pytest.raises((CorruptPayload, InvariantViolation)):
        read_bytes(bytes(data))


@pytest.mark.parametrize("cut, extra, message", [
    (1, b"", "deflate stream is incomplete"),
    (0, b"\x00", "trailing bytes after deflate stream"),
], ids=["cut", "trailing"])
def test_deflate_stream_must_end_where_the_payload_ends(cut, extra, message):
    data = write_bytes([TrafficMatrix.from_entries(16, 3, 1, 2, KEY_ID, {(1, 2): 3})])
    payload = data[HEADER_LEN:len(data) - cut] + extra
    header = bytearray(data[:HEADER_LEN])
    struct.pack_into("<Q", header, 56, len(payload))  # payload_len
    with pytest.raises(CorruptPayload, match=message):
        read_bytes(bytes(header) + payload)


def test_payload_that_inflates_past_its_entry_count_is_refused():
    # One entry is at most 30 varint bytes; these 31 inflate from a sound stream.
    comp = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = comp.compress(bytes(31)) + comp.flush()
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 1, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
        1, len(payload),
    )
    with pytest.raises(CorruptPayload,
                       match="payload inflates beyond its declared entry count"):
        read_bytes(header + payload)


def test_unsorted_entries_rejected():
    # Hand-build an uncompressed payload that repeats a cell: the varints are
    # sound, so the block's order check, not the codec, rejects it.
    payload = bytes.fromhex("050702") + bytes.fromhex("000701")  # (5,7) then (5,7)
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 3, 1, 2, KEY_ID, 1, b"\x00" * 3,
        2, len(payload),
    )
    with pytest.raises(InvariantViolation, match="entries are not strictly increasing"):
        read_bytes(header + payload)
    with pytest.raises(InvariantViolation, match="entries are not strictly increasing"):
        list(iter_tmf(io.BytesIO(header + payload)))


def test_trailing_payload_bytes_rejected():
    payload = bytes.fromhex("050702") + b"\x00"
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 2, 1, 2, KEY_ID, 1, b"\x00" * 3,
        1, len(payload),
    )
    with pytest.raises(CorruptPayload):
        read_bytes(header + payload)


def test_varint_past_64_bits_rejected():
    for payload in (
        b"\xff" * 10 + b"\x01",  # 11-byte varint
        b"\x80" * 9 + b"\x02" + b"\x00\x01",  # 10 bytes, but the row is 2**64
    ):
        header = struct.pack(
            "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
            1, len(payload),
        )
        with pytest.raises(CorruptPayload, match="varint"):
            read_bytes(header + payload)


def huge_entry_count_block() -> bytes:
    """67 bytes: a deflated 3-byte payload claiming 2**64 - 1 entries."""
    payload = b"\x03\x00\x00"
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 1, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
        (1 << 64) - 1, len(payload),
    )
    return header + payload


@pytest.mark.parametrize("flags", [0, 1])
def test_entry_count_beyond_payload_capacity_rejected(flags):
    data = bytearray(huge_entry_count_block())
    assert len(data) == 67
    struct.pack_into("<H", data, 6, flags)
    with pytest.raises(CorruptPayload):
        read_bytes(bytes(data))
    with pytest.raises(CorruptPayload):
        list(iter_block_headers(io.BytesIO(bytes(data))))


def test_uncompressed_entry_count_bound_is_exact():
    # One (0, 5, 1) triple is 3 bytes: 1 entry fits, 2 do not.
    payload = bytes.fromhex("000501")
    for entry_count, ok in ((1, True), (2, False)):
        header = struct.pack(
            "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
            entry_count, len(payload),
        )
        if ok:
            assert cells(read_bytes(header + payload)[0]) == {(0, 5): 1}
        else:
            with pytest.raises(CorruptPayload, match="cannot fit"):
                read_bytes(header + payload)


def test_deflated_entry_count_bound_is_the_largest_deflate_expansion():
    # Deflate expands at most 1032-fold, so a 3-byte deflated payload holds
    # at most 3096 bytes of triples: 1032 entries may fit, 1033 cannot.
    payload = b"\x03\x00\x00"
    for entry_count, ok in ((1032, True), (1033, False)):
        header = struct.pack(
            "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 1, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
            entry_count, len(payload),
        )
        blocks = iter_block_headers(io.BytesIO(header + payload))
        if ok:
            assert next(blocks).entry_count == entry_count
        else:
            with pytest.raises(CorruptPayload, match="1033 entries cannot fit"):
                next(blocks)


def test_highly_compressible_block_is_not_rejected():
    # Every triple is (1, 5, 1) after the first: deflate gets near its limit.
    n = 100_000
    m = TrafficMatrix.from_entries(1 << 17, n, 1, 2, KEY_ID,
                                   {(row, 5): 1 for row in range(n)})
    data = write_bytes([m])
    assert 3 * n > 900 * (len(data) - HEADER_LEN)
    assert read_bytes(data) == [m]


def empty_block_header(payload_len: int) -> bytes:
    return struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 0, 0, 0, KEY_ID, 1, b"\x00" * 3,
        0, payload_len,
    )


def test_payload_len_past_any_index_is_corrupt_payload():
    data = empty_block_header((1 << 64) - 1)
    with pytest.raises(CorruptPayload):
        read_bytes(data)
    with pytest.raises(CorruptPayload):
        list(iter_block_headers(io.BytesIO(data)))


class _RecordingReader(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.requests = []

    def read(self, n=-1):
        self.requests.append(n)
        return super().read(n)


def test_payload_is_read_in_bounded_chunks():
    source = _RecordingReader(empty_block_header(1 << 40) + b"\x00" * (3 << 20))
    with pytest.raises(CorruptPayload, match="ends inside a block payload"):
        read_tmf(source)
    assert len(source.requests) > 4  # the header, three full chunks, then EOF
    assert all(0 <= n <= MAX_READ for n in source.requests)


def test_payload_larger_than_one_chunk_reads_back():
    rng = random.Random(11)
    entries = {(rng.randrange(1 << 64), rng.randrange(1 << 64)): 1 for _ in range(60_000)}
    m = TrafficMatrix.from_entries(1 << 17, len(entries), 1, 2, KEY_ID, entries)
    data = write_bytes([m], compress=False)
    assert len(data) - HEADER_LEN > MAX_READ
    assert read_bytes(data) == [m]


@pytest.mark.parametrize(
    "payload, packets",
    [
        # (2**64 - 1, 0, 1), then a row delta of 1: the second row is 2**64.
        (b"\xff" * 9 + b"\x01" + b"\x00\x01" + b"\x01\x00\x01", 2),
        (bytes.fromhex("050700") + bytes.fromhex("010701"), 1),  # zero count
    ],
)
def test_decoded_entry_invariants_are_invariant_violations(payload, packets):
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, packets, 1, 2, KEY_ID, 1,
        b"\x00" * 3, 2, len(payload),
    )
    with pytest.raises(InvariantViolation):
        read_bytes(header + payload)


def test_counts_summing_past_64_bits_are_invariant_violation():
    # Counts 2**64 - 1 and 2 sum to 2**64 + 1; a uint64 sum would wrap to 1.
    payload = b"\x01\x02" + b"\xff" * 9 + b"\x01" + b"\x00\x03\x02"
    header = struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 1, 1, 2, KEY_ID, 1,
        b"\x00" * 3, 2, len(payload),
    )
    with pytest.raises(InvariantViolation, match="sum to 18446744073709551617"):
        read_bytes(header + payload)


def test_truncated_payload_rejected():
    m = TrafficMatrix.from_entries(16, 3, 1, 2, KEY_ID, {(1, 2): 3})
    data = write_bytes([m])
    with pytest.raises(CorruptPayload):
        read_bytes(data[:-1])
    for payload, entry_count in (
        (bytes.fromhex("050782"), 1),  # the count varint is cut at the end
        (bytes.fromhex("808001870101"), 2),  # one 6-byte triple where 2 are due
    ):
        header = struct.pack(
            "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 1, 1, 2, KEY_ID, 1, b"\x00" * 3,
            entry_count, len(payload),
        )
        with pytest.raises(CorruptPayload, match="runs past end"):
            read_bytes(header + payload)


def test_truncated_second_header_rejected():
    ms = [TrafficMatrix.from_entries(16, 1, 5, 5, KEY_ID, {(1, 2): 1})] * 2
    data = write_bytes(ms)
    with pytest.raises(CorruptPayload):
        read_bytes(data[: len(data) - HEADER_LEN + 3 - len(data) // 2])


def test_second_block_with_bad_magic_is_corruption_not_bad_magic():
    ms = [TrafficMatrix.from_entries(16, 1, 5, 5, KEY_ID, {(1, 2): 1})] * 2
    data = bytearray(write_bytes(ms))
    second = len(data) - (len(data) - HEADER_LEN) // 2  # not exact; find magic
    second = data.index(MAGIC, 4)
    data[second] ^= 0xFF
    with pytest.raises(CorruptPayload):
        read_bytes(bytes(data))


def test_write_rejects_mixed_keys():
    a = TrafficMatrix.from_entries(16, 0, 0, 0, b"\x01" * 8, {})
    b = TrafficMatrix.from_entries(16, 0, 0, 0, b"\x02" * 8, {})
    with pytest.raises(KeyMismatch):
        write_bytes([a, b])


def test_write_rejects_mixed_window_sizes():
    a = TrafficMatrix.from_entries(16, 0, 0, 0, KEY_ID, {})
    b = TrafficMatrix.from_entries(32, 0, 0, 0, KEY_ID, {})
    with pytest.raises(WindowSizeMismatch):
        write_bytes([a, b])


@pytest.mark.parametrize("other, error", [
    (TrafficMatrix.from_entries(16, 0, 0, 0, b"\x02" * 8, {}), KeyMismatch),
    (TrafficMatrix.from_entries(32, 0, 0, 0, KEY_ID, {}), WindowSizeMismatch),
])
def test_write_and_merge_give_one_message_per_mismatch(other, error):
    first = TrafficMatrix.from_entries(16, 1, 1, 2, KEY_ID, {(1, 2): 1})
    with pytest.raises(error) as written:
        write_bytes([first, other])
    with pytest.raises(error) as merged:
        merge([first, other])
    assert type(written.value) is type(merged.value) is error
    assert str(written.value) == str(merged.value)
    if error is KeyMismatch:
        assert "different keys" in str(written.value)
        assert KEY_ID.hex() in str(written.value) and other.key_id.hex() in str(written.value)


def test_write_validates_matrices():
    broken = TrafficMatrix.from_entries(16, 5, 0, 0, KEY_ID, {(1, 2): 3})
    with pytest.raises(InvariantViolation):
        write_bytes([broken])


@pytest.mark.parametrize("window, start, end", [
    (1 << 32, 1, 2),   # window_size past the header's 32 bits
    (16, -5, 2),       # start_time_us below 0
    (16, 1, 1 << 64),  # end_time_us past the header's 64 bits
])
def test_fields_the_header_cannot_hold_are_invariant_violations(window, start, end):
    m = TrafficMatrix.from_entries(window, 3, start, end, KEY_ID, {(1, 2): 3})
    with pytest.raises(InvariantViolation):
        m.validate()
    sink = io.BytesIO()
    with pytest.raises(InvariantViolation):
        write_tmf([m], sink)
    assert sink.getvalue() == b""


def test_write_returns_byte_count():
    rng = random.Random(6)
    ms = [random_matrix(rng, key_id=KEY_ID) for _ in range(3)]
    buf = io.BytesIO()
    assert write_tmf(ms, buf) == len(buf.getvalue())


def test_empty_sequence_writes_nothing():
    assert write_bytes([]) == b""


entry_lists = st.dictionaries(
    st.tuples(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1)),
    st.integers(1, (1 << 32)),
    max_size=25,
)


@settings(max_examples=75, deadline=None)
@given(st.lists(entry_lists, min_size=1, max_size=4), st.booleans())
def test_round_trip_property(entry_dicts, compress):
    ms = []
    for entries in entry_dicts:
        total = sum(entries.values())
        times = (0, 0) if total == 0 else (17, 94)
        ms.append(TrafficMatrix.from_entries(512, total, *times, KEY_ID, entries))
    data = write_bytes(ms, compress=compress)
    assert read_bytes(data) == ms
    assert write_bytes(read_bytes(data), compress=compress) == data


def test_filename_convention():
    assert tmf_filename("tm", 493031, 0) == "tm-493031-000.tmf"
    assert tmf_filename("sensor7", 0, 41) == "sensor7-0-041.tmf"
    assert tmf_filename("tm", 1, 1234) == "tm-1-1234.tmf"
