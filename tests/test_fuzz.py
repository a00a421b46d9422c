"""Fuzzing the readers: for any input bytes, only SensorError escapes.

Each reader gets arbitrary bytes and mutations of a valid input: bit flips,
cuts, insertions and overwritten integer fields. A reader may accept the
result or reject it with a SensorError subclass; any other exception fails
the test.
"""

import contextlib
import io
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmsensor import cli
from tmsensor.anon import AnonKey, load_key, save_key
from tmsensor.errors import SensorError
from tmsensor.pcap import parse_pcap
from tmsensor.tmf import HEADER_LEN, iter_block_headers, read_tmf, write_tmf

from conftest import (
    eth_frame,
    eth_ipv4_capture,
    ipv4_packet,
    ipv6_packet,
    pcap_header,
    pcap_record,
    random_matrix,
    records_of,
    sll_frame,
)

FILE_EXAMPLES = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Values that sit on the edges of the integer fields the readers trust.
edge_ints = st.sampled_from(
    [0, 1, 2, 3, 64, 255, 1 << 16, 1 << 31, (1 << 32) - 1, 1 << 32, 1 << 40,
     1 << 63, (1 << 64) - 1]
) | st.integers(0, (1 << 64) - 1)

edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "cut", "insert", "u32", "u64"]),
        st.integers(0, 1 << 16),
        edge_ints,
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for kind, pos, value in ops:
        if not buf:
            break
        i = pos % len(buf)
        if kind == "flip":
            buf[i] ^= (value & 0xFF) or 1
        elif kind == "cut":
            del buf[i:]
        elif kind == "insert":
            buf[i:i] = bytes([value & 0xFF])
        elif kind == "u32" and i + 4 <= len(buf):
            struct.pack_into("<I", buf, i, value & 0xFFFFFFFF)
        elif kind == "u64" and i + 8 <= len(buf):
            struct.pack_into("<Q", buf, i, value)
    return bytes(buf)


def rejects_only_with_sensor_error(fn, *args):
    try:
        fn(*args)
    except SensorError:
        pass


# --- TMF ---

def _tmf_bytes(seed: int, blocks: int, compress: bool) -> bytes:
    rng = random.Random(seed)
    buf = io.BytesIO()
    write_tmf([random_matrix(rng, max_entries=20) for _ in range(blocks)], buf,
              compress=compress)
    return buf.getvalue()


VALID_TMF = [_tmf_bytes(1, 1, True), _tmf_bytes(2, 3, True), _tmf_bytes(3, 2, False)]

# The u64 header fields: packet_count, start and end time, entry_count and
# payload_len.
TMF_U64_OFFSETS = (12, 20, 28, 48, 56)


def _block_offsets(data: bytes) -> list[int]:
    offsets, pos = [], 0
    for header in iter_block_headers(io.BytesIO(data)):
        offsets.append(pos)
        pos += HEADER_LEN + header.payload_len
    return offsets


def read_tmf_fully(data: bytes):
    read_tmf(io.BytesIO(data))


def scan_tmf_headers(data: bytes):
    list(iter_block_headers(io.BytesIO(data)))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_read_tmf_arbitrary_bytes(data):
    rejects_only_with_sensor_error(read_tmf_fully, data)
    rejects_only_with_sensor_error(scan_tmf_headers, data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_TMF), edits)
def test_read_tmf_mutated_files(data, ops):
    mutated = mutate(data, ops)
    rejects_only_with_sensor_error(read_tmf_fully, mutated)
    rejects_only_with_sensor_error(scan_tmf_headers, mutated)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_TMF), st.data())
def test_read_tmf_mutated_header_fields(data, draw):
    buf = bytearray(data)
    fields = st.tuples(
        st.sampled_from(_block_offsets(data)), st.sampled_from(TMF_U64_OFFSETS),
        edge_ints,
    )
    for block, field, value in draw.draw(st.lists(fields, min_size=1, max_size=3)):
        struct.pack_into("<Q", buf, block + field, value)
    rejects_only_with_sensor_error(read_tmf_fully, bytes(buf))
    rejects_only_with_sensor_error(scan_tmf_headers, bytes(buf))


@FILE_EXAMPLES
@given(st.sampled_from(VALID_TMF), edits)
def test_analyze_exits_with_a_documented_code(tmp_path, data, ops):
    path = tmp_path / "fuzz.tmf"
    path.write_bytes(mutate(data, ops))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", str(path)]) in (0, 2)


# --- PCAP ---

VALID_PCAP = [
    eth_ipv4_capture([("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.1")]),
    pcap_header(endian=">", nanos=True) + pcap_record(
        eth_frame(ipv6_packet("fe80::1", "fe80::2"), ethertype=0x86DD, vlans=2),
        endian=">",
    ),
    pcap_header(linktype=101) + pcap_record(ipv4_packet("10.0.0.1", "10.0.0.2")),
    pcap_header(linktype=113) + pcap_record(sll_frame(ipv4_packet("10.0.0.1", "10.0.0.9"))),
]


def parse_pcap_fully(data: bytes):
    batches, _ = parse_pcap(io.BytesIO(data))
    for _ in batches:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parse_pcap_arbitrary_bytes(data):
    rejects_only_with_sensor_error(parse_pcap_fully, data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_PCAP), edits)
def test_parse_pcap_mutated_captures(data, ops):
    rejects_only_with_sensor_error(parse_pcap_fully, mutate(data, ops))


# --- key file ---

def _key_file_bytes() -> bytes:
    buf = io.BytesIO()
    save_key(AnonKey(bytes(range(32))), buf)
    return buf.getvalue()


def load_key_bytes(data: bytes):
    load_key(io.BytesIO(data))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | st.tuples(st.just(_key_file_bytes()), edits).map(
    lambda args: mutate(*args)))
def test_load_key_only_raises_sensor_errors(data):
    rejects_only_with_sensor_error(load_key_bytes, data)


# --- short reads ---

class _TrickleReader(io.BytesIO):
    """Stream whose read and readinto return 1 to k bytes per call, as a
    pipe, a socket or a file opened with buffering=0 may."""

    def __init__(self, data: bytes, k: int, seed: int):
        super().__init__(data)
        self.k, self.rng = k, random.Random(seed)

    def _short(self, n: int) -> int:
        return min(n, self.rng.randint(1, self.k))

    def read(self, n=-1):
        return super().read(self._short(n))  # n < 0 still reads to the end

    def readinto(self, b):
        return super().readinto(memoryview(b)[: self._short(len(b))])


def parsed_pcap(stream):
    batches, stats = parse_pcap(stream)
    return records_of(batches), stats


READERS = [
    (parsed_pcap, VALID_PCAP),
    (read_tmf, VALID_TMF),
    (load_key, [_key_file_bytes()]),
]


def outcome(reader, stream):
    """The reader's result, or the class of the SensorError it raised."""
    try:
        return reader(stream)
    except SensorError as exc:
        return type(exc)


@pytest.mark.parametrize("reader, valid", READERS, ids=["pcap", "tmf", "key"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 64), seed=st.integers(0, 1 << 32))
def test_short_reads_give_the_same_outcome(reader, valid, data, k, seed):
    raw = data.draw(st.sampled_from(valid) | st.tuples(st.sampled_from(valid), edits).map(
        lambda args: mutate(*args)))
    assert outcome(reader, _TrickleReader(raw, k, seed)) == outcome(reader, io.BytesIO(raw))


# --- journal and config files ---

VALID_JOURNAL = ("ab" * 32 + " one.pcap\n" + "0F" * 32 + "  two .pcap\n").encode()

VALID_CONFIG = (
    b"# sensor\nkey_path = /k\ninput_dir = /in\noutput_dir = /out\n"
    b"window_size = 4096\ndelete_after_convert = yes\nprefix = s1\n"
)


def text_file_inputs(valid: bytes):
    return (
        st.binary(max_size=200)
        | st.text(max_size=100).map(str.encode)
        | st.tuples(st.just(valid), edits).map(lambda args: mutate(*args))
    )


@FILE_EXAMPLES
@given(text_file_inputs(VALID_JOURNAL))
def test_load_journal_only_raises_sensor_errors(tmp_path, data):
    path = tmp_path / "tmsensor.journal"
    path.write_bytes(data)
    rejects_only_with_sensor_error(cli.load_journal, str(path))


@FILE_EXAMPLES
@given(text_file_inputs(VALID_CONFIG))
def test_parse_config_only_raises_sensor_errors(tmp_path, data):
    path = tmp_path / "sensor.cfg"
    path.write_bytes(data)
    rejects_only_with_sensor_error(cli.parse_config, str(path))
