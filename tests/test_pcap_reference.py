"""The batched PCAP parser against a per-record reference loop.

The reference is the straightforward parser: one record header and one frame
read at a time, each frame dissected on its own. For any capture both must
give the same packets and the same final CaptureStats, however the records
fall against the parser's read chunks. The parser's batches are flattened
into one Packet each for the comparison.
"""

import io
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmsensor.pcap import (
    GLOBAL_HEADER_LEN,
    MAX_RECORD_BUFFER,
    READ_CHUNK,
    RECORD_HEADER_LEN,
    CaptureStats,
    _read_global_header,
    parse_pcap,
)

from conftest import (
    Packet,
    ipv4_packet,
    ipv6_packet,
    pcap_header,
    pcap_record,
    records_of,
)

ETHERNET, RAW_IP, LINUX_SLL = 1, 101, 113


def reference_parse(data: bytes):
    stream = io.BytesIO(data)
    layout = _read_global_header(stream)
    if layout is None:
        return [], CaptureStats(truncated_tail=True)
    stats = CaptureStats()
    return list(reference_records(stream, stats, *layout)), stats


def reference_records(stream, stats, byte_order, nanos, linktype):
    record_header = struct.Struct(byte_order + "IIII")
    while True:
        hdr = stream.read(RECORD_HEADER_LEN)
        if not hdr:
            return
        if len(hdr) < RECORD_HEADER_LEN:
            stats.truncated_tail = True
            return
        ts_sec, ts_frac, incl_len, orig_len = record_header.unpack(hdr)

        want = min(incl_len, MAX_RECORD_BUFFER)
        buf = stream.read(want) if want else b""
        if len(buf) < want:
            stats.truncated_tail = True
            return
        remaining = incl_len - want
        while remaining > 0:
            chunk = stream.read(min(remaining, MAX_RECORD_BUFFER))
            if not chunk:
                stats.truncated_tail = True
                return
            remaining -= len(chunk)

        stats.total_records += 1
        if incl_len > orig_len:
            stats.skipped_malformed += 1
            continue
        parsed = reference_dissect(buf, linktype)
        if parsed is None:
            stats.skipped_malformed += 1
            continue
        if parsed == 0:
            stats.skipped_non_ip += 1
            continue
        version, src, dst = parsed
        stats.valid_ip_packets += 1
        timestamp_us = ts_sec * 1_000_000 + (ts_frac // 1000 if nanos else ts_frac)
        yield Packet(timestamp_us, version, src, dst)


def reference_dissect(buf, linktype):
    if linktype == RAW_IP:
        if not buf:
            return None
        off = 0
        version = buf[0] >> 4
    else:
        off = 12 if linktype == ETHERNET else 14
        while True:
            if off + 2 > len(buf):
                return None
            ethertype = (buf[off] << 8) | buf[off + 1]
            off += 2
            if ethertype != 0x8100:
                break
            off += 2
        version = 4 if ethertype == 0x0800 else 6 if ethertype == 0x86DD else 0

    if version == 4:
        if off + 20 > len(buf) or buf[off] >> 4 != 4:
            return None
        return 4, buf[off + 12 : off + 16], buf[off + 16 : off + 20]
    if version == 6:
        if off + 40 > len(buf) or buf[off] >> 4 != 6:
            return None
        return 6, buf[off + 8 : off + 24], buf[off + 24 : off + 40]
    return 0


def parse_all(data: bytes):
    batches, stats = parse_pcap(io.BytesIO(data))
    return records_of(batches), stats


def link_frame(linktype: int, ethertype: int, vlans: int, packet: bytes) -> bytes:
    if linktype == RAW_IP:
        return packet
    if linktype == ETHERNET:
        head = b"\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02"
    else:  # Linux cooked v1: packet type, ARPHRD, address length, 8 address bytes
        head = struct.pack(">HHH8s", 0, 1, 6, b"\x02" * 8)
    return head + struct.pack(">HH", 0x8100, 7) * vlans + struct.pack(">H", ethertype) + packet


HOSTS4 = [f"10.0.{i // 4}.{i}" for i in range(1, 12)]
HOSTS6 = [f"fd00::{i:x}" for i in range(1, 12)]
# Payload sizes: small frames, frames just under the cap on the bytes parsed,
# a frame that pushes the next records across the first read-chunk edge, and
# frames longer than the cap or the read chunk.
PAYLOADS = st.one_of(st.integers(0, 40), st.integers(65_380, 65_480),
                     st.integers(READ_CHUNK - 120, READ_CHUNK - 20),
                     st.sampled_from([1500, 70_000, 140_000, 300_000]))
# 802.1Q tag counts: a few, a chain that fills a 64 KiB record, and one that
# runs past the bytes parsed of a record, which makes it malformed.
TAGS = st.one_of(st.integers(0, 3), st.sampled_from([40, 16_380, 20_000]))


@st.composite
def records(draw, linktype):
    kind = draw(st.sampled_from(["v4", "v4", "v6", "v6", "mismatch", "non-ip", "junk"]))
    payload = b"p" * draw(PAYLOADS)
    if kind in ("v4", "mismatch"):
        packet = ipv4_packet(draw(st.sampled_from(HOSTS4)), draw(st.sampled_from(HOSTS4)))
    else:
        packet = ipv6_packet(draw(st.sampled_from(HOSTS6)), draw(st.sampled_from(HOSTS6)))
    packet += payload  # the parser never reads the IP length fields
    if kind == "junk":
        packet = draw(st.binary(max_size=60))
    ethertype = {"v4": 0x0800, "v6": 0x86DD, "mismatch": 0x86DD, "non-ip": 0x0806,
                 "junk": draw(st.sampled_from([0x0800, 0x86DD, 0x8100]))}[kind]
    frame = link_frame(linktype, ethertype, draw(TAGS), packet)
    if draw(st.integers(0, 4)) == 0:  # cut short, e.g. by the snap length
        frame = frame[: draw(st.integers(0, 64))]
    incl = len(frame)
    orig = incl + draw(st.integers(-2, 64))  # below incl_len is malformed
    return draw(st.integers(0, (1 << 32) - 1)), draw(st.integers(0, (1 << 32) - 1)), \
        frame, incl, max(orig, 0)


@st.composite
def captures(draw):
    linktype = draw(st.sampled_from([ETHERNET, LINUX_SLL, RAW_IP]))
    endian = draw(st.sampled_from("<>"))
    nanos = draw(st.booleans())
    out = bytearray(pcap_header(endian=endian, nanos=nanos, linktype=linktype))
    for ts_sec, ts_frac, frame, incl, orig in draw(st.lists(records(linktype), max_size=12)):
        out += pcap_record(frame, ts_sec, ts_frac, endian, incl=incl, orig=orig)
    return bytes(out)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(captures(), st.integers(0, 40))
def test_batched_parser_matches_the_per_record_loop(data, cut):
    # Drop up to 40 trailing bytes, cutting the last record (or its header).
    data = data[: max(GLOBAL_HEADER_LEN, len(data) - cut)]
    assert parse_all(data) == reference_parse(data)


def straddling_capture(last_payload: int, linktype=ETHERNET) -> tuple[bytes, int]:
    """A capture whose last record crosses the first read-chunk edge; returns
    it with the offset at which that record starts."""
    last = pcap_record(link_frame(linktype, 0x0800, 1,
                                  ipv4_packet("10.0.0.1", "10.0.0.2", b"y" * last_payload)))
    head = pcap_header(linktype=linktype) + pcap_record(
        link_frame(linktype, 0x86DD, 0, ipv6_packet("fd00::1", "fd00::2", b"x" * 40)))
    # Fill up to 20 bytes before the edge, which sits one chunk past the
    # global header.
    filler_len = GLOBAL_HEADER_LEN + READ_CHUNK - 20 - len(head) - RECORD_HEADER_LEN
    filler = pcap_record(link_frame(linktype, 0x0806, 0, b"f" * (filler_len - 14)))
    start = len(head) + len(filler)
    assert start == GLOBAL_HEADER_LEN + READ_CHUNK - 20
    return head + filler + last, start


def test_cut_at_every_offset_of_a_record_across_the_chunk_edge():
    data, start = straddling_capture(30)
    for end in range(start, len(data) + 1):
        assert parse_all(data[:end]) == reference_parse(data[:end]), end


def test_cut_inside_a_record_longer_than_the_chunk():
    data, start = straddling_capture(3 * READ_CHUNK)
    body = start + RECORD_HEADER_LEN
    second_edge = GLOBAL_HEADER_LEN + 2 * READ_CHUNK  # where the drain begins
    ends = [*range(start, body + 64), *range(body + MAX_RECORD_BUFFER - 64,
                                            body + MAX_RECORD_BUFFER + 64),
            *range(second_edge - 64, second_edge + 64),
            *range(len(data) - 64, len(data) + 1), *range(body, len(data), 4099)]
    for end in ends:
        assert parse_all(data[:end]) == reference_parse(data[:end]), end


def test_records_longer_than_the_cap_inside_one_chunk():
    # Each long record ends inside the first read chunk, so only the cap,
    # never a drain, keeps its bytes past MAX_RECORD_BUFFER from being parsed.
    small = pcap_record(link_frame(ETHERNET, 0x0800, 0, ipv4_packet("10.0.0.1", "10.0.0.2")))
    long_v6 = link_frame(ETHERNET, 0x86DD, 2,
                         ipv6_packet("fd00::1", "fd00::2") + b"y" * 2 * MAX_RECORD_BUFFER)
    tags_past_cap = link_frame(ETHERNET, 0x0800, MAX_RECORD_BUFFER // 4,
                               ipv4_packet("10.0.0.3", "10.0.0.4"))
    data = (pcap_header() + small + pcap_record(long_v6) + small
            + pcap_record(tags_past_cap) + small)
    assert len(tags_past_cap) > MAX_RECORD_BUFFER and len(data) < READ_CHUNK
    records, stats = parse_all(data)
    assert (records, stats) == reference_parse(data)
    assert (stats.valid_ip_packets, stats.skipped_malformed) == (4, 1)


class _ShortReader(io.BytesIO):
    """Stream whose readinto fills at most ``k`` bytes per call."""

    def __init__(self, data, k):
        super().__init__(data)
        self.k = k

    def readinto(self, b):
        return super().readinto(memoryview(b)[: self.k])


def mixed_capture(seed: int) -> bytes:
    """Ethernet records of every kind, long ones included, over several read
    chunks, with a cut tail."""
    rng = random.Random(seed)
    out = bytearray(pcap_header())
    while len(out) < 2 * READ_CHUNK + 5000:
        kind = rng.choice(["v4", "v6", "non-ip", "short", "long", "tagged"])
        ethertype = 0x86DD if kind == "v6" else 0x0806 if kind == "non-ip" else 0x0800
        packet = (ipv6_packet(rng.choice(HOSTS6), rng.choice(HOSTS6)) if kind == "v6"
                  else ipv4_packet(rng.choice(HOSTS4), rng.choice(HOSTS4)))
        frame = link_frame(ETHERNET, ethertype, rng.randrange(1, 4) if kind == "tagged" else 0,
                           packet + b"p" * (rng.choice([70_000, 140_000]) if kind == "long"
                                            else rng.randrange(200)))
        if kind == "short":
            frame = frame[: rng.randrange(40)]
        out += pcap_record(frame, rng.randrange(1 << 32), rng.randrange(1_000_000))
    return bytes(out[:-7])


@pytest.mark.parametrize("k", [1, 7, 4096, READ_CHUNK])
def test_short_reads_give_the_same_batches(k):
    # Every batch is held until the end, so a column that aliased the
    # parser's reused buffer would read later bytes.
    data = mixed_capture(5)
    batches, stats = parse_pcap(io.BytesIO(data))
    whole = list(batches)
    short_batches, short_stats = parse_pcap(_ShortReader(data, k))
    short = list(short_batches)
    assert (records_of(short), short_stats) == (records_of(whole), stats)
    assert (records_of(whole), stats) == reference_parse(data)
    assert stats.truncated_tail and stats.skipped_non_ip and stats.skipped_malformed
