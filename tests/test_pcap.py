"""Capture parser: magics, link types, dissection, truncation semantics."""

import collections
import copy
import io
import itertools
import random
import struct

import numpy as np
import pytest

from tmsensor.errors import BadMagic, PcapngUnsupported, UnsupportedLinkType
from tmsensor.pcap import (
    BATCH_BYTES,
    BATCH_RECORDS,
    GLOBAL_HEADER_LEN,
    MAX_RECORD_BUFFER,
    READ_CHUNK,
    RECORD_HEADER_LEN,
    parse_pcap,
)

from conftest import (
    eth_frame,
    eth_ipv4_capture,
    ip4,
    ip6,
    ipv4_packet,
    ipv6_packet,
    pcap_header,
    pcap_record,
    records_of,
    sll_frame,
)

pytestmark = pytest.mark.usefixtures("bounded_parse")


def parse_all(data: bytes):
    batches, stats = parse_pcap(io.BytesIO(data))
    return records_of(batches), stats


THREE_PAIRS = [("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.2"),
               ("10.0.0.3", "10.0.0.1")]


def test_header_only_capture_is_empty():
    records, stats = parse_all(pcap_header())
    assert records == []
    assert stats.total_records == 0
    assert stats.valid_ip_packets == 0
    assert stats.skipped_non_ip == 0
    assert stats.skipped_malformed == 0
    assert stats.truncated_tail is False


def test_three_packet_capture_yields_those_address_pairs():
    records, stats = parse_all(eth_ipv4_capture(THREE_PAIRS))
    assert [(r.src_ip, r.dst_ip) for r in records] == [
        (ip4(s), ip4(d)) for s, d in THREE_PAIRS
    ]
    assert all(r.ip_version == 4 for r in records)
    assert stats.valid_ip_packets == 3
    assert stats.total_records == 3


def test_final_record_cut_mid_header_sets_truncated_tail():
    data = eth_ipv4_capture(THREE_PAIRS)
    frame_len = len(eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"x" * 10)))
    cut = len(data) - frame_len - 8  # inside the last record header
    records, stats = parse_all(data[:cut])
    assert len(records) == 2
    assert stats.total_records == 2
    assert stats.truncated_tail is True


def test_final_record_cut_mid_body_sets_truncated_tail():
    data = eth_ipv4_capture(THREE_PAIRS)
    records, stats = parse_all(data[:-5])
    assert len(records) == 2
    assert stats.truncated_tail is True


def test_every_prefix_parses_as_a_prefix():
    """Any prefix yields a prefix of the full record sequence, with
    truncated_tail set exactly when the cut lands mid-record."""
    data = eth_ipv4_capture(THREE_PAIRS)
    full, _ = parse_all(data)
    frame_len = len(eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"x" * 10)))
    record_size = RECORD_HEADER_LEN + frame_len
    boundaries = {GLOBAL_HEADER_LEN + i * record_size for i in range(4)}

    for cut in range(len(data) + 1):
        if cut < 4:
            with pytest.raises(BadMagic):
                parse_all(data[:cut])
            continue
        records, stats = parse_all(data[:cut])
        whole = (cut - GLOBAL_HEADER_LEN) // record_size if cut >= 24 else 0
        assert records == full[:whole]
        assert stats.truncated_tail is (cut not in boundaries)


def test_cut_inside_global_header_reports_truncation_not_error():
    records, stats = parse_all(pcap_header()[:15])
    assert records == []
    assert stats.truncated_tail is True
    assert stats.total_records == 0


@pytest.mark.parametrize("endian", ["<", ">"])
def test_both_byte_orders(endian):
    data = eth_ipv4_capture(THREE_PAIRS, endian=endian)
    records, stats = parse_all(data)
    assert stats.valid_ip_packets == 3
    assert records[2].src_ip == ip4("10.0.0.3")


@pytest.mark.parametrize("endian", ["<", ">"])
def test_nanosecond_magic_truncates_to_microseconds(endian):
    data = pcap_header(endian=endian, nanos=True) + pcap_record(
        eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2")),
        ts_sec=7,
        ts_frac=123_456_789,  # nanoseconds
        endian=endian,
    )
    records, _ = parse_all(data)
    assert records[0].timestamp_us == 7 * 1_000_000 + 123_456


def test_microsecond_timestamp_passthrough():
    data = pcap_header() + pcap_record(
        eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2")), ts_sec=3, ts_frac=250_000
    )
    records, _ = parse_all(data)
    assert records[0].timestamp_us == 3_250_000


def test_record_shorter_than_its_wire_length_is_valid():
    frame = eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"p" * 30))
    data = pcap_header() + pcap_record(frame, orig=len(frame) + 100)
    records, stats = parse_all(data)
    assert [(r.src_ip, r.dst_ip) for r in records] == [(ip4("10.0.0.1"), ip4("10.0.0.2"))]
    assert stats.valid_ip_packets == 1


def test_empty_input_raises_bad_magic():
    with pytest.raises(BadMagic):
        parse_all(b"")


def test_garbage_magic_raises_bad_magic():
    with pytest.raises(BadMagic):
        parse_all(b"\x00\x01\x02\x03" + b"\x00" * 20)


def test_pcapng_magic_raises_distinct_error():
    with pytest.raises(PcapngUnsupported):
        parse_all(b"\x0a\x0d\x0d\x0a" + b"\x00" * 40)
    assert issubclass(PcapngUnsupported, BadMagic)


def test_unsupported_linktype_aborts():
    with pytest.raises(UnsupportedLinkType):
        parse_all(pcap_header(linktype=105))


def test_raw_ip_linktype_v4_and_v6():
    data = (
        pcap_header(linktype=101)
        + pcap_record(ipv4_packet("192.168.1.1", "192.168.1.2"))
        + pcap_record(ipv6_packet("2001:db8::1", "2001:db8::2"))
    )
    records, stats = parse_all(data)
    assert stats.valid_ip_packets == 2
    assert records[0].ip_version == 4
    assert records[1].ip_version == 6
    assert records[1].src_ip == ip6("2001:db8::1")
    assert records[1].dst_ip == ip6("2001:db8::2")


def test_linux_cooked_linktype():
    data = pcap_header(linktype=113) + pcap_record(
        sll_frame(ipv4_packet("10.1.0.1", "10.1.0.2"))
    )
    records, stats = parse_all(data)
    assert stats.valid_ip_packets == 1
    assert records[0].src_ip == ip4("10.1.0.1")


def test_ipv6_over_ethernet():
    data = pcap_header() + pcap_record(
        eth_frame(ipv6_packet("fe80::1", "fe80::2"), ethertype=0x86DD)
    )
    records, _ = parse_all(data)
    assert records[0].ip_version == 6
    assert len(records[0].src_ip) == 16


@pytest.mark.parametrize("vlans", [1, 2])
def test_vlan_tags_are_unwrapped(vlans):
    data = pcap_header() + pcap_record(
        eth_frame(ipv4_packet("10.0.0.1", "10.0.0.9"), vlans=vlans)
    )
    records, stats = parse_all(data)
    assert stats.valid_ip_packets == 1
    assert records[0].dst_ip == ip4("10.0.0.9")


def test_arp_frame_counts_as_non_ip():
    arp = eth_frame(b"\x00" * 28, ethertype=0x0806)
    data = pcap_header() + pcap_record(arp) + pcap_record(
        eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2"))
    )
    records, stats = parse_all(data)
    assert len(records) == 1
    assert stats.skipped_non_ip == 1
    assert stats.valid_ip_packets == 1
    assert stats.total_records == 2


def test_short_ipv4_header_counts_as_malformed():
    # EtherType says IPv4 but only 8 bytes of IP header were captured.
    data = pcap_header() + pcap_record(
        eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2")[:8])
    )
    _, stats = parse_all(data)
    assert stats.skipped_malformed == 1
    assert stats.valid_ip_packets == 0


def test_short_ipv6_header_counts_as_malformed():
    data = pcap_header() + pcap_record(
        eth_frame(ipv6_packet("2001:db8::1", "2001:db8::2")[:30], ethertype=0x86DD)
    )
    _, stats = parse_all(data)
    assert stats.skipped_malformed == 1


def test_version_nibble_contradicting_ethertype_is_malformed():
    bad = bytearray(ipv4_packet("10.0.0.1", "10.0.0.2"))
    bad[0] = 0x65  # claims version 6 inside an 0x0800 frame
    data = pcap_header() + pcap_record(eth_frame(bytes(bad)))
    _, stats = parse_all(data)
    assert stats.skipped_malformed == 1


def test_incl_len_larger_than_orig_len_is_malformed():
    frame = eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2"))
    data = pcap_header() + pcap_record(frame, orig=len(frame) - 1) + pcap_record(
        eth_frame(ipv4_packet("10.0.0.3", "10.0.0.4"))
    )
    records, stats = parse_all(data)
    assert stats.skipped_malformed == 1
    assert stats.valid_ip_packets == 1
    assert records[0].src_ip == ip4("10.0.0.3")


def test_empty_record_body_is_malformed():
    data = pcap_header() + pcap_record(b"")
    _, stats = parse_all(data)
    assert stats.total_records == 1
    assert stats.skipped_malformed == 1


def test_truncated_vlan_stack_is_malformed():
    # Frame ends in the middle of the VLAN tag chain.
    frame = eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2"), vlans=1)[:14]
    data = pcap_header() + pcap_record(frame)
    _, stats = parse_all(data)
    assert stats.skipped_malformed == 1


def test_raw_ip_unknown_version_nibble_is_non_ip():
    data = pcap_header(linktype=101) + pcap_record(b"\x20" + b"\x00" * 39)
    _, stats = parse_all(data)
    assert stats.skipped_non_ip == 1


class _BoundedReader(io.BytesIO):
    """Stream that records the largest single read request."""

    max_request = 0

    def read(self, n=-1):
        assert n is not None and n >= 0, "parser must never read unbounded"
        _BoundedReader.max_request = max(_BoundedReader.max_request, n)
        return super().read(n)

    def readinto(self, b):
        _BoundedReader.max_request = max(_BoundedReader.max_request, len(b))
        return super().readinto(b)


def test_oversized_record_is_read_in_bounded_chunks():
    big = eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"z" * 3 * READ_CHUNK))
    data = pcap_header() + pcap_record(big) + pcap_record(
        eth_frame(ipv4_packet("10.0.0.3", "10.0.0.4"))
    )
    _BoundedReader.max_request = 0
    batches, stats = parse_pcap(_BoundedReader(data))
    list(batches)
    # Fixed, whatever the record's incl_len.
    assert 0 < _BoundedReader.max_request <= READ_CHUNK
    assert stats.valid_ip_packets == 2


def test_oversized_record_cut_mid_drain_sets_truncated_tail():
    big = eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"z" * 200_000))
    data = pcap_header() + pcap_record(big)
    records, stats = parse_all(data[:-10])
    assert records == []
    assert stats.truncated_tail is True


def test_records_are_lazy_but_stats_live():
    data = eth_ipv4_capture(THREE_PAIRS)
    batches, stats = parse_pcap(io.BytesIO(data))
    assert stats.total_records == 0  # nothing consumed yet
    next(batches)
    assert stats.total_records >= 1  # stats advance one batch at a time
    list(batches)
    assert stats.total_records == 3


def test_kept_batches_are_copies_that_later_reads_leave_alone():
    rng = random.Random(6)
    out = bytearray(pcap_header())
    for i in range(8000):
        if rng.random() < 0.3:
            frame = eth_frame(ipv6_packet(f"fd00::{rng.randrange(1 << 16):x}",
                                          f"fd00::{rng.randrange(1 << 16):x}"), ethertype=0x86DD)
        else:
            frame = eth_frame(ipv4_packet(f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
                                          f"10.1.{rng.randrange(256)}.{rng.randrange(256)}",
                                          b"x" * rng.randrange(300)))
        out += pcap_record(frame, ts_sec=i, ts_frac=rng.randrange(1_000_000))
    kept = [(b, copy.deepcopy(b)) for b in parse_pcap(io.BytesIO(bytes(out)))[0]]
    assert len(kept) >= 3
    for b, at_yield in kept:
        n = len(b.timestamp_us)
        assert (b.timestamp_us.dtype, b.ip_version.dtype) == (np.int64, np.uint8)
        assert b.src_ip.dtype == b.dst_ip.dtype == np.uint8
        assert b.ip_version.shape == (n,) and b.src_ip.shape == b.dst_ip.shape == (n, 16)
        for column, copied in zip(b, at_yield):
            assert np.array_equal(column, copied)


def test_struct_layout_matches_wireshark_reference_decode():
    """The 3-packet example, validated field-by-field against the classic
    libpcap layout (offsets hand-checked once against a reference decoder)."""
    data = eth_ipv4_capture(THREE_PAIRS)
    # Global header: magic then version 2.4.
    assert data[:4] == b"\xd4\xc3\xb2\xa1"
    assert struct.unpack_from("<HH", data, 4) == (2, 4)
    # First record: header at 24, frame at 40, IP src at 40+14+12.
    incl = struct.unpack_from("<I", data, 32)[0]
    assert data[66:70] == ip4("10.0.0.1") and data[70:74] == ip4("10.0.0.2")
    assert incl == len(eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"x" * 10)))


# --- batch sizes ---

def batch_sizes(data: bytes) -> list[int]:
    """The number of records, whatever their kind, in each batch of ``data``."""
    batches, stats = parse_pcap(io.BytesIO(data))
    sizes, seen = [], 0
    for _ in batches:
        sizes.append(stats.total_records - seen)
        seen = stats.total_records
    return sizes


def ipv4_records(record_lens) -> bytes:
    """A capture of valid Ethernet/IPv4 records of the given lengths, each
    header included (at least 50 bytes)."""
    out = bytearray(pcap_header())
    for n in record_lens:
        out += pcap_record(eth_frame(ipv4_packet("10.0.0.1", "10.0.0.2", b"x" * (n - 50))))
    return bytes(out)


def test_sparse_capture_fills_each_batch_to_the_record_floor_or_the_buffer():
    rng = random.Random(3)
    # Records of 129-400 bytes reach BATCH_RECORDS before the buffer fills;
    # records of 600-1500 bytes fill it first.
    lens = ([rng.randrange(129, 400) for _ in range(5000)]
            + [rng.randrange(600, 1500) for _ in range(3000)])
    sizes = batch_sizes(ipv4_records(lens))
    assert sum(sizes) == len(lens)
    done = 0
    for n in sizes[:-1]:
        batch_bytes = sum(lens[done : done + n])
        if n < BATCH_RECORDS:  # then the buffer had no room for another read
            assert batch_bytes >= BATCH_BYTES - READ_CHUNK, n
        done += n
    assert min(sizes[:-1]) < BATCH_RECORDS <= max(sizes)  # both ways to end a batch
    assert len(sizes) < sum(lens) // READ_CHUNK  # far fewer than one per read


def test_dense_capture_keeps_one_batch_per_read():
    rng = random.Random(4)
    lens = [rng.randrange(50, 128) for _ in range(30_000)]
    record_ends = itertools.accumulate(lens)  # from the first record's start
    per_read = collections.Counter((end - 1) // READ_CHUNK for end in record_ends)
    assert batch_sizes(ipv4_records(lens)) == [per_read[i] for i in sorted(per_read)]


def test_a_batch_that_reaches_the_record_floor_in_one_read_takes_no_other():
    lens = [128] * (2 * BATCH_RECORDS)
    assert sum(lens) == 2 * READ_CHUNK  # each read ends BATCH_RECORDS records
    assert batch_sizes(ipv4_records(lens)) == [BATCH_RECORDS, BATCH_RECORDS]


def test_a_batch_after_the_longest_carried_record_start_fills_the_buffer():
    # The first batch's reads end inside a record 1 byte short of one that
    # would be drained, so the second batch starts with that many carried
    # bytes and its four reads fill the buffer to 1 byte short of its end.
    carried = RECORD_HEADER_LEN + MAX_RECORD_BUFFER - 1
    lens = [600] * ((BATCH_BYTES - carried) // 600 - 1)
    lens.append(BATCH_BYTES - carried - sum(lens))
    first = len(lens)
    lens += [carried + 1000] + [600] * (BATCH_BYTES // 600 + 10)
    sizes = batch_sizes(ipv4_records(lens))
    assert sizes[0] == first and sum(sizes) == len(lens)
    assert sum(lens[first : first + sizes[1]]) > carried + BATCH_BYTES - 600


def test_a_record_with_all_its_parsed_bytes_in_hand_closes_the_batch():
    # The first batch's reads end just past the bytes parsed of a record, so
    # that record is parsed with the first batch, and the rest is drained.
    in_hand = RECORD_HEADER_LEN + MAX_RECORD_BUFFER
    lens = [600] * ((BATCH_BYTES - in_hand) // 600 - 1)
    lens.append(BATCH_BYTES - in_hand - sum(lens))
    first = len(lens)
    lens += [in_hand + 1000] + [600] * 100
    sizes = batch_sizes(ipv4_records(lens))
    assert sizes[0] == first + 1 and sum(sizes) == len(lens)


def test_batch_of_empty_records_stays_within_its_memory_bound():
    # 2047 records end inside the first read and one is cut by its edge, so
    # the batch takes a second read of nothing but 16-byte records.
    lens = [128] * 2046 + [240]
    assert sum(lens) + 16 == READ_CHUNK
    data = (ipv4_records(lens) + pcap_record(b"x" * 16)
            + pcap_record(b"") * (2 * READ_CHUNK // RECORD_HEADER_LEN))
    sizes = batch_sizes(data)
    assert max(sizes) == READ_CHUNK // RECORD_HEADER_LEN + BATCH_RECORDS - 1
