"""Synthetic traffic generator: determinism, well-formedness, ground truth."""

import io
import socket
import struct

import pytest

from tmsensor.errors import InvalidSynthSpec
from tmsensor.pcap import parse_pcap
from tmsensor.synth import (
    SynthSpec,
    read_ground_truth,
    synthesize,
    write_ground_truth,
)

from conftest import records_of

SMALL = SynthSpec(host_count=16, packet_count=1500, seed=42,
                  payload_len_range=(20, 80))


def run(spec):
    buf = io.BytesIO()
    truth = synthesize(spec, buf)
    return buf.getvalue(), truth


def test_same_seed_gives_byte_identical_output():
    data1, truth1 = run(SMALL)
    data2, truth2 = run(SMALL)
    assert data1 == data2
    assert truth1 == truth2


def test_different_seeds_differ():
    data1, _ = run(SMALL)
    data2, _ = run(SynthSpec(host_count=16, packet_count=1500, seed=43,
                             payload_len_range=(20, 80)))
    assert data1 != data2


def test_zero_packets_is_header_only_pcap():
    data, truth = run(SynthSpec(host_count=4, packet_count=0, seed=1))
    assert len(data) == 24
    assert truth == {}
    batches, stats = parse_pcap(io.BytesIO(data))
    assert records_of(batches) == []
    assert stats.truncated_tail is False


def test_output_parses_with_counts_matching_ground_truth():
    data, truth = run(SMALL)
    batches, stats = parse_pcap(io.BytesIO(data))
    observed: dict = {}
    for r in records_of(batches):
        pair = (socket.inet_ntoa(r.src_ip), socket.inet_ntoa(r.dst_ip))
        observed[pair] = observed.get(pair, 0) + 1
    assert stats.total_records == SMALL.packet_count
    assert stats.valid_ip_packets == SMALL.packet_count
    assert stats.skipped_malformed == 0
    assert stats.skipped_non_ip == 0
    assert observed == truth


def test_ground_truth_mass_equals_packet_count():
    _, truth = run(SMALL)
    assert sum(truth.values()) == SMALL.packet_count


def test_src_never_equals_dst():
    _, truth = run(SynthSpec(host_count=2, packet_count=400, seed=3))
    assert all(src != dst for src, dst in truth)


def test_hosts_are_distinct_and_inside_slash16():
    _, truth = run(SynthSpec(host_count=200, packet_count=3000, seed=9))
    hosts = {h for pair in truth for h in pair}
    assert len(hosts) <= 200
    assert all(h.startswith("10.0.") for h in hosts)


def test_timestamps_are_nondecreasing_cumulative_sums():
    data, _ = run(SynthSpec(host_count=8, packet_count=300, seed=5,
                            start_time_us=1_700_000_000_000_000))
    batches, _ = parse_pcap(io.BytesIO(data))
    times = [r.timestamp_us for r in records_of(batches)]
    assert times == sorted(times)
    assert times[0] >= 1_700_000_000_000_000


def test_payload_lengths_respect_range():
    spec = SynthSpec(host_count=8, packet_count=500, seed=6,
                     payload_len_range=(40, 44))
    data, _ = run(spec)
    pos = 24
    while pos < len(data):
        incl = struct.unpack_from("<I", data, pos + 8)[0]
        payload = incl - 14 - 20 - 8  # eth + ipv4 + udp
        assert 40 <= payload <= 44
        pos += 16 + incl


def test_ipv4_checksums_verify():
    """One's-complement sum over each emitted IP header must be 0xFFFF."""
    data, _ = run(SynthSpec(host_count=8, packet_count=64, seed=7))
    pos = 24
    checked = 0
    while pos < len(data):
        incl = struct.unpack_from("<I", data, pos + 8)[0]
        header = data[pos + 16 + 14 : pos + 16 + 14 + 20]
        total = sum(struct.unpack(">10H", header))
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF
        pos += 16 + incl
        checked += 1
    assert checked == 64


def test_udp_headers_are_consistent():
    data, _ = run(SynthSpec(host_count=8, packet_count=32, seed=8,
                            payload_len_range=(10, 10)))
    pos = 24
    while pos < len(data):
        incl = struct.unpack_from("<I", data, pos + 8)[0]
        udp = data[pos + 16 + 34 : pos + 16 + 42]
        sport, dport, length, cksum = struct.unpack(">HHHH", udp)
        assert (sport, dport) == (40000, 40001)
        assert length == 8 + 10
        assert cksum == 0  # legal for IPv4
        pos += 16 + incl


def test_ground_truth_file_round_trip():
    _, truth = run(SMALL)
    out = io.StringIO()
    write_ground_truth(truth, out)
    text = out.getvalue()
    assert text.endswith(f"total {SMALL.packet_count}\n")
    counts, total = read_ground_truth(io.StringIO(text))
    assert counts == truth
    assert total == SMALL.packet_count


def test_ground_truth_file_is_sorted_by_address():
    _, truth = run(SynthSpec(host_count=64, packet_count=2000, seed=10))
    out = io.StringIO()
    write_ground_truth(truth, out)
    lines = out.getvalue().splitlines()[:-1]
    keys = [
        tuple(tuple(int(b) for b in ip.split(".")) for ip in line.split()[:2])
        for line in lines
    ]
    assert keys == sorted(keys)


def test_ground_truth_without_total_line_rejected():
    with pytest.raises(ValueError):
        read_ground_truth(io.StringIO("10.0.0.1 10.0.0.2 5\n"))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(host_count=1),
        dict(host_count=1 << 17),
        dict(packet_count=-1),
        dict(zipf_exponent=0.0),
        dict(zipf_exponent=-1.0),
        dict(payload_len_range=(100, 50)),
        dict(payload_len_range=(-1, 50)),
        dict(payload_len_range=(0, 70_000)),
        dict(seed=-1),
        dict(start_time_us=-5),
        dict(start_time_us=5_000_000_000_000_000),
        dict(start_time_us=1_000_000 << 32),  # the first second PCAP cannot hold
        dict(mean_interarrival_us=0.0),
        dict(mean_interarrival_us=1e300),
        dict(mean_interarrival_us=float("inf")),
        dict(mean_interarrival_us=float("nan")),
        dict(host_count=3, zipf_exponent=1e9),
        dict(host_count=2, zipf_exponent=7.0),  # the busiest host draws > 99 %
        dict(zipf_exponent=float("inf")),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(InvalidSynthSpec):
        SynthSpec(**kwargs).validate()


def test_timestamps_past_pcap_seconds_rejected_before_writing():
    spec = SynthSpec(packet_count=100, start_time_us=(1_000_000 << 32) - 10_000, seed=3)
    spec.validate()
    sink = io.BytesIO()
    with pytest.raises(InvalidSynthSpec, match="32-bit seconds"):
        synthesize(spec, sink)
    assert sink.getvalue() == b""


def test_last_pcap_second_and_top_host_share_bound_are_accepted():
    last = (1_000_000 << 32) - 1
    data, truth = run(SynthSpec(packet_count=1, start_time_us=last,
                                mean_interarrival_us=1e-9))
    (packet,) = records_of(parse_pcap(io.BytesIO(data))[0])
    assert packet.timestamp_us == last
    _, truth = run(SynthSpec(host_count=2, packet_count=2000, zipf_exponent=6.6))
    assert sum(truth.values()) == 2000


def test_zipf_skew_concentrates_traffic():
    """Higher exponent → the busiest host owns a larger traffic share."""

    def top_share(exponent):
        _, truth = run(SynthSpec(host_count=64, packet_count=8000, seed=77,
                                 zipf_exponent=exponent))
        by_src: dict = {}
        for (src, _), n in truth.items():
            by_src[src] = by_src.get(src, 0) + n
        return max(by_src.values()) / 8000

    assert top_share(2.0) > top_share(0.2)
