"""Synthetic exercise-style traffic with exact ground truth.

Generates deterministic Ethernet/IPv4/UDP captures whose per-pair packet
counts are known exactly, for end-to-end testing of the whole pipeline.
Host popularity follows a truncated Zipf law (probability of rank k
proportional to k**-exponent), which concentrates traffic on a few hub
hosts the way emulated-user noise does and yields the sparse but
concentrated matrices the compression path is built for.

All randomness comes from numpy's PCG64 generator seeded with
``SynthSpec.seed``; for a fixed numpy version the byte output is identical
across runs and platforms. The sensor never looks past the IP header, so
payloads are uniform random bytes and no application behavior is emulated.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, TextIO

import numpy as np

from .errors import InvalidSynthSpec

_HOST_SPACE = 1 << 16  # hosts are distinct addresses in 10.0.0.0/16

UDP_SRC_PORT = 40000
UDP_DST_PORT = 40001

_PCAP_GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
_MAX_UDP_PAYLOAD = 65507  # fits the IPv4 total-length field
_TIME_LIMIT_US = 1_000_000 << 32  # past PCAP's 32-bit seconds field
# The busiest host's largest traffic share. A destination equal to its
# source is redrawn, and with this share a redraw clashes again in at most
# 99 of 100 tries, so the redraw loop ends after about 100 rounds per clash.
_MAX_TOP_SHARE = 0.99


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic workload."""

    host_count: int = 256
    packet_count: int = 200_000
    zipf_exponent: float = 1.2
    payload_len_range: tuple[int, int] = (64, 600)
    seed: int = 0
    start_time_us: int = 0
    mean_interarrival_us: float = 1000.0

    def validate(self) -> None:
        if not 2 <= self.host_count <= _HOST_SPACE:
            raise InvalidSynthSpec(
                f"host_count must be in [2, {_HOST_SPACE}], got {self.host_count}"
            )
        if self.packet_count < 0:
            raise InvalidSynthSpec("packet_count must be >= 0")
        if not self.zipf_exponent > 0:
            raise InvalidSynthSpec("zipf_exponent must be > 0")
        top_share = _zipf_weights(self.host_count, self.zipf_exponent)[0]
        if not top_share <= _MAX_TOP_SHARE:
            raise InvalidSynthSpec(
                f"zipf_exponent {self.zipf_exponent} gives the busiest host "
                f"{top_share:.4%} of the traffic; at most {_MAX_TOP_SHARE:.0%} is allowed"
            )
        lo, hi = self.payload_len_range
        if not 0 <= lo <= hi <= _MAX_UDP_PAYLOAD:
            raise InvalidSynthSpec(
                f"payload_len_range must satisfy 0 <= min <= max <= {_MAX_UDP_PAYLOAD}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise InvalidSynthSpec("seed must fit in 64 bits")
        if not 0 <= self.start_time_us < _TIME_LIMIT_US:
            raise InvalidSynthSpec(
                f"start_time_us must be in [0, {_TIME_LIMIT_US}), PCAP's 32-bit seconds")
        if not 0 < self.mean_interarrival_us < _TIME_LIMIT_US:
            raise InvalidSynthSpec(
                f"mean_interarrival_us must be > 0 and below {_TIME_LIMIT_US}")


def synthesize(spec: SynthSpec, sink: BinaryIO) -> dict[tuple[str, str], int]:
    """Write a synthetic PCAP to sink; returns exact (src, dst) pair counts.

    Deterministic given the seed. Host addresses are distinct picks from
    10.0.0.0/16; src and dst of each packet are Zipf-distributed with
    src != dst; timestamps are the running sum of exponential gaps. Raises
    InvalidSynthSpec before writing anything if the spec is invalid or the
    drawn timestamps run past PCAP's 32-bit seconds.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.packet_count

    offsets = rng.choice(_HOST_SPACE, size=spec.host_count, replace=False)
    host_ips = [bytes([10, 0, off >> 8, off & 0xFF]) for off in offsets]
    host_macs = [b"\x02\x00\x0a\x00" + ip[2:] for ip in host_ips]

    if n == 0:
        sink.write(_PCAP_GLOBAL_HEADER)
        return {}

    weights = _zipf_weights(spec.host_count, spec.zipf_exponent)
    src = rng.choice(spec.host_count, size=n, p=weights)
    dst = rng.choice(spec.host_count, size=n, p=weights)
    clash = src == dst
    while clash.any():
        dst[clash] = rng.choice(spec.host_count, size=int(clash.sum()), p=weights)
        clash = src == dst

    lo, hi = spec.payload_len_range
    payload_lens = rng.integers(lo, hi + 1, size=n)
    gaps = rng.exponential(spec.mean_interarrival_us, size=n)
    offsets_us = np.floor(np.cumsum(gaps))  # nondecreasing, so the last is the latest
    if not spec.start_time_us + offsets_us[-1] < _TIME_LIMIT_US:
        raise InvalidSynthSpec(
            f"packet timestamps run past PCAP's 32-bit seconds ({_TIME_LIMIT_US} us); "
            f"lower start_time_us, mean_interarrival_us or packet_count")
    timestamps = offsets_us.astype(np.uint64) + np.uint64(spec.start_time_us)
    payload_blob = rng.integers(0, 256, size=int(payload_lens.sum()), dtype=np.uint8
                                ).tobytes()

    sink.write(_PCAP_GLOBAL_HEADER)

    pack_record = struct.Struct("<IIII").pack
    pack_ipv4 = struct.Struct(">BBHHHBBH4s4s").pack
    pack_udp = struct.Struct(">HHHH").pack
    blob_pos = 0
    for i in range(n):
        s, d = src[i], dst[i]
        plen = int(payload_lens[i])
        payload = payload_blob[blob_pos : blob_pos + plen]
        blob_pos += plen

        ip_header = pack_ipv4(
            0x45, 0, 20 + 8 + plen, i & 0xFFFF, 0, 64, 17, 0, host_ips[s], host_ips[d]
        )
        checksum = _ipv4_checksum(ip_header)
        ip_header = ip_header[:10] + checksum.to_bytes(2, "big") + ip_header[12:]
        udp_header = pack_udp(UDP_SRC_PORT, UDP_DST_PORT, 8 + plen, 0)

        frame_len = 14 + 20 + 8 + plen
        ts = int(timestamps[i])
        sink.write(
            pack_record(ts // 1_000_000, ts % 1_000_000, frame_len, frame_len)
            + host_macs[d]
            + host_macs[s]
            + b"\x08\x00"
            + ip_header
            + udp_header
            + payload
        )

    pair_codes = src.astype(np.int64) * spec.host_count + dst.astype(np.int64)
    codes, counts = np.unique(pair_codes, return_counts=True)
    host_strs = [".".join(str(b) for b in ip) for ip in host_ips]
    return {
        (host_strs[code // spec.host_count], host_strs[code % spec.host_count]): int(c)
        for code, c in zip(codes, counts)
    }


def _zipf_weights(host_count: int, exponent: float) -> np.ndarray:
    """Each host rank's probability, the busiest first."""
    weights = np.arange(1, host_count + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    return weights


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, 20, 2):
        total += (header[i] << 8) | header[i + 1]
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ip_sort_key(dotted: str) -> tuple[int, ...]:
    return tuple(int(part) for part in dotted.split("."))


def write_ground_truth(counts: dict[tuple[str, str], int], sink: TextIO) -> None:
    """One `<src_ip> <dst_ip> <count>` line per pair (sorted by src then dst
    in address order), then a final `total <packet_count>` line."""
    total = 0
    for (src, dst), n in sorted(
        counts.items(), key=lambda kv: (_ip_sort_key(kv[0][0]), _ip_sort_key(kv[0][1]))
    ):
        sink.write(f"{src} {dst} {n}\n")
        total += n
    sink.write(f"total {total}\n")


def read_ground_truth(source: TextIO) -> tuple[dict[tuple[str, str], int], int]:
    """Inverse of write_ground_truth; returns (pair counts, declared total)."""
    counts: dict[tuple[str, str], int] = {}
    total = None
    for line in source:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "total":
            total = int(parts[1])
        else:
            src, dst, n = parts
            counts[(src, dst)] = int(n)
    if total is None:
        raise ValueError("ground truth file is missing its total line")
    return counts, total
