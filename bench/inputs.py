"""Seeded benchmark inputs, written with numpy and the stdlib only.

Nothing here imports ``tmsensor``: the captures and the key file are
built from the README's format descriptions, so a change to the program
(``synth`` included) never changes a workload.

Every generator returns the packet-order arrays it wrote (source and
destination IPv4 addresses as ``uint32``, timestamps in microseconds as
``uint64``) so the oracle can compute the expected matrices without
parsing anything the program produced.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

# Workload shapes. The packet counts are fixed, so every seed produces the
# same amount of work; the seed only changes which hosts talk and when.
SPOOL_CAPTURES = 4
SPOOL_PACKETS = 100_000
SPOOL_HOSTS = 256
SPOOL_ZIPF = 1.2
SPOOL_PAYLOAD = (64, 600)
SPOOL_WINDOW = 131_072  # the config default; the watch config does not set it

HICARD_PACKETS = 131_072
HICARD_HOSTS = 65_536
HICARD_ZIPF = 0.3
HICARD_PAYLOAD = (0, 16)
HICARD_WINDOW = 1024

ANALYZE_FILES = 4
ANALYZE_WINDOWS_PER_FILE = 40
ANALYZE_HOSTS = 5000
ANALYZE_ZIPF = 1.0
ANALYZE_PAYLOAD = (64, 600)  # only sizes the nominal capture behind the windows
ANALYZE_WINDOW = 1024

MEAN_GAP_US = 1000.0
# All captures of one seed fall into the same epoch hour (2025-10-09 08:00 UTC),
# as a capture service rotating files every few minutes would produce.
BASE_TIME_US = 1_759_996_800 * 1_000_000
CAPTURE_SPACING_US = 200 * 1_000_000

# Tags keep the random streams of different workloads and files apart.
_TAG = {"spool": 1, "hicard": 2, "analyze": 3}

# PCAP record header plus the Ethernet/IPv4/UDP headers, as one record type.
# MAC addresses are 02:00 followed by the host's IPv4 address, as in a lab
# network with locally administered addresses.
_FRAME = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
    ("dst_mac_hi", ">u2"), ("dst_mac_lo", ">u4"),
    ("src_mac_hi", ">u2"), ("src_mac_lo", ">u4"),
    ("ethertype", ">u2"),
    ("ver_ihl", "u1"), ("tos", "u1"), ("ip_len", ">u2"), ("ip_id", ">u2"),
    ("frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("ip_csum", ">u2"),
    ("src", ">u4"), ("dst", ">u4"),
    ("sport", ">u2"), ("dport", ">u2"), ("udp_len", ">u2"), ("udp_csum", ">u2"),
])
assert _FRAME.itemsize == 16 + 14 + 20 + 8
_FRAME_OVERHEAD = _FRAME.itemsize - 16  # link + network + transport headers
_PCAP_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


@dataclass
class Packets:
    """Packet-order arrays of one capture (or of one analyze file)."""

    src: np.ndarray  # uint32 IPv4 address
    dst: np.ndarray
    ts_us: np.ndarray  # uint64
    payload_len: np.ndarray  # int64

    def capture_bytes(self) -> int:
        """Size of the classic PCAP that holds exactly these packets."""
        return len(_PCAP_HEADER) + int(
            (16 + _FRAME_OVERHEAD + self.payload_len).sum()
        )


def rng_for(workload: str, seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _TAG[workload], index])


def key_bytes(seed: int) -> bytes:
    """The 32-byte anonymization key a run uses, derived from its seed."""
    return hashlib.sha256(b"tmsensor-bench-key %d" % seed).digest()


def write_key_file(path: str, key: bytes) -> None:
    # README: magic ANK1, version byte 1, three zero bytes, 32 key bytes.
    write_atomic(path, b"ANK1" + bytes([1, 0, 0, 0]) + key)


def host_pool(rng: np.random.Generator, count: int) -> np.ndarray:
    """Distinct host addresses drawn from 10.0.0.0/8."""
    offsets = rng.choice(1 << 24, size=count, replace=False)
    return (np.uint32(10 << 24) | offsets.astype(np.uint32)).astype(np.uint32)


def zipf_packets(
    rng: np.random.Generator,
    hosts: np.ndarray,
    count: int,
    exponent: float,
    payload: tuple[int, int],
    start_us: int,
) -> Packets:
    """Zipf-distributed (src, dst) pairs with src != dst, exponential gaps."""
    weights = np.arange(1, len(hosts) + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    src = rng.choice(len(hosts), size=count, p=weights)
    dst = rng.choice(len(hosts), size=count, p=weights)
    clash = src == dst
    while clash.any():
        dst[clash] = rng.choice(len(hosts), size=int(clash.sum()), p=weights)
        clash = src == dst
    gaps = rng.exponential(MEAN_GAP_US, size=count)
    ts = np.floor(np.cumsum(gaps)).astype(np.uint64) + np.uint64(start_us)
    lens = rng.integers(payload[0], payload[1] + 1, size=count).astype(np.int64)
    return Packets(hosts[src], hosts[dst], ts, lens)


def write_pcap(path: str, pk: Packets, rng: np.random.Generator) -> None:
    """Write an Ethernet/IPv4/UDP classic PCAP (microsecond timestamps)."""
    n = len(pk.src)
    frame_len = (_FRAME_OVERHEAD + pk.payload_len).astype(np.uint32)
    record_len = 16 + frame_len.astype(np.int64)
    offsets = len(_PCAP_HEADER) + np.concatenate(([0], np.cumsum(record_len)[:-1]))
    total = len(_PCAP_HEADER) + int(record_len.sum())

    # Payload bytes are random; the headers are written over them below.
    buf = np.frombuffer(bytearray(rng.bytes(total)), dtype=np.uint8)
    buf[: len(_PCAP_HEADER)] = np.frombuffer(_PCAP_HEADER, dtype=np.uint8)

    h = np.zeros(n, dtype=_FRAME)
    h["ts_sec"] = pk.ts_us // np.uint64(1_000_000)
    h["ts_usec"] = pk.ts_us % np.uint64(1_000_000)
    h["incl_len"] = frame_len
    h["orig_len"] = frame_len
    h["dst_mac_hi"] = h["src_mac_hi"] = 0x0200
    h["dst_mac_lo"] = pk.dst
    h["src_mac_lo"] = pk.src
    h["ethertype"] = 0x0800
    h["ver_ihl"] = 0x45
    h["ip_len"] = frame_len - 14
    h["ip_id"] = np.arange(n, dtype=np.uint32) & 0xFFFF
    h["ttl"] = 64
    h["proto"] = 17
    h["src"] = pk.src
    h["dst"] = pk.dst
    h["sport"] = 40000
    h["dport"] = 40001
    h["udp_len"] = frame_len - 34
    h["ip_csum"] = _ipv4_checksum(h)

    rows = h.view(np.uint8).reshape(n, _FRAME.itemsize)
    buf[offsets[:, None] + np.arange(_FRAME.itemsize)] = rows
    write_atomic(path, buf.tobytes())


def _ipv4_checksum(h: np.ndarray) -> np.ndarray:
    words = (
        (h["ver_ihl"].astype(np.int64) << 8) + h["tos"]
        + h["ip_len"] + h["ip_id"] + h["frag"]
        + (h["ttl"].astype(np.int64) << 8) + h["proto"]
        + (h["src"] >> 16) + (h["src"] & 0xFFFF)
        + (h["dst"] >> 16) + (h["dst"] & 0xFFFF)
    ).astype(np.int64)
    words = (words & 0xFFFF) + (words >> 16)
    words = (words & 0xFFFF) + (words >> 16)
    return (~words & 0xFFFF).astype(np.uint16)


def write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)
