"""Shared fixtures and independent byte-level builders.

The PCAP/frame builders here are written from the file-format layouts
directly (struct only, no package code) so tests exercise the parser
against independently constructed bytes.
"""

import contextlib
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from tmsensor import cli
from tmsensor.anon import AnonKey
from tmsensor.matrix import TrafficMatrix
from tmsensor.pcap import PacketBatch

US_PER_SEC = 1_000_000

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Appended to the code run_python runs: its peak RSS in KiB, as its last line.
_PRINT_VMHWM = """
with open("/proc/self/status") as _status:
    print(next(line.split()[1] for line in _status if line.startswith("VmHWM:")))
"""


def run_python(code: str, *args: str, timeout: float = 120) -> tuple[str, float]:
    """Run ``code`` with ``args`` in a fresh interpreter that imports tmsensor
    from this checkout's ``src``; return its stdout and its peak RSS in MB.

    The peak is ``VmHWM``, which the child reads as it ends. ``ru_maxrss``
    would not do: Linux carries it across exec, so a child would report at
    least the peak of the pytest process that started it.
    """
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _PRINT_VMHWM, *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    out, _, peak_kb = proc.stdout.rstrip("\n").rpartition("\n")
    return out, int(peak_kb) / 1024


def ip4(dotted: str) -> bytes:
    return socket.inet_aton(dotted)


def ip6(text: str) -> bytes:
    return socket.inet_pton(socket.AF_INET6, text)


def pcap_header(endian: str = "<", nanos: bool = False, linktype: int = 1) -> bytes:
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def pcap_record(
    data: bytes,
    ts_sec: int = 0,
    ts_frac: int = 0,
    endian: str = "<",
    incl: int = None,
    orig: int = None,
) -> bytes:
    if incl is None:
        incl = len(data)
    if orig is None:
        orig = len(data)
    return struct.pack(endian + "IIII", ts_sec, ts_frac, incl, orig) + data


def ipv4_packet(src: str, dst: str, payload: bytes = b"", proto: int = 17) -> bytes:
    total_len = min(20 + len(payload), 0xFFFF)  # clamped for jumbo test frames
    return struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total_len, 0, 0, 64, proto, 0, ip4(src), ip4(dst),
    ) + payload


def ipv6_packet(src: str, dst: str, payload: bytes = b"") -> bytes:
    return struct.pack(
        ">IHBB16s16s", 0x60000000, len(payload), 59, 64, ip6(src), ip6(dst)
    ) + payload


def eth_frame(payload: bytes, ethertype: int = 0x0800, vlans: int = 0) -> bytes:
    frame = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02"
    for _ in range(vlans):
        frame += struct.pack(">HH", 0x8100, 1)
    return frame + struct.pack(">H", ethertype) + payload


def sll_frame(payload: bytes, ethertype: int = 0x0800) -> bytes:
    # Linux cooked v1: packet type, ARPHRD, addr len, 8 addr bytes, protocol.
    return struct.pack(">HHH8sH", 0, 1, 6, b"\x02" * 8, ethertype) + payload


def eth_ipv4_capture(pairs, ts_us=None, endian: str = "<") -> bytes:
    """Capture with one Ethernet/IPv4 record per (src, dst) pair."""
    out = bytearray(pcap_header(endian=endian))
    for i, (src, dst) in enumerate(pairs):
        ts = ts_us[i] if ts_us is not None else i * US_PER_SEC
        out += pcap_record(
            eth_frame(ipv4_packet(src, dst, b"x" * 10)),
            ts_sec=ts // US_PER_SEC,
            ts_frac=ts % US_PER_SEC,
            endian=endian,
        )
    return bytes(out)


class Packet(NamedTuple):
    """One packet as tests write and compare it."""

    timestamp_us: int
    ip_version: int  # 4 or 6
    src_ip: bytes  # 4 bytes for v4, 16 for v6
    dst_ip: bytes


def batch(packets) -> PacketBatch:
    """(timestamp_us, ip_version, src_ip, dst_ip) tuples as one PacketBatch,
    each address zero-padded to its 16-byte row."""
    packets = list(packets)
    ts, versions, srcs, dsts = zip(*packets) if packets else ((), (), (), ())

    def rows(addrs):
        data = b"".join(bytes(a).ljust(16, b"\x00") for a in addrs)
        return np.frombuffer(data, np.uint8).reshape(-1, 16)

    return PacketBatch(np.array(ts, np.int64), np.array(versions, np.uint8),
                       rows(srcs), rows(dsts))


def records_of(batches) -> list[Packet]:
    """The packets of PacketBatches in stream order, one Packet each."""
    out = []
    for b in batches:
        for ts, version, src, dst in zip(b.timestamp_us.tolist(), b.ip_version.tolist(),
                                         b.src_ip, b.dst_ip):
            n = 4 if version == 4 else 16
            out.append(Packet(ts, version, src[:n].tobytes(), dst[:n].tobytes()))
    return out


def random_entries(rng: random.Random, max_entries: int = 60):
    n = rng.randrange(max_entries + 1)
    entries = {}
    while len(entries) < n:
        cell = (rng.randrange(1 << 64), rng.randrange(1 << 64))
        entries[cell] = rng.randrange(1, 1000)
    return entries


def random_matrix(
    rng: random.Random,
    key_id: bytes = b"\x01" * 8,
    window_size: int = 1 << 12,
    max_entries: int = 60,
) -> TrafficMatrix:
    entries = random_entries(rng, max_entries)
    packet_count = sum(entries.values())
    if packet_count:
        start = rng.randrange(1 << 40)
        end = start + rng.randrange(1 << 20)
    else:
        start = end = 0
    return TrafficMatrix.from_entries(window_size, packet_count, start, end, key_id,
                                      entries)


def cells(m: TrafficMatrix) -> dict:
    """A matrix's cells as a {(row, col): count} dict, read from its arrays."""
    return dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.counts.tolist()))


@pytest.fixture
def fixed_key() -> AnonKey:
    return AnonKey(bytes(range(32)))


@pytest.fixture
def zero_key() -> AnonKey:
    return AnonKey(bytes(32))


@pytest.fixture
def old_mtime():
    """Backdate a file so watch-mode quiescence checks see it as idle."""

    def _age(path, seconds=7200):
        then = time.time() - seconds
        import os

        os.utime(path, (then, then))

    return _age


@contextlib.contextmanager
def time_bound(secs: float, what: str):
    """Fail the test if the ``with`` body runs past ``secs``. The bound is a
    SIGALRM timer, so the body must run in the main thread."""
    def expire(signum, frame):
        pytest.fail(f"{what} still running after {secs} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, secs)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# A test's watch_loop converts a few small captures in well under a second.
WATCH_BOUND_SECS = 15


@pytest.fixture
def bounded_watch(monkeypatch):
    """Fail a test whose ``cli.watch_loop`` runs past WATCH_BOUND_SECS, so a
    fault that keeps a ``--once`` loop polling fails fast instead of hanging
    the suite."""
    real = cli.watch_loop

    def watch_loop(*args, **kwargs):
        with time_bound(WATCH_BOUND_SECS, "watch_loop"):
            return real(*args, **kwargs)

    monkeypatch.setattr(cli, "watch_loop", watch_loop)


# The slowest parser test takes about 3 s.
PARSER_BOUND_SECS = 20


@pytest.fixture
def bounded_parse(request):
    """Fail a test that runs past PARSER_BOUND_SECS, so a parser fault that
    spins instead of reading on fails fast instead of hanging the suite."""
    with time_bound(PARSER_BOUND_SECS, request.node.name):
        yield
