"""Sparse traffic matrices aggregated over fixed-size packet windows.

Each run of ``window_size`` consecutive valid IP packets becomes one matrix:
entry (src_id, dst_id) counts the packets sent from that anonymized source
to that anonymized destination within the window. The 64-bit pseudonyms are
used directly as sparse coordinates; no dense dimension or remapping table
exists (a remapping table would itself be a de-anonymization risk).

Matrices merge by element-wise sum. Merge is commutative and associative,
so a stream split at window boundaries can be aggregated in parallel and
reduced deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .anon import KEY_ID_LEN, AnonKey, anonymize_ip
from .errors import InvariantViolation, KeyMismatch, WindowSizeMismatch
from .pcap import PacketRecord

DEFAULT_WINDOW_SIZE = 1 << 17  # 131,072 packets

# Operational bounds enforced by the CLI and config; the library itself
# accepts any window_size >= 1.
MIN_WINDOW_SIZE = 1 << 10
MAX_WINDOW_SIZE = 1 << 24

# Pseudonyms memoized across windows; past this many the memo is dropped at
# the next window boundary, so its memory stays bounded on any capture.
_ID_MEMO_LIMIT = 1 << 17


@dataclass
class TrafficMatrix:
    """One window's sparse (source, destination) -> packet count matrix.

    ``packet_count`` exceeding ``window_size`` marks a merged (multi-window)
    matrix; builder output never exceeds it. Timestamps are the min/max
    packet times seen, both 0 for an empty matrix.
    """

    window_size: int
    packet_count: int
    start_time_us: int
    end_time_us: int
    key_id: bytes
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural invariants; raises InvariantViolation."""
        if self.window_size < 1:
            raise InvariantViolation("window_size must be >= 1")
        if len(self.key_id) != KEY_ID_LEN:
            raise InvariantViolation("key_id must be 8 bytes")
        total = 0
        for (row, col), count in self.entries.items():
            if count < 1:
                raise InvariantViolation(f"entry ({row},{col}) has count {count}")
            if not (0 <= row < 1 << 64 and 0 <= col < 1 << 64):
                raise InvariantViolation("coordinates must fit in 64 bits")
            total += count
        if total != self.packet_count:
            raise InvariantViolation(
                f"entry counts sum to {total}, packet_count says {self.packet_count}"
            )
        if self.packet_count == 0:
            if self.start_time_us != 0 or self.end_time_us != 0:
                raise InvariantViolation("empty matrix must have zero time range")
        elif self.start_time_us > self.end_time_us:
            raise InvariantViolation("start_time_us exceeds end_time_us")


def build_windows(
    packets: Iterable[PacketRecord], key: AnonKey, window_size: int = DEFAULT_WINDOW_SIZE
) -> Iterator[TrafficMatrix]:
    """Aggregate a packet stream into per-window traffic matrices.

    Packets are taken in stream order; every ``window_size`` of them closes
    a matrix. The trailing partial window is emitted too (interrupted
    captures are the common case), flagged simply by its smaller
    packet_count. Output is identical however the input iterable is chunked.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    key_id = key.key_id
    ids: dict[tuple[int, bytes], int] = {}

    entries: dict[tuple[int, int], int] = {}
    count = 0
    t_min = t_max = 0

    for pkt in packets:
        src_key = (pkt.ip_version, pkt.src_ip)
        sid = ids.get(src_key)
        if sid is None:
            sid = ids[src_key] = anonymize_ip(key, pkt.ip_version, pkt.src_ip)
        dst_key = (pkt.ip_version, pkt.dst_ip)
        did = ids.get(dst_key)
        if did is None:
            did = ids[dst_key] = anonymize_ip(key, pkt.ip_version, pkt.dst_ip)

        cell = (sid, did)
        entries[cell] = entries.get(cell, 0) + 1
        ts = pkt.timestamp_us
        if count == 0:
            t_min = t_max = ts
        elif ts < t_min:
            t_min = ts
        elif ts > t_max:
            t_max = ts
        count += 1

        if count == window_size:
            yield TrafficMatrix(window_size, count, t_min, t_max, key_id, entries)
            if len(ids) > _ID_MEMO_LIMIT:
                ids.clear()
            entries = {}
            count = 0
            t_min = t_max = 0

    if count:
        yield TrafficMatrix(window_size, count, t_min, t_max, key_id, entries)


def merge(first: TrafficMatrix, *rest: TrafficMatrix) -> TrafficMatrix:
    """Element-wise sum of matrices built under the same key and window size."""
    entries = dict(first.entries)
    packets = first.packet_count
    for m in rest:
        if m.key_id != first.key_id:
            raise KeyMismatch(
                f"cannot merge matrices from different keys "
                f"({first.key_id.hex()} vs {m.key_id.hex()})"
            )
        if m.window_size != first.window_size:
            raise WindowSizeMismatch(
                f"cannot merge window sizes {first.window_size} and {m.window_size}"
            )
        for cell, count in m.entries.items():
            entries[cell] = entries.get(cell, 0) + count
        packets += m.packet_count

    nonempty = [m for m in (first, *rest) if m.packet_count]
    start = min((m.start_time_us for m in nonempty), default=0)
    end = max((m.end_time_us for m in nonempty), default=0)
    return TrafficMatrix(first.window_size, packets, start, end, first.key_id, entries)
