"""Sparse traffic matrices aggregated over fixed-size packet windows.

Each run of ``window_size`` consecutive valid IP packets becomes one matrix:
entry (src_id, dst_id) counts the packets sent from that anonymized source
to that anonymized destination within the window. The 64-bit pseudonyms are
used directly as sparse coordinates; no dense dimension or remapping table
exists (a remapping table would itself be a de-anonymization risk).

A matrix holds coordinate (COO) arrays ``rows``, ``cols`` and ``counts``
(``uint64``), strictly ordered by (row, col); every stage works on them whole.

Matrices merge by element-wise sum. Merge is commutative and associative,
so a stream split at window boundaries can be aggregated in parallel and
reduced deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

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


@dataclass(eq=False)
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
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_entries(cls, window_size: int, packet_count: int, start_time_us: int,
                     end_time_us: int, key_id: bytes, entries: Mapping):
        """Build a matrix from a {(row, col): count} mapping in any order."""
        try:
            cells = np.fromiter(itertools.chain.from_iterable(entries), np.uint64,
                                2 * len(entries))
            counts = np.fromiter(entries.values(), np.uint64, len(entries))
        except OverflowError:
            raise InvariantViolation(
                "coordinates and counts must fit in 64 bits") from None
        rows, cols = cells[0::2], cells[1::2]
        order = np.lexsort((cols, rows))
        return cls(window_size, packet_count, start_time_us, end_time_us, key_id,
                   rows[order], cols[order], counts[order])

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The cells as a {(row, col): count} dict, built on each access."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.counts.tolist()))

    def __eq__(self, other: object) -> bool:
        return type(other) is TrafficMatrix and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values()))

    def validate(self) -> None:
        """Check structural invariants; raises InvariantViolation."""
        if self.window_size < 1:
            raise InvariantViolation("window_size must be >= 1")
        if len(self.key_id) != KEY_ID_LEN:
            raise InvariantViolation("key_id must be 8 bytes")
        rows, cols, counts = self.rows, self.cols, self.counts
        increasing = (rows[1:] > rows[:-1]) | (
            (rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
        if not increasing.all():
            raise InvariantViolation("entries are not strictly increasing")
        if not counts.all():
            i = np.argmin(counts)  # the first zero
            raise InvariantViolation(f"entry ({rows[i]},{cols[i]}) has count 0")
        running = np.cumsum(counts)  # counts >= 1, so a wrap past 2**64 shows as a drop
        total = int(running.max(initial=0))
        if np.any(running[1:] < running[:-1]) or total != self.packet_count:
            raise InvariantViolation(f"entry counts sum to {sum(counts.tolist())}, "
                                     f"packet_count says {self.packet_count}")
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
    packet_count. Cells are counted in a dict until the window closes into
    sorted arrays. Output is identical however the input is chunked.
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
            m = TrafficMatrix.from_entries(window_size, count, t_min, t_max, key_id,
                                           entries)
            entries = {}  # so the dict and the arrays are not both held downstream
            yield m
            if len(ids) > _ID_MEMO_LIMIT:
                ids.clear()
            count = 0
            t_min = t_max = 0

    if count:
        m = TrafficMatrix.from_entries(window_size, count, t_min, t_max, key_id, entries)
        del entries
        yield m


def merge(first: TrafficMatrix, *rest: TrafficMatrix) -> TrafficMatrix:
    """Element-wise sum of matrices built under the same key and window size.

    The summed packet_count must fit the file's 64-bit field. The counts of
    each valid input sum to its packet_count, so no merged cell can wrap.
    """
    ms = (first, *rest)
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
    packets = sum(m.packet_count for m in ms)
    if packets >> 64:
        raise InvariantViolation(f"merged packet_count {packets} does not fit in 64 bits")

    rows, cols, counts = (np.concatenate([getattr(m, name) for m in ms])
                          for name in ("rows", "cols", "counts"))
    order = np.lexsort((cols, rows))
    rows, cols, counts = rows[order], cols[order], counts[order]
    first_of_cell = np.ones(len(rows), bool)
    first_of_cell[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first_of_cell)

    nonempty = [m for m in ms if m.packet_count]
    start = min((m.start_time_us for m in nonempty), default=0)
    end = max((m.end_time_us for m in nonempty), default=0)
    return TrafficMatrix(first.window_size, packets, start, end, first.key_id,
                         rows[starts], cols[starts], np.add.reduceat(counts, starts))
