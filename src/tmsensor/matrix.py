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

import functools
import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from .anon import KEY_ID_LEN, AnonKey, pseudonyms
from .anon import anonymize_ip  # noqa: F401  bench/tracer.py wraps matrix.anonymize_ip by name
from .errors import InvariantViolation, KeyMismatch, WindowSizeMismatch
from .pcap import PacketBatch

DEFAULT_WINDOW_SIZE = 1 << 17  # 131,072 packets

# Operational bounds enforced by the CLI and config; the library itself
# accepts any window_size >= 1.
MIN_WINDOW_SIZE = 1 << 10
MAX_WINDOW_SIZE = 1 << 24

# Pseudonyms memoized across batches; past this many the memo is dropped
# after the batch that passed it, so it holds at most this many plus one
# batch's distinct addresses on any capture.
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
        return cls(window_size, packet_count, start_time_us, end_time_us, key_id,
                   *_sum_cells([(cells[0::2], cells[1::2], counts)]))

    @property
    def entries(self) -> Mapping[tuple[int, int], int]:
        """The cells as a read-only {(row, col): count} view of the arrays."""
        return _CellView(self)

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


class _CellView(Mapping):
    """Read-only {(row, col): count} mapping over a matrix's sorted arrays.
    Its length reads the arrays; any other use builds a dict of the cells once."""

    def __init__(self, m: TrafficMatrix):
        self._m = m

    def __len__(self) -> int:
        return len(self._m.rows)

    @functools.cached_property
    def _cells(self) -> dict[tuple[int, int], int]:
        m = self._m
        return dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.counts.tolist()))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._cells)

    def __getitem__(self, cell: tuple[int, int]) -> int:
        return self._cells[cell]


def build_windows(
    batches: Iterable[PacketBatch], key: AnonKey, window_size: int = DEFAULT_WINDOW_SIZE
) -> Iterator[TrafficMatrix]:
    """Aggregate a stream of packet batches into per-window traffic matrices.

    Packets are taken in stream order; every ``window_size`` of them closes
    a matrix. The trailing partial window is emitted too (interrupted
    captures are the common case), flagged simply by its smaller
    packet_count. Output is identical however the packets are split into
    batches.

    Each batch's addresses are pseudonymized once, through a memo kept
    across batches: the memo's misses are hashed in one ``pseudonyms`` call
    per batch and IP version. The batch's pseudonym columns are then sliced
    at window boundaries. The slices wait in the open window until their
    packets outnumber the window's summed cells, or the window closes; one
    sort then sums them together with those cells. So every sort but the
    closing one takes in fewer than twice its new packets, and memory holds
    the window's distinct cells, at most as many waiting packets and one
    batch, never a per-packet array of a whole window. A batch holding an IP
    version other than 4 or 6 raises ValueError.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    key_id = key.key_id
    memos = (_Memo(4, ">u4"), _Memo(6, "V16"))
    # The open window: its `cells` summed cells, once there are any, then one
    # (src, dst, ones) part per slice since, holding `waiting` packets.
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    count = waiting = cells = 0
    t_min = t_max = 0

    for batch in batches:
        unknown = (batch.ip_version != 4) & (batch.ip_version != 6)
        if unknown.any():
            raise ValueError(
                f"ip_version must be 4 or 6, got {batch.ip_version[unknown][0]}")
        src_ids, dst_ids = _pseudonyms(key, memos, batch.ip_version,
                                       batch.src_ip, batch.dst_ip)
        if sum(map(len, memos)) > _ID_MEMO_LIMIT:
            for memo in memos:
                memo.clear()
        n = len(batch.timestamp_us)
        lo = 0
        while lo < n:
            hi = min(n, lo + window_size - count)
            ts = batch.timestamp_us[lo:hi]
            t_min = min(t_min, int(ts.min())) if count else int(ts.min())
            t_max = max(t_max, int(ts.max())) if count else int(ts.max())
            parts.append((src_ids[lo:hi], dst_ids[lo:hi], np.ones(hi - lo, np.uint64)))
            count += hi - lo
            waiting += hi - lo
            lo = hi

            if count == window_size:
                yield TrafficMatrix(window_size, count, t_min, t_max, key_id,
                                    *_sum_cells(parts))
                count = waiting = cells = 0
            elif waiting > cells:
                parts.append(_sum_cells(parts))
                waiting, cells = 0, len(parts[0][0])

    if count:
        yield TrafficMatrix(window_size, count, t_min, t_max, key_id, *_sum_cells(parts))


class _Memo:
    """Pseudonyms of the addresses of one IP version, in one sorted run.
    Each lookup hashes all of its misses in one ``pseudonyms`` call."""

    def __init__(self, version: int, dtype: str):
        self.version, self.dtype = version, np.dtype(dtype)  # an address's bytes as one key
        self.clear()

    def clear(self) -> None:
        self.run = (np.empty(0, self.dtype), np.empty(0, np.uint64))

    def __len__(self) -> int:
        return len(self.run[0])

    def pseudonyms(self, key: AnonKey, addrs: np.ndarray) -> np.ndarray:
        """The pseudonyms of distinct, sorted addresses; misses are hashed."""
        keys, values = self.run
        at = np.searchsorted(keys, addrs)  # a hit's index, or a miss's place
        found = at < len(keys)
        found[found] = keys[at[found]] == addrs[found]
        ids = np.empty(len(addrs), np.uint64)
        ids[found] = values[at[found]]
        miss = np.flatnonzero(~found)
        if len(miss):
            new_keys = addrs[miss]
            new_ids = pseudonyms(key, self.version, new_keys)
            ids[miss] = new_ids
            self.run = (np.insert(keys, at[miss], new_keys),
                        np.insert(values, at[miss], new_ids))
        return ids


def _pseudonyms(key, memos, versions, src, dst):
    """The pseudonyms of one batch's source and destination addresses."""
    n = len(versions)
    addrs, versions = np.concatenate((src, dst)), np.concatenate((versions, versions))
    ids = np.empty(2 * n, np.uint64)
    for memo in memos:
        sel = versions == memo.version
        if sel.any():
            keys = addrs[sel, :memo.dtype.itemsize].view(memo.dtype).ravel()
            distinct, inverse = np.unique(keys, return_inverse=True)
            ids[sel] = memo.pseudonyms(key, distinct)[inverse]
    return ids[:n], ids[n:]


def _lexsort(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.lexsort((cols, rows))


def _merge_runs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (row, col) order of cells that come as sorted runs, one run per
    matrix: a stable sort on one 16-byte big-endian key, which finds the runs
    and merges them, where ``lexsort`` would sort the whole again."""
    key = np.empty((len(rows), 2), ">u8")
    key[:, 0], key[:, 1] = rows, cols
    return np.argsort(key.view("V16").ravel(), kind="stable")


def _sum_cells(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], sort=_lexsort
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the cells of ``parts``, each a (rows, cols, counts) triple, by
    (row, col) and add up the counts of equal cells. ``sort(rows, cols)``
    gives the sorting permutation. Empties ``parts``, and frees each unsorted
    column as soon as its sorted copy exists."""
    columns = [np.concatenate(column) for column in zip(*parts)]
    parts.clear()
    order = sort(columns[0], columns[1])
    for i, column in enumerate(columns):
        columns[i] = column[order]
    del column
    rows, cols, counts = columns
    columns.clear()
    first_of_cell = np.ones(len(rows), bool)
    first_of_cell[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first_of_cell)
    return rows[starts], cols[starts], np.add.reduceat(counts, starts)


def merge(first: TrafficMatrix, *rest: TrafficMatrix) -> TrafficMatrix:
    """Element-wise sum of matrices built under the same key and window size.

    The summed packet_count must fit the file's 64-bit field. The counts of
    each valid input sum to its packet_count, so no merged cell can wrap, and
    its cells are in (row, col) order, so the inputs are merged as sorted runs.
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

    cells = _sum_cells([(m.rows, m.cols, m.counts) for m in ms], _merge_runs)
    nonempty = [m for m in ms if m.packet_count]
    start = min((m.start_time_us for m in nonempty), default=0)
    end = max((m.end_time_us for m in nonempty), default=0)
    return TrafficMatrix(first.window_size, packets, start, end, first.key_id, *cells)
