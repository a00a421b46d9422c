"""Sparse traffic matrices aggregated over fixed-size packet windows.

Each run of ``window_size`` consecutive valid IP packets becomes one matrix:
entry (src_id, dst_id) counts the packets sent from that anonymized source
to that anonymized destination within the window. The 64-bit pseudonyms are
the sparse coordinates, and files hold only pseudonyms. While a window is
built its cells are counted on 32-bit slots, indexes into an in-memory table
of the pseudonyms seen; the slots never leave memory, so no file holds a
remapping table (which would itself be a de-anonymization risk).

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

# Pseudonyms memoized across batches. After a batch that leaves more than
# max(this, 2 * kept) addresses in the memo's table, the memo restarts and
# keeps only the open window's `kept` distinct addresses. So the table holds
# at most max(this, 2 * kept) addresses plus one batch's distinct ones.
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
                   *_sum_cells([(cells[0::2], cells[1::2], counts)], _lexsort))

    @property
    def entries(self) -> Mapping[tuple[int, int], int]:
        """The cells as a read-only {(row, col): count} view of the arrays."""
        return _CellView(self)

    def __eq__(self, other: object) -> bool:
        return type(other) is TrafficMatrix and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values()))

    def validate(self) -> None:
        """Check structural invariants, and that the TMF header's fields can
        hold the window size and time range; raises InvariantViolation."""
        if not 1 <= self.window_size < 1 << 32:
            raise InvariantViolation("window_size must be from 1 to 2**32 - 1")
        if self.start_time_us < 0 or self.end_time_us >= 1 << 64:
            raise InvariantViolation("the time range must fit in 64 unsigned bits")
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

    Each batch's addresses are looked up once in a ``_Memo`` kept across
    batches, which hashes its misses in one ``pseudonyms`` call per batch
    and IP version and gives every address a 32-bit slot in its table of
    pseudonyms. The batch's slot columns are then sliced at window
    boundaries. The slices wait in the open window until their packets
    outnumber the window's summed cells, or the window closes. A fold sums
    them together with those cells by one sort on a 64-bit key of two slots;
    so every fold takes in fewer than twice its new packets. A closing
    window's slots are replaced by their pseudonyms once, and the cells are
    summed and ordered by (row, col). Memory holds the open window's
    distinct cells, at most as many waiting packets, one batch and the memo,
    never a per-packet array of a whole window. The memo's table holds at
    most max(``_ID_MEMO_LIMIT``, 2 * kept) addresses plus one batch's, where
    kept, the addresses its last restart kept, is no more than the open
    window's distinct addresses. A batch holding an IP version other than 4
    or 6 raises ValueError.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    key_id = key.key_id
    memo = _Memo(key)
    # The open window: its `cells` summed cells, once there are any, then one
    # (src, dst, ones) part of slots per slice since, holding `waiting` packets.
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    count = waiting = cells = 0
    t_min = t_max = 0

    for batch in batches:
        unknown = (batch.ip_version != 4) & (batch.ip_version != 6)
        if unknown.any():
            raise ValueError(
                f"ip_version must be 4 or 6, got {batch.ip_version[unknown][0]}")
        src_slots, dst_slots = memo.slots(batch.ip_version, batch.src_ip, batch.dst_ip)
        n = len(batch.timestamp_us)
        lo = 0
        while lo < n:
            hi = min(n, lo + window_size - count)
            ts = batch.timestamp_us[lo:hi]
            t_min = min(t_min, int(ts.min())) if count else int(ts.min())
            t_max = max(t_max, int(ts.max())) if count else int(ts.max())
            parts.append((src_slots[lo:hi], dst_slots[lo:hi], np.ones(hi - lo, np.uint64)))
            count += hi - lo
            waiting += hi - lo
            lo = hi

            if count == window_size:
                yield TrafficMatrix(window_size, count, t_min, t_max, key_id,
                                    *_close(parts, memo.ids))
                count = waiting = cells = 0
            elif waiting > cells:
                parts.append(_sum_cells(parts, _slot_order))
                waiting, cells = 0, len(parts[0][0])
        if len(memo) > max(_ID_MEMO_LIMIT, 2 * memo.kept):
            memo.restart(parts)

    if count:
        yield TrafficMatrix(window_size, count, t_min, t_max, key_id, *_close(parts, memo.ids))


class _Memo:
    """The addresses seen, each with a 32-bit slot: its pseudonym's index in
    ``ids``, one table that grows by doubling. Each IP version's addresses
    are kept in one sorted run of (keys, slots). Each lookup hashes all of
    its misses in one ``pseudonyms`` call per IP version.

    ``restart`` keeps only the open window's slots, ``kept`` of them, and
    the run entries of their addresses, so ``kept`` is the open window's
    distinct addresses, and one that comes back keeps its slot and is not
    hashed again. ``build_windows`` restarts the memo after a batch that
    leaves more than max(``_ID_MEMO_LIMIT``, 2 * kept) addresses in the
    table: the table holds at most that many plus one batch's, and a window
    whose own addresses pass the limit restarts it once per doubling, not
    after every batch."""

    _DTYPES = {4: np.dtype(">u4"), 6: np.dtype("V16")}  # an address's bytes as one key

    def __init__(self, key: AnonKey):
        self.key = key
        self.ids = np.empty(0, np.uint64)
        self.size = self.kept = 0
        self.runs = {v: (np.empty(0, dtype), np.empty(0, np.uint32))
                     for v, dtype in self._DTYPES.items()}

    def __len__(self) -> int:
        """The number of addresses in the table."""
        return self.size

    def slots(self, versions: np.ndarray, src: np.ndarray, dst: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """The slots of one batch's source and destination addresses."""
        n = len(versions)
        addrs, versions = np.concatenate((src, dst)), np.concatenate((versions, versions))
        slots = np.empty(2 * n, np.uint32)
        for version, dtype in self._DTYPES.items():
            sel = versions == version
            if sel.any():
                # [i] is addrs[i, :dtype.itemsize] as one key
                keys = np.ndarray((2 * n,), dtype, addrs, 0, (16,))[sel]
                distinct, inverse = _distinct(keys)
                slots[sel] = self._lookup(version, distinct)[inverse]
        return slots[:n], slots[n:]

    def _lookup(self, version: int, addrs: np.ndarray) -> np.ndarray:
        """The slots of distinct, sorted addresses; misses are hashed."""
        keys, values = self.runs[version]
        at = np.searchsorted(keys, addrs)  # a hit's index, or a miss's place
        found = at < len(keys)
        found[found] = keys[at[found]] == addrs[found]
        slots = np.empty(len(addrs), np.uint32)
        slots[found] = values[at[found]]
        miss = np.flatnonzero(~found)
        if len(miss):
            new_keys = addrs[miss]
            new_slots = self._append(pseudonyms(self.key, version, new_keys))
            slots[miss] = new_slots
            self.runs[version] = (np.insert(keys, at[miss], new_keys),
                                  np.insert(values, at[miss], new_slots))
        return slots

    def _append(self, new_ids: np.ndarray) -> np.ndarray:
        """Add pseudonyms to the table; returns their slots."""
        lo, hi = self.size, self.size + len(new_ids)
        if hi > len(self.ids):
            table = np.empty(max(hi, 2 * len(self.ids)), np.uint64)
            table[:lo] = self.ids[:lo]
            self.ids = table
        self.ids[lo:hi] = new_ids
        self.size = hi
        return np.arange(lo, hi, dtype=np.uint32)

    def restart(self, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Keep only the slots that the (src, dst, counts) ``parts`` use, and
        the addresses that have them, renumbered from 0 in place."""
        used = np.zeros(self.size, bool)
        for src, dst, _ in parts:
            used[src] = used[dst] = True
        kept = np.flatnonzero(used)
        renumber = np.empty(self.size, np.uint32)
        renumber[kept] = np.arange(len(kept))
        parts[:] = [(renumber[src], renumber[dst], counts) for src, dst, counts in parts]
        for version, (keys, slots) in self.runs.items():
            keep = used[slots]
            self.runs[version] = (keys[keep], renumber[slots[keep]])
        self.ids = self.ids[kept]
        self.size = self.kept = len(kept)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for the memo's ``>u4`` (IPv4)
    or ``V16`` (IPv6) keys: the sorted distinct keys and each key's index
    among them.

    A 4-byte key and its position share one ``uint64``, so one ``np.sort``,
    which numpy 2 vectorizes where ``np.unique``'s argsort is not, finds
    both. A 16-byte key cannot carry its position in a 64-bit sort key, so
    it goes to ``np.unique``."""
    if keys.dtype.itemsize != 4:
        return np.unique(keys, return_inverse=True)
    # A batch holds far fewer than 2**32 addresses, so a position fits in
    # the low half.
    packed = keys.astype(np.uint64)
    packed <<= 32
    packed |= np.arange(len(keys), dtype=np.uint64)
    packed.sort()
    at = (packed & 0xFFFFFFFF).astype(np.intp)  # the positions, in key order
    packed >>= 32  # the keys, sorted
    first = np.ones(len(keys), bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    inverse = np.empty(len(keys), np.intp)
    inverse[at] = np.cumsum(first) - 1
    return packed[np.flatnonzero(first)].astype(keys.dtype), inverse


def _close(parts, ids):
    """A closing window's cells: the slots of ``parts`` replaced by their
    pseudonyms ``ids``, summed and ordered by (row, col). Empties ``parts``."""
    cells = [(ids[src], ids[dst], counts) for src, dst, counts in parts]
    parts.clear()
    return _sum_cells(cells, _lexsort)


def _slot_order(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The order of slot cells by one 64-bit key; equal keys are one cell,
    so the sort need not be stable."""
    return np.argsort(src.astype(np.uint64) << 32 | dst)


def _lexsort(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.lexsort((cols, rows))


def _sum_cells(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], sort
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
    return _sum_sorted(columns)


def _sum_sorted(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of the (rows, cols, counts) ``columns``, which are in (row,
    col) order, with the counts of equal cells added up. Empties ``columns``,
    and frees each column as soon as its summed copy exists."""
    rows, cols, counts = columns
    columns.clear()
    first_of_cell = np.ones(len(rows), bool)
    first_of_cell[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first_of_cell)
    rows = rows[starts]
    cols = cols[starts]
    return rows, cols, np.add.reduceat(counts, starts)


def check_compatible(first: TrafficMatrix, *rest: TrafficMatrix) -> None:
    """Raise KeyMismatch or WindowSizeMismatch at the first of ``rest`` whose
    key or window size differs from ``first``'s: matrices merged or written to
    one file must share both."""
    for m in rest:
        if m.key_id != first.key_id:
            raise KeyMismatch(f"matrices from different keys "
                              f"({first.key_id.hex()} vs {m.key_id.hex()})")
        if m.window_size != first.window_size:
            raise WindowSizeMismatch(f"matrices of different window sizes "
                                     f"({first.window_size} vs {m.window_size})")


def merge(ms: list[TrafficMatrix]) -> TrafficMatrix:
    """Element-wise sum of the one or more matrices of ``ms``, which must
    share one key and window size, and whose summed packet_count must fit
    the file's 64-bit field. Once both hold, empties ``ms``; a mismatch
    raises with ``ms`` left whole.

    Each input is popped and copied into one 16-byte big-endian (row, col)
    sort key and one counts array, so an input that nothing else holds is
    freed as soon as it is copied. The counts of each valid input sum to its
    packet_count, so no merged cell can wrap, and its cells are in (row, col)
    order, so a stable sort of the key finds the inputs' runs and merges
    them. A merge holds 48 bytes per input cell at its peak: the key, the
    counts, the sorting permutation and the sorted rows and cols.
    """
    check_compatible(*ms)
    window_size, key_id = ms[0].window_size, ms[0].key_id
    packets = sum(m.packet_count for m in ms)
    if packets >> 64:
        raise InvariantViolation(f"merged packet_count {packets} does not fit in 64 bits")

    start = min((m.start_time_us for m in ms if m.packet_count), default=0)
    end = max((m.end_time_us for m in ms if m.packet_count), default=0)
    hi = sum(len(m.counts) for m in ms)
    key = np.empty((hi, 2), ">u8")
    counts = np.empty(hi, np.uint64)
    while ms:  # filled from the end, so the inputs keep their order
        m = ms.pop()
        lo = hi - len(m.counts)
        key[lo:hi, 0], key[lo:hi, 1], counts[lo:hi] = m.rows, m.cols, m.counts
        hi = lo
    del m
    order = np.argsort(key.view("V16").ravel(), kind="stable")
    columns = [key[:, i][order].byteswap(inplace=True).view(np.uint64) for i in (0, 1)]
    del key
    columns.append(counts[order])
    del counts, order
    return TrafficMatrix(window_size, packets, start, end, key_id, *_sum_sorted(columns))
