"""Expected outputs, an independent TMF decoder, and the output checks.

The oracle works from the packet-order arrays the input generator wrote:
pseudonyms come from stdlib ``hmac``/``hashlib`` (one HMAC per distinct
host), windows and reports from numpy. The decoder reads ``.tmf`` bytes
from the README's block table (raw inflate, then LEB128) and never calls
``read_tmf``, so a fault shared by the program's writer and reader cannot
hide. Every check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from inputs import Packets

# README block table: magic, version, flags, window size, packets, first and
# last timestamp, key id, scheme, 3 reserved bytes, entry count, payload length.
_TMF_HEADER = struct.Struct("<4sHHIQQQ8sB3sQQ")


class CheckFailed(Exception):
    """An output of the program differs from what the oracle expects."""


@dataclass
class Window:
    """One window's matrix, entries sorted by (row, col)."""

    packets: int
    start_us: int
    end_us: int
    rows: np.ndarray  # uint64 source pseudonyms
    cols: np.ndarray  # uint64 destination pseudonyms
    counts: np.ndarray  # uint64


def key_id(key: bytes) -> bytes:
    return hashlib.sha256(key).digest()[:8]


def pseudonyms(key: bytes, addrs: np.ndarray) -> np.ndarray:
    """HMAC-SHA-256(key, 0x04 || address)[:8], big-endian, computed once per distinct host."""
    hosts, inverse = np.unique(addrs, return_inverse=True)
    table = np.array([
        int.from_bytes(
            hmac.new(key, b"\x04" + int(a).to_bytes(4, "big"), hashlib.sha256).digest()[:8],
            "big")
        for a in hosts], dtype=np.uint64)
    return table[inverse]


def aggregate(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray):
    """Sum duplicate (row, col) cells; returns arrays sorted by (row, col)."""
    order = np.lexsort((cols, rows))
    r, c, k = rows[order], cols[order], counts[order].astype(np.uint64)
    if len(r) == 0:
        return r, c, k
    first = np.flatnonzero(np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1]))))
    return r[first], c[first], np.add.reduceat(k, first)


def expected_windows(pk: Packets, key: bytes, window_size: int) -> list[Window]:
    """The matrices a conversion of these packets must produce, in order."""
    n = len(pk.src)
    ids = pseudonyms(key, np.concatenate((pk.src, pk.dst)))
    src_ids, dst_ids = ids[:n], ids[n:]
    windows = []
    for lo in range(0, n, window_size):
        hi = min(lo + window_size, n)
        rows, cols, counts = aggregate(
            src_ids[lo:hi], dst_ids[lo:hi], np.ones(hi - lo, dtype=np.uint64))
        ts = pk.ts_us[lo:hi]
        windows.append(Window(hi - lo, int(ts.min()), int(ts.max()), rows, cols, counts))
    return windows


# --- analyze reports ---

def report(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> dict:
    """The eleven report fields, as ``tmsensor analyze --format json`` prints them."""
    counts = counts.astype(np.int64)
    fields = {"valid_packets": int(counts.sum()), "unique_links": len(counts)}
    for side, ids in (("source", rows), ("destination", cols)):
        _, inverse = np.unique(ids, return_inverse=True)
        packets = np.bincount(inverse, weights=counts).astype(np.int64)
        degree = np.bincount(inverse)
        fields[f"unique_{side}s"] = len(packets)
        fields[f"max_{side}_packets"] = int(packets.max(initial=0))
        fields[f"max_{side}_{'fanout' if side == 'source' else 'fanin'}"] = int(
            degree.max(initial=0))
        values, hosts = np.unique(degree, return_counts=True)
        fields[f"{'fanout' if side == 'source' else 'fanin'}_histogram"] = {
            str(int(d)): int(n) for d, n in zip(values, hosts)}
    fields["max_link_packets"] = int(counts.max(initial=0))
    return fields


def expected_analyze(files: list[tuple[str, list[Window]]]) -> dict:
    """The whole JSON document: one report per window, then the merged one."""
    doc = {"windows": [], "merged": None}
    parts = []
    for path, windows in files:
        for block, w in enumerate(windows):
            doc["windows"].append(
                {"file": path, "block": block, "report": report(w.rows, w.cols, w.counts)})
            parts.append(w)
    merged = aggregate(
        np.concatenate([w.rows for w in parts]),
        np.concatenate([w.cols for w in parts]),
        np.concatenate([w.counts for w in parts]))
    doc["merged"] = report(*merged)
    return doc


# --- independent TMF codec ---

def uleb128(values: np.ndarray) -> bytes:
    """Unsigned LEB128 encoding of a uint64 array, vectorized."""
    v = values.astype(np.uint64)
    nbytes = np.ones(len(v), dtype=np.int64)
    rest = v >> np.uint64(7)
    while rest.any():
        nbytes += rest > 0
        rest >>= np.uint64(7)
    starts = np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    for k in range(int(nbytes.max(initial=0))):
        live = nbytes > k
        byte = (v[live] >> np.uint64(7 * k)) & np.uint64(0x7F)
        more = (nbytes[live] > k + 1).astype(np.uint64) << np.uint64(7)
        out[starts[live] + k] = (byte | more).astype(np.uint8)
    return out.tobytes()


def varints(w: Window) -> bytes:
    """The canonical payload before deflate: (row delta, col, count) LEB128 triples."""
    deltas = np.diff(w.rows, prepend=np.uint64(0))
    return uleb128(np.column_stack((deltas, w.cols, w.counts)).ravel())


def encode_tmf(windows: list[Window], window_size: int, kid: bytes) -> bytes:
    """A .tmf file of canonical deflated blocks, one per window."""
    return b"".join(encode_block(w, varints(w), window_size, kid) for w in windows)


def encode_block(w: Window, raw: bytes, window_size: int, kid: bytes) -> bytes:
    """One block whose payload is ``raw`` deflated at level 9, as the program writes."""
    comp = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = comp.compress(raw) + comp.flush()
    return _TMF_HEADER.pack(
        b"GTM1", 1, 1, window_size, w.packets, w.start_us, w.end_us, kid, 1,
        b"\0\0\0", len(w.rows), len(payload)) + payload


@dataclass
class Block:
    window_size: int
    window: Window
    key_id: bytes
    raw: bytes  # the inflated varint stream


def decode_tmf(data: bytes) -> list[Block]:
    """Split a .tmf file into blocks and decode each one; raises CheckFailed."""
    blocks, pos = [], 0
    while pos < len(data):
        if pos + _TMF_HEADER.size > len(data):
            raise CheckFailed("file ends inside a block header")
        (magic, version, flags, window_size, packets, start, end, kid, scheme,
         reserved, entry_count, payload_len) = _TMF_HEADER.unpack_from(data, pos)
        if (magic, version, flags, scheme, reserved) != (b"GTM1", 1, 1, 1, b"\0\0\0"):
            raise CheckFailed(f"block at byte {pos}: unexpected header fields")
        pos += _TMF_HEADER.size
        payload = data[pos:pos + payload_len]
        pos += payload_len
        if len(payload) != payload_len:
            raise CheckFailed("file ends inside a block payload")
        inflater = zlib.decompressobj(-15)
        try:
            raw = inflater.decompress(payload)
        except zlib.error as exc:
            raise CheckFailed(f"payload does not inflate: {exc}") from None
        if not inflater.eof or inflater.unused_data:
            raise CheckFailed("deflate stream is incomplete or has trailing bytes")
        values = decode_uleb128(raw)
        if len(values) != 3 * entry_count:
            raise CheckFailed(
                f"block holds {len(values)} varints, header declares {entry_count} entries")
        triples = values.reshape(-1, 3)
        rows = np.cumsum(triples[:, 0], dtype=np.uint64)
        window = Window(packets, start, end, rows, triples[:, 1].copy(), triples[:, 2].copy())
        blocks.append(Block(window_size, window, kid, raw))
    if not blocks:
        raise CheckFailed("file holds no blocks")
    return blocks


def decode_uleb128(raw: bytes) -> np.ndarray:
    b = np.frombuffer(raw, dtype=np.uint8)
    if len(b) == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = np.flatnonzero(b < 0x80)
    if len(ends) == 0 or ends[-1] != len(b) - 1:
        raise CheckFailed("varint runs past end of payload")
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if lengths.max() > 10:
        raise CheckFailed("varint longer than 10 bytes")
    shift = np.arange(len(b)) - np.repeat(starts, lengths)
    parts = (b & 0x7F).astype(np.uint64) << (7 * shift).astype(np.uint64)
    return np.bitwise_or.reduceat(parts, starts)


# --- checks ---

def check_windows(blocks: list[Block], expected: list[Window], window_size: int,
                  kid: bytes, what: str) -> None:
    """Every decoded block equals the oracle window at the same position."""
    if len(blocks) != len(expected):
        raise CheckFailed(f"{what}: {len(blocks)} windows, expected {len(expected)}")
    for i, (block, want) in enumerate(zip(blocks, expected)):
        got = block.window
        if block.window_size != window_size or block.key_id != kid:
            raise CheckFailed(f"{what} window {i}: wrong window size or key id")
        if (got.packets, got.start_us, got.end_us) != (want.packets, want.start_us, want.end_us):
            raise CheckFailed(
                f"{what} window {i}: packets/time range "
                f"{(got.packets, got.start_us, got.end_us)} != "
                f"{(want.packets, want.start_us, want.end_us)}")
        for name in ("rows", "cols", "counts"):
            if not np.array_equal(getattr(got, name), getattr(want, name)):
                raise CheckFailed(f"{what} window {i}: entry {name} differ from the oracle")
        if block.raw != varints(want):
            raise CheckFailed(f"{what} window {i}: varint stream is not the canonical one")


def check_identical(files_per_pass: list[dict[str, bytes]], what: str) -> None:
    """Every pass wrote the same set of file contents (canonical writing)."""
    first = sorted(files_per_pass[0].values())
    for n, files in enumerate(files_per_pass[1:], 1):
        if sorted(files.values()) != first:
            raise CheckFailed(f"{what}: pass {n} wrote different bytes than pass 0")


def check_journal(journal_text: str, digests: dict[str, str]) -> None:
    """Every capture is journaled exactly once, with its SHA-256."""
    seen: dict[str, str] = {}
    for line in journal_text.splitlines():
        digest, _, name = line.partition(" ")
        if name in seen:
            raise CheckFailed(f"journal: {name} recorded twice")
        seen[name] = digest
    if seen != digests:
        raise CheckFailed(f"journal: recorded {sorted(seen.items())}, expected "
                          f"{sorted(digests.items())}")


def check_spool(outputs: dict[str, bytes], expected: dict[str, list[Window]],
                window_size: int, kid: bytes) -> None:
    """Match each output file to one capture by its contents, then compare windows."""
    if len(outputs) != len(expected):
        raise CheckFailed(f"spool: {len(outputs)} outputs for {len(expected)} captures")
    unmatched = dict(expected)
    for name, data in sorted(outputs.items()):
        blocks = decode_tmf(data)
        first = blocks[0].window
        capture = next((c for c, ws in unmatched.items()
                        if (ws[0].start_us, ws[0].packets) == (first.start_us, first.packets)),
                       None)
        if capture is None:
            raise CheckFailed(f"spool: {name} matches no capture")
        check_windows(blocks, unmatched.pop(capture), window_size, kid,
                      f"spool {name} ({capture})")


def check_hicard(data: bytes, expected: list[Window], window_size: int, kid: bytes,
                 valid_packets: int) -> None:
    blocks = decode_tmf(data)
    check_windows(blocks, expected, window_size, kid, "hicard")
    total = sum(int(b.window.counts.sum()) for b in blocks)
    if total != valid_packets:
        raise CheckFailed(f"hicard: entry counts sum to {total}, capture has {valid_packets}")


def check_report(text: str, expected: dict) -> None:
    try:
        got = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"analyze: report is not JSON: {exc}") from None
    if got != expected:
        diff = _first_difference(got, expected, "report")
        raise CheckFailed(f"analyze: report differs from the oracle at {diff}")


def _first_difference(got, want, where: str) -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want), key=str):
            if got.get(k) != want.get(k):
                return _first_difference(got.get(k), want.get(k), f"{where}.{k}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{where}[{i}]")
    return f"{where} (got {str(got)[:80]}, expected {str(want)[:80]})"


def read_outputs(out_dir: str) -> dict[str, bytes]:
    """Every finished .tmf in an output directory; a leftover temp file fails."""
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(".part-"):
            raise CheckFailed(f"temporary file {name} left behind in {out_dir}")
        if name.endswith(".tmf"):
            with open(os.path.join(out_dir, name), "rb") as f:
                outputs[name] = f.read()
    return outputs
