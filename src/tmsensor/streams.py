"""Exact reads from binary streams.

A raw file, pipe or socket may return fewer bytes than asked from one
``read`` without being at end of file, so a reader that needs ``n`` bytes
loops until it has them or the stream is exhausted.
"""

from __future__ import annotations

from typing import BinaryIO

# Largest single read; ``n`` may come from an untrusted length field, so
# memory follows the bytes present, not the bytes asked for.
MAX_READ = 1 << 20


def read_full(stream: BinaryIO, n: int) -> bytes:
    """Read ``n`` bytes, or fewer only if the stream ends first."""
    parts = []
    while n > 0 and (part := stream.read(min(n, MAX_READ))):
        parts.append(part)
        n -= len(part)
    return b"".join(parts)
