"""Keyed pseudonymization of IP addresses.

Each address maps to a 64-bit id: the big-endian interpretation of the first
8 bytes of HMAC-SHA-256(key, tag || address), where the tag byte is 0x04 for
IPv4 and 0x06 for IPv6. Equal addresses under the same key always collapse to
equal ids, so matrix structure survives, while recovering an address from its
id requires the key. The tag keeps the v4 and v6 id spaces unrelated even
when the address bytes overlap.

Keys are 32 random bytes, generated once per deployment and reused across
capture hours so ids stay comparable over time. The public 8-byte key_id
(SHA-256 prefix of the key) lets files be matched to their key without
revealing it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property

from .errors import EntropyUnavailable, KeyFileError, LengthMismatch

KEY_LEN = 32
KEY_ID_LEN = 8

# Key file: magic, one version byte, three reserved zero bytes, 32 key bytes.
# Keep key files owner-readable only; this module does not enforce
# permissions itself.
KEY_FILE_MAGIC = b"ANK1"
KEY_FILE_VERSION = 1
KEY_FILE_LEN = 40

_TAG = {4: b"\x04", 6: b"\x06"}
_ADDR_LEN = {4: 4, 6: 16}


@dataclass(frozen=True)
class AnonKey:
    """A 32-byte pseudonymization secret."""

    key_bytes: bytes

    def __post_init__(self):
        if not isinstance(self.key_bytes, (bytes, bytearray)):
            raise TypeError("key_bytes must be bytes")
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"key must be exactly {KEY_LEN} bytes")

    @property
    def key_id(self) -> bytes:
        """Public fingerprint: first 8 bytes of SHA-256 of the key."""
        return hashlib.sha256(self.key_bytes).digest()[:KEY_ID_LEN]

    @cached_property
    def _hmac_pads(self):
        """SHA-256 states after the HMAC inner and outer key pads (RFC 2104)."""
        block = self.key_bytes.ljust(hashlib.sha256().block_size, b"\x00")
        return (hashlib.sha256(bytes(b ^ 0x36 for b in block)),
                hashlib.sha256(bytes(b ^ 0x5C for b in block)))


def anonymize_ip(key: AnonKey, ip_version: int, ip: bytes) -> int:
    """Map an IP address to its 64-bit pseudonym under the given key."""
    expected = _ADDR_LEN.get(ip_version)
    if len(ip) != expected:
        if expected is None:
            raise ValueError(f"ip_version must be 4 or 6, got {ip_version}")
        raise LengthMismatch(
            f"IPv{ip_version} address must be {expected} bytes, got {len(ip)}"
        )
    inner_pad, outer_pad = key._hmac_pads
    inner, outer = inner_pad.copy(), outer_pad.copy()
    inner.update(_TAG[ip_version] + ip)
    outer.update(inner.digest())
    return int.from_bytes(outer.digest()[:8], "big")


def generate_key() -> AnonKey:
    """Generate a fresh key from OS entropy."""
    try:
        return AnonKey(os.urandom(KEY_LEN))
    except (OSError, NotImplementedError) as exc:
        raise EntropyUnavailable(f"cannot read OS entropy: {exc}") from exc


def save_key(key: AnonKey, stream) -> None:
    """Write a key in the 40-byte key file format."""
    stream.write(KEY_FILE_MAGIC + bytes([KEY_FILE_VERSION]) + b"\x00" * 3 + key.key_bytes)


def load_key(stream) -> AnonKey:
    """Read a key file; raises KeyFileError if it is not one."""
    data = stream.read(KEY_FILE_LEN + 1)
    if len(data) != KEY_FILE_LEN:
        raise KeyFileError(f"key file must be exactly {KEY_FILE_LEN} bytes")
    if data[:4] != KEY_FILE_MAGIC:
        raise KeyFileError("not a key file (bad magic)")
    if data[4] != KEY_FILE_VERSION:
        raise KeyFileError(f"unknown key file version {data[4]}")
    if data[5:8] != b"\x00" * 3:
        raise KeyFileError("reserved key file bytes are not zero")
    return AnonKey(data[8:])
