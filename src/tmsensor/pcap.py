"""Classic-PCAP (libpcap) capture file parsing.

Extracts one record per IP packet: timestamp and source/destination
address. Nothing past the IP address fields is decoded; ports, payloads,
and fragments are deliberately ignored.

Parsing is streaming: memory use is bounded by a single record buffer no
matter how large the file is, and a capture cut off mid-record (the normal
outcome of an interrupted mirror port) is reported through
``CaptureStats.truncated_tail`` instead of an error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

from .errors import BadMagic, PcapngUnsupported, UnsupportedLinkType

# Global header: magic u32, version u16.u16, thiszone i32, sigfigs u32,
# snaplen u32, linktype u32. Record header: ts_sec u32, ts_frac u32,
# incl_len u32, orig_len u32, then incl_len data bytes.
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

# First four file bytes -> (struct byte order, fractional part is nanoseconds).
_MAGIC_BYTES = {
    b"\xd4\xc3\xb2\xa1": ("<", False),
    b"\xa1\xb2\xc3\xd4": (">", False),
    b"\x4d\x3c\xb2\xa1": ("<", True),
    b"\xa1\xb2\x3c\x4d": (">", True),
}
_PCAPNG_MAGIC = b"\x0a\x0d\x0d\x0a"

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101
LINKTYPE_LINUX_SLL = 113
_SUPPORTED_LINKTYPES = (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, LINKTYPE_LINUX_SLL)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100

# Cap on the per-record parse buffer. Address fields sit within the first
# few dozen bytes of any supported frame; bytes past the cap are drained in
# chunks so a corrupt incl_len cannot inflate memory use.
MAX_RECORD_BUFFER = 64 * 1024
_DRAIN_CHUNK = 64 * 1024


class PacketRecord(NamedTuple):
    """One parsed IP packet."""

    timestamp_us: int
    ip_version: int  # 4 or 6
    src_ip: bytes  # 4 bytes for v4, 16 for v6
    dst_ip: bytes


@dataclass
class CaptureStats:
    """Parse accounting for one capture file.

    ``total_records`` counts complete PCAP records and always equals
    ``valid_ip_packets + skipped_non_ip + skipped_malformed``. A record cut
    off by end of file is not counted anywhere; it only sets
    ``truncated_tail``.
    """

    total_records: int = 0
    valid_ip_packets: int = 0
    skipped_non_ip: int = 0
    skipped_malformed: int = 0
    truncated_tail: bool = False


def parse_pcap(stream: BinaryIO) -> tuple[Iterator[PacketRecord], CaptureStats]:
    """Open a classic-PCAP byte stream for streaming record extraction.

    The global header is read and validated immediately; records are decoded
    lazily as the returned iterator advances. The stats object is updated in
    place and is final once the iterator is exhausted.

    Raises BadMagic for non-PCAP input (PcapngUnsupported for pcapng) and
    UnsupportedLinkType for captures this parser cannot dissect. Truncation
    at end of file is not an error.
    """
    layout = _read_global_header(stream)
    if layout is None:
        # File ends inside the global header: no records, flagged truncated.
        return iter(()), CaptureStats(truncated_tail=True)
    stats = CaptureStats()
    return _iter_records(stream, stats, *layout), stats


def _read_global_header(stream):
    magic = stream.read(4)
    if magic == _PCAPNG_MAGIC:
        raise PcapngUnsupported(
            "pcapng input is not supported; convert to classic PCAP first"
        )
    if len(magic) < 4 or magic not in _MAGIC_BYTES:
        raise BadMagic(f"not a PCAP file (magic {magic.hex() or 'empty'})")
    byte_order, nanos = _MAGIC_BYTES[magic]

    rest = stream.read(GLOBAL_HEADER_LEN - 4)
    if len(rest) < GLOBAL_HEADER_LEN - 4:
        return None
    _vmaj, _vmin, _zone, _sigfigs, _snaplen, linktype = struct.unpack(
        byte_order + "HHiIII", rest
    )
    if linktype not in _SUPPORTED_LINKTYPES:
        raise UnsupportedLinkType(f"link type {linktype} is not supported")
    return byte_order, nanos, linktype


def _iter_records(stream, stats, byte_order, nanos, linktype):
    record_header = struct.Struct(byte_order + "IIII")
    while True:
        hdr = stream.read(RECORD_HEADER_LEN)
        if not hdr:
            return  # clean end of file
        if len(hdr) < RECORD_HEADER_LEN:
            stats.truncated_tail = True
            return
        ts_sec, ts_frac, incl_len, orig_len = record_header.unpack(hdr)

        want = min(incl_len, MAX_RECORD_BUFFER)
        buf = stream.read(want) if want else b""
        if len(buf) < want:
            stats.truncated_tail = True
            return
        remaining = incl_len - want
        while remaining > 0:
            chunk = stream.read(min(remaining, _DRAIN_CHUNK))
            if not chunk:
                stats.truncated_tail = True
                return
            remaining -= len(chunk)

        stats.total_records += 1
        if incl_len > orig_len:
            # Record header contradicts itself; never trust its contents.
            stats.skipped_malformed += 1
            continue

        parsed = _dissect(buf, linktype)
        if parsed is None:
            stats.skipped_malformed += 1
            continue
        if parsed == 0:
            stats.skipped_non_ip += 1
            continue
        version, src, dst = parsed
        stats.valid_ip_packets += 1
        timestamp_us = ts_sec * 1_000_000 + (ts_frac // 1000 if nanos else ts_frac)
        yield PacketRecord(timestamp_us, version, src, dst)


def _dissect(buf, linktype):
    """Extract (version, src, dst) from one captured frame.

    Returns None for malformed frames (too short to hold the indicated
    headers) and 0 for frames positively identified as non-IP.
    """
    if linktype == LINKTYPE_RAW_IP:  # the record starts at the IP header
        if not buf:
            return None
        off = 0
        version = buf[0] >> 4
    else:
        off = 12 if linktype == LINKTYPE_ETHERNET else 14  # Linux SLL
        while True:  # unwrap any number of 802.1Q tags
            if off + 2 > len(buf):
                return None
            ethertype = (buf[off] << 8) | buf[off + 1]
            off += 2
            if ethertype != ETHERTYPE_VLAN:
                break
            off += 2  # tag control info, then the inner EtherType
        version = (4 if ethertype == ETHERTYPE_IPV4
                   else 6 if ethertype == ETHERTYPE_IPV6 else 0)

    if version == 4:
        if off + 20 > len(buf) or buf[off] >> 4 != 4:
            return None
        return 4, buf[off + 12 : off + 16], buf[off + 16 : off + 20]
    if version == 6:
        if off + 40 > len(buf) or buf[off] >> 4 != 6:
            return None
        return 6, buf[off + 8 : off + 24], buf[off + 24 : off + 40]
    return 0
