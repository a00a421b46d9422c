"""Classic-PCAP (libpcap) capture file parsing.

Extracts the timestamp and source/destination address of each IP packet.
Nothing past the IP address fields is decoded; ports, payloads, and
fragments are deliberately ignored.

Parsing is streaming and batched. The stream is read in chunks of
``READ_CHUNK`` (256 KiB) bytes into one buffer reused for the whole capture,
and the records that end in a chunk become one ``PacketBatch`` of numpy
columns: the record headers are walked one by one, then one vectorized pass
classifies every record of the chunk and gathers the addresses of its
Ethernet, Linux SLL and raw IPv4/IPv6 frames, behind any number of 802.1Q
tags. Of a longer record only the first ``MAX_RECORD_BUFFER`` (64 KiB) bytes
are parsed; the rest is drained, not kept. Memory use is bounded by that
buffer plus one chunk's columns, no matter how large the file is.
``CaptureStats`` advance one chunk at a time. A capture cut off mid-record
(the normal outcome of an interrupted mirror port) is reported through
``CaptureStats.truncated_tail`` instead of an error.

``parse_pcap`` returns an iterator of these batches; they are the one packet
representation the matrix builder reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

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

# The read size. One buffer, reused for the whole capture, holds a chunk
# after the start of the record cut by the previous chunk's edge.
READ_CHUNK = 256 * 1024

# The cap on the bytes of one record that are parsed. Address fields sit
# within the first few dozen bytes of any supported frame; bytes past the
# cap are drained, not kept, so a corrupt incl_len cannot inflate memory use.
MAX_RECORD_BUFFER = 64 * 1024

# Zero bytes written after the data in the buffer: a 16-byte read at any
# record or address start stays in the buffer, and every run of 802.1Q tags
# ends inside it.
_PAD = bytes(48)

# Offset of a frame's first EtherType, by link type; raw IP has none. An IPv4
# header is 20 bytes with the source address at 12, an IPv6 header 40 bytes
# with it at 8; the destination address follows the source.
_ETHERTYPE_AT = {LINKTYPE_ETHERNET: 12, LINKTYPE_LINUX_SLL: 14}


class PacketBatch(NamedTuple):
    """Consecutive parsed IP packets as columns, in stream order.

    An address row is 16 bytes; an IPv4 address is its first 4, and the
    bytes after those are unspecified.
    """

    timestamp_us: np.ndarray  # int64
    ip_version: np.ndarray  # uint8, 4 or 6
    src_ip: np.ndarray  # (n, 16) uint8
    dst_ip: np.ndarray


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


def parse_pcap(stream: BinaryIO) -> tuple[Iterator[PacketBatch], CaptureStats]:
    """Open a classic-PCAP byte stream for streaming packet extraction.

    The stream needs ``read`` and ``readinto``, as a file opened in binary
    mode or an ``io.BytesIO`` has.

    The global header is read and validated immediately; records are decoded
    lazily, one chunk of the stream at a time, as the returned iterator of
    PacketBatches advances. The stats object is updated in place per chunk
    and is final once the iterator is exhausted.

    Raises BadMagic for non-PCAP input (PcapngUnsupported for pcapng) and
    UnsupportedLinkType for captures this parser cannot dissect. Truncation
    at end of file is not an error.
    """
    layout = _read_global_header(stream)
    if layout is None:
        # File ends inside the global header: no records, flagged truncated.
        return iter(()), CaptureStats(truncated_tail=True)
    stats = CaptureStats()
    return _iter_batches(stream, stats, *layout), stats


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


def _iter_batches(stream, stats, byte_order, nanos, linktype):
    incl_len_at = struct.Struct(byte_order + "I").unpack_from
    buf = memoryview(bytearray(RECORD_HEADER_LEN + MAX_RECORD_BUFFER + READ_CHUNK + len(_PAD)))
    kept = 0  # bytes at the front of buf: the start of a record cut by the last chunk's edge
    while True:
        n = stream.readinto(buf[kept : kept + READ_CHUNK])
        if not n:
            stats.truncated_tail = kept > 0
            return
        size = kept + n
        starts = []
        record_at = starts.append
        off = 0
        while off + RECORD_HEADER_LEN <= size:
            end = off + RECORD_HEADER_LEN + incl_len_at(buf, off + 8)[0]
            if end > size:
                break
            record_at(off)
            off = end
        kept = size - off

        truncated = False
        if kept >= RECORD_HEADER_LEN + MAX_RECORD_BUFFER:
            # Parsing reads only the first MAX_RECORD_BUFFER bytes of this
            # record, all in hand: drain the rest without keeping it.
            remaining = RECORD_HEADER_LEN + incl_len_at(buf, off + 8)[0] - kept
            while remaining > 0 and (part := stream.read(min(remaining, MAX_RECORD_BUFFER))):
                remaining -= len(part)
            truncated = remaining > 0
            if not truncated:
                starts.append(off)
                kept = 0
        if starts:
            buf[size : size + len(_PAD)] = _PAD
            yield _parse_records(buf, size, starts, stats, byte_order, nanos, linktype)
        if truncated:
            stats.truncated_tail = True
            return
        buf[:kept] = buf[off : off + kept]


def _parse_records(data, size, starts, stats, byte_order, nanos, linktype):
    """The batch of the records whose headers start at ``starts`` in the
    first ``size`` bytes of ``data``, which ``_PAD`` follows.

    Every record is classified at once. It is framed if its EtherType, past
    any 802.1Q tags (for raw IP: its version byte), lies in its first
    ``MAX_RECORD_BUFFER`` bytes; a framed record is non-IP, or valid if it
    holds a whole IP header of the version it names. All else is malformed.
    Every column of the batch is a copy, never a view into ``data``.
    """
    buf = np.frombuffer(data, np.uint8, size + len(_PAD))
    rows16 = np.ndarray((len(buf) - 15, 16), np.uint8, buf, 0, (1, 1))  # [i] is buf[i:i + 16]
    at = np.fromiter(starts, np.int64, len(starts))
    ts_sec, ts_frac, incl_len, orig_len = rows16[at].view(byte_order + "u4").T
    frac_us = ts_frac // 1000 if nanos else ts_frac
    timestamp_us = ts_sec.astype(np.int64) * 1_000_000 + frac_us

    body = at + RECORD_HEADER_LEN
    end = body + np.minimum(incl_len, MAX_RECORD_BUFFER)  # past the bytes parsed
    if linktype == LINKTYPE_RAW_IP:
        ip = body
        framed = ip < end
        version = buf[ip] >> 4
    else:
        et = body + _ETHERTYPE_AT[linktype]
        ethertype = _words(buf, et)
        if (ethertype == ETHERTYPE_VLAN).any():
            et = _skip_tags(buf)[et]
            ethertype = _words(buf, et)
        ip = et + 2
        framed = ip <= end
        version = np.where(ethertype == ETHERTYPE_IPV4, 4,
                           np.where(ethertype == ETHERTYPE_IPV6, 6, 0))
    framed &= incl_len <= orig_len  # else the header contradicts itself
    is_v4 = version == 4
    is_ip = is_v4 | (version == 6)
    non_ip = int(np.count_nonzero(framed & ~is_ip))
    keep = np.flatnonzero(framed & is_ip & (buf[ip] >> 4 == version)
                          & (ip + np.where(is_v4, 20, 40) <= end))

    stats.total_records += len(at)
    stats.skipped_malformed += len(at) - len(keep) - non_ip
    stats.skipped_non_ip += non_ip
    stats.valid_ip_packets += len(keep)
    version, is_v4 = version[keep].astype(np.uint8), is_v4[keep]
    src_at = ip[keep] + np.where(is_v4, 12, 8)
    return PacketBatch(timestamp_us[keep], version, rows16[src_at],
                       rows16[src_at + np.where(is_v4, 4, 16)])


def _words(buf, at):
    """The big-endian 16-bit words at offsets ``at`` of ``buf``."""
    return buf[at].astype(np.uint16) << 8 | buf[at + 1]


def _skip_tags(buf):
    """[i] is the first of offsets i, i + 4, i + 8, ... whose word is not the
    802.1Q EtherType: where an EtherType read at i lies past its tags.

    Each offset class mod 4 is one column of a grid, and a running minimum
    up each column finds the end of every run of tags in one pass.
    """
    n = (len(buf) - 1) // 4 * 4
    tagged = (buf[:n].astype(np.uint16) << 8 | buf[1 : n + 1]) == ETHERTYPE_VLAN
    untagged_at = np.where(tagged, n, np.arange(n, dtype=np.int32))
    return np.minimum.accumulate(untagged_at[::-1].reshape(-1, 4)).ravel()[::-1]
