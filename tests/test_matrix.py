"""Window building and merge algebra."""

import io
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor import matrix
from tmsensor.anon import AnonKey, anonymize_ip
from tmsensor.errors import InvariantViolation, KeyMismatch, WindowSizeMismatch
from tmsensor.matrix import (
    DEFAULT_WINDOW_SIZE,
    TrafficMatrix,
    build_windows,
    merge,
)
from tmsensor.pcap import READ_CHUNK, PacketBatch, parse_pcap

from conftest import (
    Packet,
    batch,
    cells,
    eth_frame,
    ipv4_packet,
    ipv6_packet,
    pcap_header,
    pcap_record,
)


def make_packet(src: bytes, dst: bytes, ts: int = 0) -> Packet:
    return Packet(ts, 4, src, dst)


def stream(pairs, ts_start=0) -> list[PacketBatch]:
    """IPv4 (src, dst) pairs as a one-batch stream, one microsecond apart."""
    return [batch(
        make_packet(bytes(src), bytes(dst), ts_start + i)
        for i, (src, dst) in enumerate(pairs)
    )]


def empty_like(m: TrafficMatrix) -> TrafficMatrix:
    return TrafficMatrix.from_entries(m.window_size, 0, 0, 0, m.key_id, {})


def test_empty_stream_builds_nothing(fixed_key):
    assert list(build_windows([], fixed_key)) == []


def test_single_cell_aggregation(fixed_key):
    pairs = [((10, 0, 0, 1), (10, 0, 0, 2))] * 5
    (m,) = build_windows(stream(pairs), fixed_key, DEFAULT_WINDOW_SIZE)
    sid = anonymize_ip(fixed_key, 4, bytes((10, 0, 0, 1)))
    did = anonymize_ip(fixed_key, 4, bytes((10, 0, 0, 2)))
    assert cells(m) == {(sid, did): 5}
    assert m.packet_count == 5
    assert m.window_size == DEFAULT_WINDOW_SIZE
    assert m.key_id == fixed_key.key_id


def test_window_boundary_at_exactly_one_extra_packet(fixed_key):
    n = 4096
    packets = batch(
        make_packet(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", i)
        for i in range(n + 1)
    )
    counts = [m.packet_count for m in build_windows([packets], fixed_key, n)]
    assert counts == [n, 1]


def test_default_window_size_boundary(fixed_key):
    """131,073 packets at the default window → counts [131072, 1]."""
    n = DEFAULT_WINDOW_SIZE
    packets = batch(
        make_packet(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", i)
        for i in range(n + 1)
    )
    counts = [m.packet_count for m in build_windows([packets], fixed_key)]
    assert counts == [n, 1]


def test_matches_brute_force_pair_counting(fixed_key):
    rng = random.Random(5)
    hosts = [bytes([10, 0, 0, h]) for h in range(1, 51)]
    pairs = []
    for _ in range(10_000):
        src, dst = rng.sample(hosts, 2)
        pairs.append((src, dst))

    (m,) = build_windows(stream(pairs), fixed_key, 1 << 20)

    expected: dict = {}
    for src, dst in pairs:
        cell = (anonymize_ip(fixed_key, 4, src), anonymize_ip(fixed_key, 4, dst))
        expected[cell] = expected.get(cell, 0) + 1
    view = m.entries
    assert len(view) == len(expected)
    assert "_cells" not in vars(view)  # len reads the arrays, building no dict
    assert view == expected
    assert m.packet_count == 10_000
    # Lookups: present cells, absent ones (no host sends to itself), and
    # coordinates out of the 64-bit range.
    for cell, count in expected.items():
        assert view[cell] == count and cell in view and view.get(cell) == count
    sid = next(iter(expected))[0]
    for absent in ((sid, sid), (-1, sid), (sid, -1), (1 << 64, sid), (sid, 1 << 64)):
        assert absent not in view and view.get(absent) is None
        with pytest.raises(KeyError):
            view[absent]


def test_time_range_is_min_max_of_timestamps(fixed_key):
    packets = batch(
        make_packet(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", ts)
        for ts in (500, 100, 900, 300)  # reordering tolerated
    )
    (m,) = build_windows([packets], fixed_key, 1 << 10)
    assert (m.start_time_us, m.end_time_us) == (100, 900)


def test_output_invariant_to_input_chunking(fixed_key):
    rng = random.Random(11)
    pairs = [
        ((10, 0, 0, rng.randrange(1, 20)), (10, 0, 1, rng.randrange(1, 20)))
        for _ in range(997)
    ]
    (packets,) = stream(pairs)

    def chunked(whole, sizes):
        """``whole`` re-sliced into consecutive batches of the given sizes."""
        lo = 0
        for size in sizes:
            yield PacketBatch(*(column[lo : lo + size] for column in whole))
            lo += size

    # The sizes cross the 256-packet window edges; the last batch is empty.
    sizes = [1, 5, 100, 7, 884, 1000]
    one_shot = list(build_windows([packets], fixed_key, 256))
    streamed = list(build_windows(chunked(packets, sizes), fixed_key, 256))
    assert [len(b.timestamp_us) for b in chunked(packets, sizes)] == [1, 5, 100, 7, 884, 0]
    assert one_shot == streamed
    assert [m.packet_count for m in streamed] == [256, 256, 256, 229]


def counting_anonymizer(monkeypatch):
    """Wrap the builder's HMAC so that it logs the bytes of each address it hashes."""
    calls = []
    real_pseudonyms = matrix.pseudonyms

    def pseudonyms(key, ip_version, addrs):
        calls.extend(addrs.view(f"V{addrs.dtype.itemsize}").tolist())
        return real_pseudonyms(key, ip_version, addrs)

    monkeypatch.setattr(matrix, "pseudonyms", pseudonyms)
    return calls


def test_addresses_are_hashed_once_across_windows(fixed_key, monkeypatch):
    calls = counting_anonymizer(monkeypatch)
    pairs = [((10, 0, 0, i % 7), (10, 0, 1, i % 5)) for i in range(1000)]
    windows = list(build_windows(stream(pairs), fixed_key, 16))
    assert len(windows) == 63
    assert sorted(calls) == sorted({bytes(a) for pair in pairs for a in pair})


def test_address_memo_is_dropped_past_its_bound(fixed_key, monkeypatch):
    calls = counting_anonymizer(monkeypatch)
    limit = matrix._ID_MEMO_LIMIT
    first = make_packet(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02")
    # Two new addresses per packet until the memo passes its bound.
    fresh = (
        make_packet(i.to_bytes(4, "big"), (i + 1).to_bytes(4, "big"))
        for i in range(1 << 24, (1 << 24) + limit + 2, 2)
    )
    packets = [first, *fresh, first]
    # The repeat comes in a second batch: within one batch it would share
    # the first one's lookup.
    list(build_windows([batch(packets[:-1]), batch(packets[-1:])], fixed_key, 2))
    # Only `first`'s two addresses repeat, and each is hashed again.
    assert calls.count(first.src_ip) == calls.count(first.dst_ip) == 2
    assert len(calls) == 2 * len(packets)


def test_each_batch_is_pseudonymized_once(fixed_key, monkeypatch):
    calls = []
    slots = matrix._Memo.slots

    def counted(memo, versions, src, dst):
        calls.append(len(versions))
        return slots(memo, versions, src, dst)

    monkeypatch.setattr(matrix._Memo, "slots", counted)
    pairs = [((10, 0, 0, i % 7), (10, 0, 1, i % 5)) for i in range(1000)]
    windows = list(build_windows(stream(pairs), fixed_key, 2))
    assert len(windows) == 500
    assert calls == [1000]


def test_each_batch_hashes_at_most_once_per_ip_version(fixed_key, monkeypatch):
    calls = []
    real_pseudonyms = matrix.pseudonyms

    def pseudonyms(key, ip_version, addrs):
        calls[-1].append(ip_version)
        return real_pseudonyms(key, ip_version, addrs)

    def batches():
        rng = random.Random(3)
        for b in range(6):
            calls.append([])
            yield batch(Packet(i, 4, bytes((10, 0, 0, rng.randrange(40))),
                               bytes((10, 0, 1, rng.randrange(40))))
                        if rng.random() < 0.5 else
                        Packet(i, 6, b"\xfd" + bytes(14) + bytes((rng.randrange(40),)),
                               b"\xfe" + bytes(14) + bytes((rng.randrange(40),)))
                        for i in range(b * 300, (b + 1) * 300))

    monkeypatch.setattr(matrix, "pseudonyms", pseudonyms)
    windows = list(build_windows(batches(), fixed_key, 64))
    assert sum(m.packet_count for m in windows) == 1800
    assert len(calls) == 6 and calls[0] == [4, 6]
    assert all(len(set(versions)) == len(versions) for versions in calls)


def test_a_window_is_summed_once_per_doubling_of_its_cells(fixed_key, monkeypatch):
    calls = []
    sum_cells = matrix._sum_cells

    def counted(parts, sort):
        calls.append(len(parts))
        return sum_cells(parts, sort)

    monkeypatch.setattr(matrix, "_sum_cells", counted)
    counting_anonymizer(monkeypatch)
    # 64 batches of 1 000 cells, every cell new: sources 10.0.0.i>>8, destinations 10.1.0.i&255.
    batches = [batch(make_packet(bytes((10, 0, 0, i >> 8)), bytes((10, 1, 0, i & 255)), i)
                     for i in range(b * 1000, (b + 1) * 1000))
               for b in range(64)]
    (m,) = build_windows(batches, fixed_key, 1 << 17)
    assert len(cells(m)) == m.packet_count == 64_000
    # Batch k is folded in once the waiting packets outnumber the summed
    # cells: after batches 1, 3, 7, 15, 31 and 63; the close sums the rest.
    assert calls == [1, 3, 5, 9, 17, 33, 2]


def brute_force_windows(key, packets, window_size, anonymize=anonymize_ip):
    """Each window counted packet by packet, with ``anonymize`` per address."""
    ids = {}

    def pseudonym(version, ip):
        if (version, ip) not in ids:
            ids[version, ip] = anonymize(key, version, ip)
        return ids[version, ip]

    windows = []
    for lo in range(0, len(packets), window_size):
        window = packets[lo : lo + window_size]
        entries: dict = {}
        for p in window:
            cell = (pseudonym(p.ip_version, p.src_ip), pseudonym(p.ip_version, p.dst_ip))
            entries[cell] = entries.get(cell, 0) + 1
        times = [p.timestamp_us for p in window]
        windows.append(TrafficMatrix.from_entries(window_size, len(window), min(times),
                                                  max(times), key.key_id, entries))
    return windows


def mixed_stream(hosts, packets, sizes, seed):
    """Random IPv4 and IPv6 packets between ``hosts`` hosts, and the same
    packets cut into batches of the given sizes (the rest in a last one)."""
    rng = random.Random(seed)
    addresses = [(4, (0x0A000000 + h).to_bytes(4, "big")) if rng.random() < 0.5
                 else (6, b"\xfd" + bytes(11) + h.to_bytes(4, "big"))
                 for h in range(hosts)]
    by_version = {v: [a for a in addresses if a[0] == v] for v in (4, 6)}
    stream_packets = []
    for _ in range(packets):
        group = by_version[rng.choice((4, 6))] or addresses
        (version, src), (_, dst) = rng.choice(group), rng.choice(group)
        stream_packets.append(Packet(rng.randrange(1 << 40), version, src, dst))
    cuts = [0]
    for size in sizes:
        cuts.append(min(packets, cuts[-1] + size))
    cuts.append(packets)
    return stream_packets, [batch(stream_packets[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


@settings(max_examples=100, deadline=None)
@given(hosts=st.integers(2, 5000), packets=st.integers(0, 5000),
       window_size=st.integers(1, 4096), sizes=st.lists(st.integers(0, 1500), max_size=10),
       seed=st.integers(0, 1 << 32))
def test_windows_equal_a_brute_force_count(hosts, packets, window_size, sizes, seed):
    key = AnonKey(bytes(range(32)))
    stream_packets, batches = mixed_stream(hosts, packets, sizes, seed)
    assert list(build_windows(batches, key, window_size)) == brute_force_windows(
        key, stream_packets, window_size)


@pytest.mark.parametrize("limit", [1, 8, 64])
@settings(max_examples=80, deadline=None)
@given(hosts=st.integers(2, 400), packets=st.integers(0, 1500),
       window_size=st.integers(1, 1024), sizes=st.lists(st.integers(0, 120), max_size=24),
       seed=st.integers(0, 1 << 32))
def test_windows_equal_a_brute_force_count_across_memo_restarts(
        limit, hosts, packets, window_size, sizes, seed):
    key = AnonKey(bytes(range(32)))
    stream_packets, batches = mixed_stream(hosts, packets, sizes, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_ID_MEMO_LIMIT", limit)
        windows = list(build_windows(batches, key, window_size))
    assert windows == brute_force_windows(key, stream_packets, window_size)


def test_a_window_past_the_memo_limit_restarts_it_once_per_doubling(fixed_key, monkeypatch):
    restarts = []
    restart = matrix._Memo.restart

    def counted(memo, parts):
        restarts.append(len(memo))
        return restart(memo, parts)

    monkeypatch.setattr(matrix._Memo, "restart", counted)
    monkeypatch.setattr(matrix, "_ID_MEMO_LIMIT", 8)
    # 64 batches of 16 packets in one window, each packet between two new hosts.
    packets = [make_packet((i << 1).to_bytes(4, "big"), (i << 1 | 1).to_bytes(4, "big"), i)
               for i in range(1 << 10)]
    batches = [batch(packets[lo : lo + 16]) for lo in range(0, len(packets), 16)]
    (m,) = build_windows(batches, fixed_key, 1 << 20)
    assert m == brute_force_windows(fixed_key, packets, 1 << 20)[0]
    # The first restart keeps the first batch's 32 addresses, and each one
    # after waits for the table to pass twice what the one before kept.
    assert restarts == [32, 96, 224, 480, 992, 2016]
    assert len(restarts) <= (2 * len(packets) // 32).bit_length()


def test_a_memo_restart_keeps_the_open_window_addresses_hashed(fixed_key, monkeypatch):
    calls = counting_anonymizer(monkeypatch)
    restarts = []
    restart = matrix._Memo.restart

    def counted(memo, parts):
        restarts.append(len(memo))
        return restart(memo, parts)

    monkeypatch.setattr(matrix._Memo, "restart", counted)
    monkeypatch.setattr(matrix, "_ID_MEMO_LIMIT", 8)

    def fresh(i):  # a packet between two addresses seen nowhere else
        return make_packet((i << 1).to_bytes(4, "big"), (i << 1 | 1).to_bytes(4, "big"), i)

    closed = fresh(100)  # in the first window, which closes before the restart
    kept_v4 = fresh(200)
    kept_v6 = Packet(201, 6, b"\xfd" + bytes(15), b"\xfe" + bytes(15))
    first = [closed, *map(fresh, range(1, 16)), kept_v4, kept_v6, *map(fresh, range(16, 20))]
    again = [kept_v6, closed, kept_v4]
    packets = first + again
    windows = list(build_windows([batch(first), batch(again)], fixed_key, 16))
    assert windows == brute_force_windows(fixed_key, packets, 16)
    assert restarts == [44]  # after the first batch, keeping the second window's 12
    for p in (kept_v4, kept_v6):
        assert calls.count(p.src_ip) == calls.count(p.dst_ip) == 1
    assert calls.count(closed.src_ip) == calls.count(closed.dst_ip) == 2


def test_addresses_that_share_a_pseudonym_share_their_cells(fixed_key, monkeypatch):
    """Distinct addresses, of either IP version, whose pseudonyms are equal
    have distinct slots but are counted in one cell, as the pseudonyms say."""
    real_pseudonyms = matrix.pseudonyms

    def colliding(key, ip_version, addrs):
        return real_pseudonyms(key, ip_version, addrs) % np.uint64(5)

    def colliding_ip(key, ip_version, ip):
        return anonymize_ip(key, ip_version, ip) % 5

    monkeypatch.setattr(matrix, "pseudonyms", colliding)
    stream_packets, batches = mixed_stream(60, 3000, [100, 900, 5, 700], seed=8)
    for limit in (matrix._ID_MEMO_LIMIT, 4):
        monkeypatch.setattr(matrix, "_ID_MEMO_LIMIT", limit)
        windows = list(build_windows(batches, fixed_key, 1024))
        assert windows == brute_force_windows(fixed_key, stream_packets, 1024, colliding_ip)
        assert all(len(cells(m)) <= 25 for m in windows)


def test_folds_sum_slots_and_only_a_closing_window_is_lexsorted(fixed_key, monkeypatch):
    calls = {"lexsort": 0, "slot_order": 0}

    def counting(name, sort):
        def counted(rows, cols):
            calls[name] += 1
            return sort(rows, cols)
        return counted

    monkeypatch.setattr(matrix, "_lexsort", counting("lexsort", matrix._lexsort))
    monkeypatch.setattr(matrix, "_slot_order", counting("slot_order", matrix._slot_order))
    # 64 batches of 1 000 packets, every cell new, in windows of 8 192 packets.
    batches = [batch(make_packet(bytes((10, 0, 0, i >> 8)), bytes((10, 1, 0, i & 255)), i)
                     for i in range(b * 1000, (b + 1) * 1000))
               for b in range(64)]
    windows = list(build_windows(batches, fixed_key, 1 << 13))
    assert [m.packet_count for m in windows] == [1 << 13] * 7 + [64_000 - 7 * (1 << 13)]
    assert calls["lexsort"] == len(windows)
    assert calls["slot_order"] >= 2 * len(windows)


def assert_like_unique(keys: np.ndarray) -> None:
    distinct, inverse = matrix._distinct(keys)
    expected, expected_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == expected.dtype and np.array_equal(distinct, expected)
    assert inverse.dtype == expected_inverse.dtype
    assert np.array_equal(inverse, expected_inverse)


U32_EDGES = [0, 1, 2, 1 << 31, (1 << 32) - 1]


@pytest.mark.parametrize("values", [[], [7], [(1 << 32) - 1] * 5, U32_EDGES[::-1] * 3,
                                    [0, (1 << 32) - 1] * 200])
def test_distinct_ipv4_keys_are_np_unique_on_edge_cases(values):
    assert_like_unique(np.array(values, np.uint64).astype(">u4"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(U32_EDGES), st.integers(0, 9),
                          st.integers(0, (1 << 32) - 1)), max_size=400))
def test_distinct_ipv4_keys_are_np_unique(values):
    assert_like_unique(np.array(values, np.uint64).astype(">u4"))


V16_EDGES = [bytes(16), b"\xff" * 16, bytes(15) + b"\x01", b"\x01" + bytes(15)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(V16_EDGES), st.binary(min_size=16, max_size=16)),
                max_size=200))
def test_distinct_ipv6_keys_are_np_unique(values):
    assert_like_unique(np.frombuffer(b"".join(values), "V16"))


def mixed_capture(packets: int, seed: int) -> bytes:
    """Ethernet capture of IPv4 and IPv6 packets between a few dozen hosts."""
    rng = random.Random(seed)
    out = bytearray(pcap_header())
    for i in range(packets):
        if rng.random() < 0.3:
            frame = eth_frame(ipv6_packet(f"fd00::{rng.randrange(40):x}",
                                          f"fd00::{rng.randrange(40):x}"), ethertype=0x86DD)
        else:
            frame = eth_frame(ipv4_packet(f"10.0.0.{rng.randrange(60)}",
                                          f"10.0.1.{rng.randrange(60)}", b"x" * 250))
        out += pcap_record(frame, ts_sec=rng.randrange(1 << 20), ts_frac=i)
    return bytes(out)


@pytest.mark.parametrize("window_size", [1, 2, 7, 1024])
def test_parser_batches_build_equal_windows_through_a_generator(fixed_key, window_size):
    data = mixed_capture(3000, window_size)
    assert len(data) > 2 * READ_CHUNK  # several parser chunks
    direct = list(build_windows(parse_pcap(io.BytesIO(data))[0], fixed_key, window_size))

    def passed_through(batches):  # a plain generator, as a tracing wrapper hands them on
        for b in batches:
            yield b

    wrapped = list(build_windows(passed_through(parse_pcap(io.BytesIO(data))[0]),
                                 fixed_key, window_size))
    assert direct == wrapped
    assert sum(m.packet_count for m in wrapped) == 3000
    assert len(wrapped) == -(-3000 // window_size)


def test_batch_with_unknown_ip_version_is_rejected(fixed_key):
    good = make_packet(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02")
    bad = Packet(0, 5, b"\x0a" * 4, b"\x0a" * 4)
    with pytest.raises(ValueError, match="ip_version must be 4 or 6, got 5"):
        list(build_windows([batch([good, bad])], fixed_key, 16))


def test_trailing_partial_window_emitted(fixed_key):
    pairs = [((10, 0, 0, 1), (10, 0, 0, 2))] * 700
    ms = list(build_windows(stream(pairs), fixed_key, 256))
    assert [m.packet_count for m in ms] == [256, 256, 188]
    for m in ms:
        m.validate()


def test_window_size_below_one_rejected(fixed_key):
    with pytest.raises(ValueError):
        list(build_windows([], fixed_key, 0))


def test_merge_with_empty_is_identity(fixed_key):
    pairs = [((10, 0, 0, 1), (10, 0, 0, 2))] * 3
    (m,) = build_windows(stream(pairs, ts_start=50), fixed_key, 1 << 10)
    for combined in (merge([m, empty_like(m)]), merge([empty_like(m), m])):
        assert cells(combined) == cells(m)
        assert combined.packet_count == m.packet_count
        assert (combined.start_time_us, combined.end_time_us) == (50, 52)


def test_merge_self_doubles_everything(fixed_key):
    pairs = [((10, 0, 0, 1), (10, 0, 0, 2))] * 3 + [((10, 0, 0, 2), (10, 0, 0, 1))]
    (m,) = build_windows(stream(pairs), fixed_key, 1 << 10)
    doubled = merge([m, m])
    assert doubled.packet_count == 2 * m.packet_count
    assert cells(doubled) == {cell: 2 * n for cell, n in cells(m).items()}
    assert doubled.window_size == m.window_size


def test_merge_rejects_different_keys():
    a = TrafficMatrix.from_entries(1024, 0, 0, 0, b"\x01" * 8, {})
    b = TrafficMatrix.from_entries(1024, 0, 0, 0, b"\x02" * 8, {})
    with pytest.raises(KeyMismatch):
        merge([a, b])


def test_merge_rejects_different_window_sizes():
    a = TrafficMatrix.from_entries(1024, 0, 0, 0, b"\x01" * 8, {})
    b = TrafficMatrix.from_entries(2048, 0, 0, 0, b"\x01" * 8, {})
    with pytest.raises(WindowSizeMismatch):
        merge([a, b])


entries_strategy = st.dictionaries(
    st.tuples(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1)),
    st.integers(1, 1 << 20),
    max_size=30,
)


def matrix_from(entries, start=1000):
    total = sum(entries.values())
    if total == 0:
        return TrafficMatrix.from_entries(512, 0, 0, 0, b"\x09" * 8, {})
    return TrafficMatrix.from_entries(512, total, start, start + 500, b"\x09" * 8,
                                      dict(entries))


@settings(max_examples=100, deadline=None)
@given(entries_strategy, entries_strategy, st.integers(0, 1 << 30))
def test_merge_commutes(e1, e2, start):
    a, b = matrix_from(e1), matrix_from(e2, start)
    assert merge([a, b]) == merge([b, a])


@settings(max_examples=100, deadline=None)
@given(entries_strategy, entries_strategy, entries_strategy)
def test_merge_associates(e1, e2, e3):
    a, b, c = matrix_from(e1), matrix_from(e2, 77), matrix_from(e3, 123456)
    assert merge([merge([a, b]), c]) == merge([a, merge([b, c])])


@settings(max_examples=100, deadline=None)
@given(entries_strategy, entries_strategy, entries_strategy)
def test_merge_n_ary_equals_pairwise_fold(e1, e2, e3):
    a, b, c = matrix_from(e1), matrix_from(e2, 77), matrix_from(e3, 123456)
    assert merge([a, b, c]) == merge([merge([a, b]), c])
    assert merge([a]) == a


@pytest.mark.parametrize(
    "third, error",
    [
        (TrafficMatrix.from_entries(512, 0, 0, 0, b"\x02" * 8, {}), KeyMismatch),
        (TrafficMatrix.from_entries(1024, 0, 0, 0, b"\x09" * 8, {}), WindowSizeMismatch),
    ],
)
def test_merge_checks_every_argument(third, error):
    a, b = matrix_from({(1, 2): 3}), matrix_from({(2, 1): 1})
    with pytest.raises(error):
        merge([a, b, third])


@settings(max_examples=100, deadline=None)
@given(entries_strategy, entries_strategy)
def test_merge_conserves_mass_and_validates(e1, e2):
    a, b = matrix_from(e1), matrix_from(e2)
    combined = merge([a, b])
    combined.validate()
    assert combined.packet_count == a.packet_count + b.packet_count
    assert sum(cells(combined).values()) == combined.packet_count


@pytest.mark.parametrize(
    "bad",
    [
        (0, 0, 0, 0, b"\x01" * 8, {}),               # window < 1
        (8, 1, 0, 0, b"\x01" * 4, {(1, 2): 1}),      # short key_id
        (8, 2, 0, 0, b"\x01" * 8, {(1, 2): 1}),      # count mismatch
        (8, 1, 0, 0, b"\x01" * 8, {(1, 2): 0}),      # zero entry
        (8, 1, 0, 0, b"\x01" * 8, {(1 << 64, 2): 1}),  # row overflow
        (8, 1, 5, 4, b"\x01" * 8, {(1, 2): 1}),      # start > end
        (8, 0, 1, 1, b"\x01" * 8, {}),               # empty with times
    ],
)
def test_validate_rejects_broken_matrices(bad):
    with pytest.raises(InvariantViolation):
        TrafficMatrix.from_entries(*bad).validate()


@pytest.mark.parametrize("rows, cols", [
    ([2, 1], [1, 1]),  # rows go backwards
    ([1, 1], [5, 5]),  # the same cell twice
    ([1, 1], [5, 4]),  # columns go backwards within a row
])
def test_validate_rejects_cells_out_of_order(rows, cols):
    m = TrafficMatrix(8, 2, 0, 0, b"\x01" * 8, np.array(rows, np.uint64),
                      np.array(cols, np.uint64), np.ones(2, np.uint64))
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        m.validate()


def test_validate_sees_counts_summing_past_64_bits():
    m = TrafficMatrix.from_entries(8, 1, 0, 0, b"\x01" * 8, {(1, 2): (1 << 64) - 1,
                                                             (1, 3): 2})
    with pytest.raises(InvariantViolation, match="sum to 18446744073709551617"):
        m.validate()


@pytest.mark.parametrize("cell, count", [
    ((1 << 64, 2), 1), ((2, 1 << 64), 1), ((-1, 2), 1), ((1, -2), 1),
    ((1, 2), 1 << 64), ((1, 2), -1),
])
def test_from_entries_rejects_values_outside_64_bits(cell, count):
    with pytest.raises(InvariantViolation):
        TrafficMatrix.from_entries(8, 1, 0, 0, b"\x01" * 8, {cell: count})


def test_merge_rejects_packet_count_past_64_bits():
    m = TrafficMatrix.from_entries(8, 1 << 63, 1, 2, b"\x01" * 8, {(1, 2): 1 << 63})
    m.validate()
    with pytest.raises(InvariantViolation, match="64 bits"):
        merge([m, m])
    quarter = TrafficMatrix.from_entries(8, 1 << 62, 1, 2, b"\x01" * 8, {(1, 2): 1 << 62})
    merged = merge([quarter, quarter, quarter])
    merged.validate()
    assert cells(merged) == {(1, 2): 3 << 62}
    with pytest.raises(InvariantViolation, match="64 bits"):
        merge([merged, quarter])


@settings(max_examples=100, deadline=None)
@given(st.lists(entries_strategy, min_size=1, max_size=5))
def test_merge_empties_its_list_and_sums_the_cells(entries):
    ms = [matrix_from(e, 1000 + i) for i, e in enumerate(entries)]
    copies = [matrix_from(e, 1000 + i) for i, e in enumerate(entries)]
    summed = Counter()
    for e in entries:
        summed.update(e)
    timed = [m for m in ms if m.packet_count]
    expected = TrafficMatrix.from_entries(
        512, sum(m.packet_count for m in ms),
        min((m.start_time_us for m in timed), default=0),
        max((m.end_time_us for m in timed), default=0), b"\x09" * 8, summed)
    consumed = list(ms)
    assert merge(consumed) == expected
    assert consumed == []
    assert ms == copies  # the inputs themselves are not changed


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad, error", [
    (TrafficMatrix.from_entries(512, 1, 1, 2, b"\x02" * 8, {(1, 2): 1}), KeyMismatch),
    (TrafficMatrix.from_entries(1024, 1, 1, 2, b"\x09" * 8, {(1, 2): 1}), WindowSizeMismatch),
    (TrafficMatrix.from_entries(512, (1 << 64) - 1, 1, 2, b"\x09" * 8,
                                {(1, 2): (1 << 64) - 1}), InvariantViolation),
])
def test_merge_list_leaves_its_list_whole_on_a_mismatch(bad, error, at):
    ms = [matrix_from({(1, 2): 3}), matrix_from({(2, 1): 1})]
    ms.insert(at, bad)
    given_list = list(ms)
    with pytest.raises(error):
        merge(ms)
    assert len(ms) == 3 and all(m is g for m, g in zip(ms, given_list))


def test_merge_frees_each_input_before_it_sorts(monkeypatch):
    ms = [matrix_from({(i, j): 1 + i + j for j in range(5)}) for i in range(4)]
    refs = [weakref.ref(m) for m in ms]
    alive_at_sort = []
    real_argsort = np.argsort

    def argsort(*args, **kwargs):
        alive_at_sort.append(sum(ref() is not None for ref in refs))
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    merged = merge(ms)
    assert alive_at_sort == [0]
    assert merged.packet_count == sum(1 + i + j for i in range(4) for j in range(5))


def test_builder_output_validates_and_is_sorted_on_demand(fixed_key):
    rng = random.Random(3)
    pairs = [
        ((10, 0, 0, rng.randrange(1, 30)), (10, 0, 2, rng.randrange(1, 30)))
        for _ in range(500)
    ]
    for m in build_windows(stream(pairs), fixed_key, 128):
        m.validate()
        in_order = list(cells(m))
        assert in_order == sorted(in_order)
