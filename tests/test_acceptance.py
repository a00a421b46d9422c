"""End-to-end acceptance criteria for the sensor pipeline.

Eight criteria, one test each, every one printing a single
`[acceptance] <criterion>: PASS/FAIL ...` line with the measured numbers
(visible with `pytest -s`, or in the failure report if a criterion fails).
All tolerances are asserted exactly as stated in each test's docstring.
"""

import functools
import hashlib
import hmac
import io
import os
import random
import textwrap
import time

import numpy as np
import pytest

from tmsensor import cli
from tmsensor.analytics import AnalysisReport, analyze_many
from tmsensor.anon import AnonKey, anonymize_ip, save_key
from tmsensor.matrix import build_windows, merge
from tmsensor.pcap import PacketBatch, parse_pcap
from tmsensor.synth import SynthSpec, synthesize
from tmsensor.tmf import read_tmf, write_tmf

from conftest import eth_ipv4_capture, pcap_header, random_matrix, run_python

KEY = AnonKey(bytes(range(32)))

REFERENCE_SPEC = SynthSpec(
    host_count=256,
    packet_count=200_000,
    zipf_exponent=1.2,
    payload_len_range=(64, 600),
    seed=1,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def reference_capture(tmp_path_factory):
    """The reference synthetic workload, generated once, with its synth time."""
    path = tmp_path_factory.mktemp("reference") / "reference.pcap"
    started = time.monotonic()
    with open(path, "wb") as f:
        truth = synthesize(REFERENCE_SPEC, f)
    return str(path), truth, time.monotonic() - started


def test_criterion_1_compression_ratio(reference_capture, tmp_path):
    """Reference workload compresses ≥ 1000x, end to end in < 60 s."""
    pcap_path, _, synth_seconds = reference_capture
    started = time.monotonic()
    summary = cli.convert_file(KEY, 1 << 17, pcap_path, str(tmp_path))
    elapsed = synth_seconds + (time.monotonic() - started)
    ratio = summary["pcap_bytes"] / summary["tmf_bytes"]
    report(
        "1 compression",
        ratio >= 1000 and elapsed < 60,
        f"pcap={summary['pcap_bytes']}B tmf={summary['tmf_bytes']}B "
        f"ratio={ratio:.1f} runtime={elapsed:.2f}s",
    )


def test_criterion_2_resource_envelope(reference_capture, tmp_path):
    """The same conversion: < 10 s, ≤ 4 threads, < 512 MB peak RSS."""
    pcap_path, _, _ = reference_capture
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out, peak_mb = run_python(textwrap.dedent("""\
        import sys, time
        from tmsensor.anon import AnonKey
        from tmsensor.cli import convert_file

        key = AnonKey(bytes(range(32)))
        started = time.monotonic()
        summary = convert_file(key, 1 << 17, sys.argv[1], sys.argv[2])
        elapsed = time.monotonic() - started
        with open("/proc/self/status") as f:
            threads = next(
                int(line.split()[1]) for line in f if line.startswith("Threads:")
            )
        print(elapsed, threads, summary["tmf_bytes"])
    """), pcap_path, str(out_dir))
    elapsed, threads = out.split()[:2]
    elapsed, threads = float(elapsed), int(threads)
    report(
        "2 resources",
        elapsed < 10 and threads <= 4 and peak_mb < 512,
        f"time={elapsed:.2f}s threads={threads} peak={peak_mb:.0f}MB",
    )


def oracle_report(pairs) -> AnalysisReport:
    """Brute-force hash-map recount from a raw anonymized packet list."""
    links: dict = {}
    for pair in pairs:
        links[pair] = links.get(pair, 0) + 1
    row_pk: dict = {}
    col_pk: dict = {}
    row_fo: dict = {}
    col_fi: dict = {}
    for (s, d), c in links.items():
        row_pk[s] = row_pk.get(s, 0) + c
        col_pk[d] = col_pk.get(d, 0) + c
        row_fo[s] = row_fo.get(s, 0) + 1
        col_fi[d] = col_fi.get(d, 0) + 1
    fo_hist: dict = {}
    for deg in row_fo.values():
        fo_hist[deg] = fo_hist.get(deg, 0) + 1
    fi_hist: dict = {}
    for deg in col_fi.values():
        fi_hist[deg] = fi_hist.get(deg, 0) + 1
    return AnalysisReport(
        valid_packets=sum(links.values()),
        unique_links=len(links),
        unique_sources=len(row_pk),
        unique_destinations=len(col_pk),
        max_link_packets=max(links.values(), default=0),
        max_source_packets=max(row_pk.values(), default=0),
        max_source_fanout=max(row_fo.values(), default=0),
        max_destination_packets=max(col_pk.values(), default=0),
        max_destination_fanin=max(col_fi.values(), default=0),
        fanout_histogram=fo_hist,
        fanin_histogram=fi_hist,
    )


def test_criterion_3_oracle_equivalence():
    """100 randomized packet lists: build→analyze == brute force, < 60 s."""
    started = time.monotonic()
    master = random.Random(1234)
    checked = 0
    for case in range(100):
        rng = random.Random(master.randrange(1 << 48))
        n_packets = 100_000 if case == 0 else (0 if case == 1 else rng.randrange(3000))
        n_hosts = rng.randint(2, 512)
        hosts = [bytes([10, h >> 8, h & 0xFF, 1]) for h in range(n_hosts)]
        host_ids = [anonymize_ip(KEY, 4, host) for host in hosts]
        host_rows = np.zeros((n_hosts, 16), np.uint8)  # an IPv4 address fills 4 bytes
        host_rows[:, :4] = np.frombuffer(b"".join(hosts), np.uint8).reshape(-1, 4)
        window = rng.choice([1, 7, 64, 1024, 1 << 30])

        pairs = [rng.sample(range(n_hosts), 2) for _ in range(n_packets)]
        src, dst = np.array(pairs, np.intp).reshape(-1, 2).T
        packets = PacketBatch(np.arange(n_packets, dtype=np.int64),
                              np.full(n_packets, 4, np.uint8), host_rows[src], host_rows[dst])
        anonymized = [(host_ids[s], host_ids[d]) for s, d in pairs]

        matrices = list(build_windows([packets], KEY, window))
        reports, merged = analyze_many(matrices)
        assert merged == oracle_report(anonymized)
        for w, r in enumerate(reports):
            assert r == oracle_report(anonymized[w * window : (w + 1) * window])
        checked += 1
    elapsed = time.monotonic() - started
    report(
        "3 oracle equivalence",
        checked == 100 and elapsed < 60,
        f"lists={checked} runtime={elapsed:.1f}s",
    )


def corpus_for_conservation(tmp_dir):
    """Captures of every texture: clean, truncated, mixed, empty, synthetic."""
    yield pcap_header()
    three = eth_ipv4_capture(
        [("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.1")]
    )
    yield three
    for cut in range(24, len(three)):
        yield three[:cut]
    for seed in (1, 2, 3):
        buf = io.BytesIO()
        synthesize(SynthSpec(host_count=32, packet_count=2500, seed=seed), buf)
        data = buf.getvalue()
        yield data
        yield data[: len(data) * 2 // 3]
        yield data[:-11]


def test_criterion_4_conservation(tmp_path):
    """Σ packet_count over emitted matrices == valid_ip_packets. Exact."""
    captures = 0
    for data in corpus_for_conservation(tmp_path):
        batches, stats = parse_pcap(io.BytesIO(data))
        matrices = list(build_windows(batches, KEY, 512))
        assert sum(m.packet_count for m in matrices) == stats.valid_ip_packets
        assert stats.total_records == (
            stats.valid_ip_packets + stats.skipped_non_ip + stats.skipped_malformed
        )
        captures += 1
    report("4 conservation", captures > 100, f"captures={captures}, all exact")


def test_criterion_5_round_trip_and_canonical_bytes():
    """100 random matrix sequences: read(write(x)) == x; rewrite is
    byte-identical."""
    rng = random.Random(777)
    for _ in range(100):
        key_id = rng.randbytes(8)
        window = 1 << rng.randint(10, 24)
        ms = [
            random_matrix(rng, key_id=key_id, window_size=window,
                          max_entries=rng.randint(0, 120))
            for _ in range(rng.randint(1, 6))
        ]
        compress = rng.random() < 0.8
        buf = io.BytesIO()
        write_tmf(ms, buf, compress=compress)
        data = buf.getvalue()

        decoded = read_tmf(io.BytesIO(data))
        assert decoded == ms

        buf2 = io.BytesIO()
        write_tmf(decoded, buf2, compress=compress)
        assert buf2.getvalue() == data
    report("5 round-trip", True, "100 sequences, canonical bytes held")


def test_criterion_6_anonymizer():
    """Determinism, domain separation, independent HMAC vectors, and zero
    collisions across 10^5 distinct addresses. Exact."""
    zero_key = AnonKey(bytes(32))
    # Independent implementation: raw ipad/opad construction, no hmac module.
    block = bytes(32).ljust(64, b"\x00")
    inner = hashlib.sha256(
        bytes(b ^ 0x36 for b in block) + b"\x04" + bytes([10, 0, 0, 1])
    ).digest()
    independent = int.from_bytes(
        hashlib.sha256(bytes(b ^ 0x5C for b in block) + inner).digest()[:8], "big"
    )
    vector_ok = (
        anonymize_ip(zero_key, 4, bytes([10, 0, 0, 1]))
        == independent
        == 0x3FEC188E422215B7
    )

    rng = random.Random(31337)
    cross_ok = all(
        anonymize_ip(KEY, 4, ip)
        == int.from_bytes(
            hmac.new(KEY.key_bytes, b"\x04" + ip, hashlib.sha256).digest()[:8], "big"
        )
        for ip in (rng.randbytes(4) for _ in range(1000))
    )

    deterministic = all(
        anonymize_ip(KEY, 4, bytes([1, 2, 3, i]))
        == anonymize_ip(KEY, 4, bytes([1, 2, 3, i]))
        for i in range(256)
    )
    separated = anonymize_ip(KEY, 4, bytes([1, 2, 3, 4])) != anonymize_ip(
        KEY, 6, bytes([1, 2, 3, 4]) + bytes(12)
    )

    ips = set()
    while len(ips) < 100_000:
        ips.add(rng.randbytes(4))
    ids = {anonymize_ip(KEY, 4, ip) for ip in ips}
    collision_free = len(ids) == 100_000

    report(
        "6 anonymizer",
        vector_ok and cross_ok and deterministic and separated and collision_free,
        f"vectors ok, {len(ids)} ids from 100000 addresses",
    )


def test_criterion_7_merge_algebra():
    """merge is commutative/associative; 8 merged windows equal one 8x
    window build. Exact."""
    rng = random.Random(2024)
    algebra_ok = True
    for _ in range(50):
        a = random_matrix(rng, key_id=b"\x07" * 8)
        b = random_matrix(rng, key_id=b"\x07" * 8)
        c = random_matrix(rng, key_id=b"\x07" * 8)
        algebra_ok &= merge(a, b) == merge(b, a)
        algebra_ok &= merge(merge(a, b), c) == merge(a, merge(b, c))

    window = 1024
    buf = io.BytesIO()
    synthesize(
        SynthSpec(host_count=64, packet_count=8 * window, seed=55), buf
    )
    buf.seek(0)
    batches = list(parse_pcap(buf)[0])

    small = list(build_windows(batches, KEY, window))
    assert len(small) == 8
    shuffled = small[:]
    rng.shuffle(shuffled)
    combined = functools.reduce(merge, shuffled)
    (big,) = build_windows(batches, KEY, 8 * window)

    equivalent = (
        combined.entries == big.entries
        and combined.packet_count == big.packet_count
        and combined.start_time_us == big.start_time_us
        and combined.end_time_us == big.end_time_us
        and combined.key_id == big.key_id
    )
    report(
        "7 merge algebra",
        algebra_ok and equivalent,
        f"8x{window} windows merge == one {8 * window} window",
    )


def test_criterion_8_sidecar_watch(tmp_path, capsys):
    """Watch loop: 3 drops (one truncated) → 3 TMFs, journal idempotent
    across restart, truncation warned. Deterministic."""
    in_dir = tmp_path / "drop"
    out_dir = tmp_path / "sink"
    in_dir.mkdir()
    out_dir.mkdir()
    key_path = tmp_path / "key.bin"
    with open(key_path, "wb") as f:
        save_key(KEY, f)
    config = tmp_path / "sensor.cfg"
    config.write_text(
        f"key_path = {key_path}\n"
        f"input_dir = {in_dir}\n"
        f"output_dir = {out_dir}\n"
        "window_size = 1024\n"
        "quiescence_secs = 3600\n"
    )

    for index, seed in enumerate((101, 102, 103)):
        path = in_dir / f"hour{index}.pcap"
        with open(path, "wb") as f:
            synthesize(SynthSpec(host_count=24, packet_count=1500, seed=seed), f)
        if index == 2:
            data = path.read_bytes()
            path.write_bytes(data[:-13])  # cut mid-record
        then = time.time() - 7200
        os.utime(path, (then, then))

    assert cli.main(["watch", "--config", str(config), "--once"]) == 0
    first_run = sorted(
        p.name for p in out_dir.iterdir() if p.name.endswith(".tmf")
    )
    journal_lines = (out_dir / "tmsensor.journal").read_text().splitlines()
    warned = "truncated" in capsys.readouterr().err

    assert cli.main(["watch", "--config", str(config), "--once"]) == 0
    second_run = sorted(
        p.name for p in out_dir.iterdir() if p.name.endswith(".tmf")
    )
    journal_after = (out_dir / "tmsensor.journal").read_text().splitlines()

    ok = (
        len(first_run) == 3
        and len(journal_lines) == 3
        and warned
        and second_run == first_run
        and journal_after == journal_lines
    )
    report(
        "8 sidecar watch",
        ok,
        f"tmf={len(first_run)} journal={len(journal_lines)} "
        f"idempotent={second_run == first_run} truncation_warned={warned}",
    )
