"""The three workloads: their cached inputs, per-pass specs and output checks.

- ``spool``: one ``watch --once`` pass with the default config over
  ``SPOOL_CAPTURES`` REF-shaped captures (256 hosts, Zipf 1.2, 64-600 B
  payloads), the daemon path the sensor is deployed on. Parsing large
  frames, hashing, renames and the journal fsync dominate.
- ``hicard``: one ``convert`` of a HICARD-shaped capture (65 536 hosts,
  Zipf 0.3, 0-16 B payloads) at window 1024, where nearly every packet is
  a new cell: aggregation, varint encoding, deflate and HMACs dominate.
- ``analyze``: ``tmsensor analyze --format json`` over 160 windows drawn
  from 5000 hosts: TMF read, per-window analysis and the merge.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

import inputs
from inputs import Packets
from oracle import (
    CheckFailed,
    check_hicard,
    check_identical,
    check_journal,
    check_report,
    check_spool,
    encode_tmf,
    expected_analyze,
    expected_windows,
    key_id,
    read_outputs,
)

JOURNAL_NAME = "tmsensor.journal"  # README: <output_dir>/tmsensor.journal


def prepare(name: str, seed: int, cache_root: Path):
    """Generate (or reuse) the inputs of one workload and seed, and its oracle."""
    cache = cache_root / f"{name}-{seed}"
    if not (cache / "ready").exists():
        # Only one seed per workload is kept; captures are tens of MB.
        for old in cache_root.glob(f"{name}-*"):
            shutil.rmtree(old)
        cache.mkdir(parents=True)
        key = inputs.key_bytes(seed)
        inputs.write_key_file(str(cache / "sensor.key"), key)
        _GENERATE[name](cache, seed)
        (cache / "ready").write_text("")
    return {"spool": Spool, "hicard": Hicard, "analyze": Analyze}[name](cache, seed)


def _save(path: Path, pk: Packets) -> None:
    np.savez(path, src=pk.src, dst=pk.dst, ts_us=pk.ts_us, payload_len=pk.payload_len)


def _load(path: Path) -> Packets:
    with np.load(path) as z:
        return Packets(z["src"], z["dst"], z["ts_us"], z["payload_len"])


def _generate_spool(cache: Path, seed: int) -> None:
    spool = cache / "spool"
    spool.mkdir()
    digests = {}
    old = time.time() - 86400  # older than the default quiescence of 120 s
    for i in range(inputs.SPOOL_CAPTURES):
        rng = inputs.rng_for("spool", seed, i)
        hosts = inputs.host_pool(rng, inputs.SPOOL_HOSTS)
        pk = inputs.zipf_packets(
            rng, hosts, inputs.SPOOL_PACKETS, inputs.SPOOL_ZIPF, inputs.SPOOL_PAYLOAD,
            inputs.BASE_TIME_US + i * inputs.CAPTURE_SPACING_US)
        name = f"capture-{i}.pcap"
        inputs.write_pcap(str(spool / name), pk, rng)
        os.utime(spool / name, (old, old))
        _save(cache / f"capture-{i}.npz", pk)
        digests[name] = hashlib.sha256((spool / name).read_bytes()).hexdigest()
    (cache / "digests.json").write_text(json.dumps(digests))


def _generate_hicard(cache: Path, seed: int) -> None:
    rng = inputs.rng_for("hicard", seed)
    hosts = inputs.host_pool(rng, inputs.HICARD_HOSTS)
    pk = inputs.zipf_packets(rng, hosts, inputs.HICARD_PACKETS, inputs.HICARD_ZIPF,
                             inputs.HICARD_PAYLOAD, inputs.BASE_TIME_US)
    inputs.write_pcap(str(cache / "capture.pcap"), pk, rng)
    _save(cache / "capture.npz", pk)


def _generate_analyze(cache: Path, seed: int) -> None:
    key = inputs.key_bytes(seed)
    hosts = inputs.host_pool(inputs.rng_for("analyze", seed), inputs.ANALYZE_HOSTS)
    per_file = inputs.ANALYZE_WINDOWS_PER_FILE * inputs.ANALYZE_WINDOW
    for i in range(inputs.ANALYZE_FILES):
        pk = inputs.zipf_packets(
            inputs.rng_for("analyze", seed, i + 1), hosts, per_file, inputs.ANALYZE_ZIPF,
            inputs.ANALYZE_PAYLOAD, inputs.BASE_TIME_US + i * inputs.CAPTURE_SPACING_US)
        _save(cache / f"part-{i}.npz", pk)
        windows = expected_windows(pk, key, inputs.ANALYZE_WINDOW)
        inputs.write_atomic(str(cache / f"part-{i}.tmf"),
                            encode_tmf(windows, inputs.ANALYZE_WINDOW, key_id(key)))


_GENERATE = {"spool": _generate_spool, "hicard": _generate_hicard,
             "analyze": _generate_analyze}


class _Workload:
    name = ""

    def __init__(self, cache: Path, seed: int):
        self.cache = cache
        self.key = inputs.key_bytes(seed)
        self.kid = key_id(self.key)
        self.key_path = str(cache / "sensor.key")
        self.tmf_bytes = None  # known once the outputs are read


class Spool(_Workload):
    name = "spool"

    def __init__(self, cache, seed):
        super().__init__(cache, seed)
        self.digests = json.loads((cache / "digests.json").read_text())
        self.expected = {}
        for i in range(inputs.SPOOL_CAPTURES):
            pk = _load(cache / f"capture-{i}.npz")
            self.expected[f"capture-{i}.pcap"] = expected_windows(
                pk, self.key, inputs.SPOOL_WINDOW)
        self.packets = inputs.SPOOL_CAPTURES * inputs.SPOOL_PACKETS
        self.capture_bytes = sum(os.path.getsize(p) for p in (cache / "spool").iterdir())

    def pass_spec(self, pass_dir: Path) -> dict:
        out = pass_dir / "out"
        out.mkdir(parents=True)
        config = pass_dir / "sensor.conf"
        config.write_text(f"key_path = {self.key_path}\n"
                          f"input_dir = {self.cache / 'spool'}\n"
                          f"output_dir = {out}\n")
        return {"config": str(config)}

    def check(self, pass_dirs: list[str]) -> None:
        files = [read_outputs(os.path.join(d, "out")) for d in pass_dirs]
        self.tmf_bytes = sum(len(b) for b in files[0].values())
        for d in pass_dirs:
            with open(os.path.join(d, "out", JOURNAL_NAME)) as f:
                check_journal(f.read(), self.digests)
        check_identical(files, "spool")
        check_spool(files[0], self.expected, inputs.SPOOL_WINDOW, self.kid)


class Hicard(_Workload):
    name = "hicard"

    def __init__(self, cache, seed):
        super().__init__(cache, seed)
        self.pcap = cache / "capture.pcap"
        self.expected = expected_windows(
            _load(cache / "capture.npz"), self.key, inputs.HICARD_WINDOW)
        self.packets = inputs.HICARD_PACKETS
        self.capture_bytes = os.path.getsize(self.pcap)

    def pass_spec(self, pass_dir: Path) -> dict:
        out = pass_dir / "out"
        out.mkdir(parents=True)
        return {"key": self.key_path, "pcap": str(self.pcap),
                "window": inputs.HICARD_WINDOW, "out_dir": str(out)}

    def check(self, pass_dirs: list[str]) -> None:
        files = [read_outputs(os.path.join(d, "out")) for d in pass_dirs]
        for d, f in zip(pass_dirs, files):
            if len(f) != 1:
                raise CheckFailed(f"hicard: {d} holds {len(f)} .tmf files, expected 1")
        (data,) = files[0].values()
        self.tmf_bytes = len(data)
        check_identical(files, "hicard")
        check_hicard(data, self.expected, inputs.HICARD_WINDOW, self.kid, self.packets)


class Analyze(_Workload):
    name = "analyze"

    def __init__(self, cache, seed):
        super().__init__(cache, seed)
        self.tmf = [str(cache / f"part-{i}.tmf") for i in range(inputs.ANALYZE_FILES)]
        parts = [_load(cache / f"part-{i}.npz") for i in range(inputs.ANALYZE_FILES)]
        self.expected = expected_analyze([
            (path, expected_windows(pk, self.key, inputs.ANALYZE_WINDOW))
            for path, pk in zip(self.tmf, parts)])
        self.packets = sum(len(pk.src) for pk in parts)
        # The captures these windows summarize are never written; their size
        # is what a PCAP of exactly these packets would take.
        self.capture_bytes = sum(pk.capture_bytes() for pk in parts)
        self.tmf_bytes = sum(os.path.getsize(p) for p in self.tmf)

    def pass_spec(self, pass_dir: Path) -> dict:
        pass_dir.mkdir(parents=True)
        return {"tmf": self.tmf, "report": str(pass_dir / "report.json")}

    def check(self, pass_dirs: list[str]) -> None:
        for d in pass_dirs:
            with open(os.path.join(d, "report.json")) as f:
                check_report(f.read(), self.expected)
