"""Command-line behavior: flags, exit codes, outputs, watch mode."""

import ast
import contextlib
import dataclasses
import errno
import fcntl
import hashlib
import io
import json
import os
import random
import re
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor import cli
from tmsensor.analytics import analyze_many
from tmsensor.anon import generate_key, load_key, save_key
from tmsensor.errors import BadMagic, ConfigError, JournalError
from tmsensor.matrix import TrafficMatrix
from tmsensor.pcap import MAX_RECORD_BUFFER, READ_CHUNK
from tmsensor.synth import SynthSpec, synthesize
from tmsensor.tmf import MAGIC, iter_tmf, read_tmf, write_tmf

from conftest import (
    SRC,
    eth_frame,
    eth_ipv4_capture,
    ipv4_packet,
    pcap_header,
    pcap_record,
    run_python,
    time_bound,
)

pytestmark = pytest.mark.usefixtures("bounded_watch")


def kv_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition("=")
        if sep:
            out[name] = value
    return out


@pytest.fixture
def key_file(tmp_path, fixed_key):
    path = tmp_path / "key.bin"
    with open(path, "wb") as f:
        save_key(fixed_key, f)
    return str(path)


@pytest.fixture
def small_pcap(tmp_path):
    """5,000-packet synthetic capture plus its exact ground truth."""
    spec = SynthSpec(host_count=48, packet_count=5000, seed=21,
                     payload_len_range=(40, 200),
                     start_time_us=1_700_003_600_000_000)
    path = tmp_path / "traffic.pcap"
    with open(path, "wb") as f:
        truth = synthesize(spec, f)
    return str(path), truth, spec


# --- argument handling ---

def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == 1


def test_main_gives_back_the_error_handler_of_stdout(tmp_path, capsys):
    errors = sys.stdout.errors
    assert cli.main(["genkey", "--out", str(tmp_path / "k")]) == 0
    assert sys.stdout.errors == errors != "surrogateescape"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(["--help"])
    assert exc_info.value.code == 0
    assert cli.main(["--help"]) == 0


def test_names_stdout_cannot_encode_print_as_the_file_systems_bytes(tmp_path):
    """Under a strict UTF-8 stdout, a file name that is not UTF-8 prints as
    its bytes, as the journal writes it; it must not raise after the file
    is made. The JSON form still escapes it."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONIOENCODING": "utf-8:strict"}

    def tmsensor(*args) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "tmsensor.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return proc.stdout

    assert b"key_file=k\xff.key\n" in tmsensor("genkey", "--out", b"k\xff.key")
    out = tmsensor("synth", "--out", b"cap\xff.pcap", "--packets", "2000", "--hosts", "16")
    assert b"pcap=cap\xff.pcap\n" in out and b"ground_truth=cap\xff.pcap.truth\n" in out
    out = tmsensor("convert", "--key", b"k\xff.key", "--window-size", "1024",
                   "--prefix", "raw\udcff", "--out-dir", ".", b"cap\xff.pcap")
    assert b"pcap=cap\xff.pcap\n" in out and b"tmf=./raw\xff-0-000.tmf\n" in out
    assert b"file=raw\xff-0-000.tmf\n" in tmsensor("analyze", b"raw\xff-0-000.tmf")
    out = tmsensor("analyze", "--format", "json", b"raw\xff-0-000.tmf")
    assert json.loads(out)["windows"][0]["file"] == os.fsdecode(b"raw\xff-0-000.tmf")


# --- genkey ---

def test_genkey_writes_40_byte_key_file(tmp_path, capsys):
    out = tmp_path / "new.key"
    assert cli.main(["genkey", "--out", str(out)]) == 0
    assert out.stat().st_size == 40
    assert out.stat().st_mode & 0o777 == 0o600
    printed = kv_lines(capsys.readouterr().out)
    with open(out, "rb") as f:
        key = load_key(f)
    assert printed["key_id"] == key.key_id.hex()


@pytest.mark.parametrize("target", ["file", "directory", "dangling-symlink"])
def test_genkey_refuses_to_overwrite(tmp_path, capsys, target):
    out = tmp_path / "exists.key"
    if target == "file":
        out.write_bytes(b"precious")
    elif target == "directory":
        out.mkdir()
        (out / "inside").write_bytes(b"precious")
    else:
        out.symlink_to(tmp_path / "missing")

    def state():
        if out.is_symlink():
            return "link", os.readlink(out)
        if out.is_dir():
            return "dir", sorted(os.listdir(out)), (out / "inside").read_bytes()
        return "file", out.read_bytes()

    before = state()
    assert cli.main(["genkey", "--out", str(out)]) == 3
    assert state() == before
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".part-")]
    assert "refusing" in capsys.readouterr().err


def test_genkey_fsyncs_the_key_file_and_its_directory_before_printing(
        tmp_path, monkeypatch, capsys):
    synced = []  # per fsync call: the file's size or "dir", and what was printed
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        synced.append(("dir" if stat.S_ISDIR(st.st_mode) else st.st_size,
                       capsys.readouterr().out))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    assert cli.main(["genkey", "--out", str(tmp_path / "new.key")]) == 0
    assert synced == [(40, ""), ("dir", "")]  # the key's 40 bytes are written when synced
    assert "key_id=" in capsys.readouterr().out


def test_genkey_that_fails_leaves_no_key_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "new.key"
    real_fsync = os.fsync

    def fsync_fails_once(fd):
        monkeypatch.setattr(os, "fsync", real_fsync)
        raise OSError(errno.EIO, "injected I/O error")

    monkeypatch.setattr(os, "fsync", fsync_fails_once)
    assert cli.main(["genkey", "--out", str(out)]) == 3
    assert not out.exists()
    assert "key_id=" not in capsys.readouterr().out
    assert cli.main(["genkey", "--out", str(out)]) == 0
    assert out.stat().st_size == 40


def test_genkey_whose_directory_fsync_fails_removes_its_key_file(tmp_path, monkeypatch,
                                                                capsys):
    out = tmp_path / "new.key"
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "injected I/O error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    assert cli.main(["genkey", "--out", str(out)]) == 3
    assert os.listdir(tmp_path) == []  # the key was linked, then removed
    assert "key_id=" not in capsys.readouterr().out


def test_genkey_round_trips_through_loader(tmp_path, capsys):
    out = tmp_path / "rt.key"
    assert cli.main(["genkey", "--out", str(out)]) == 0
    printed = kv_lines(capsys.readouterr().out)
    with open(out, "rb") as f:
        assert load_key(f).key_id.hex() == printed["key_id"]


# --- convert ---

def test_convert_reports_stats_and_writes_tmf(tmp_path, key_file, small_pcap,
                                              capsys, fixed_key):
    pcap_path, truth, spec = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = cli.main(["convert", pcap_path, "--key", key_file,
                   "--out-dir", str(out_dir), "--window-size", "1024"])
    assert rc == 0
    printed = kv_lines(capsys.readouterr().out)
    assert printed["valid_ip_packets"] == "5000"
    assert printed["total_records"] == "5000"
    assert printed["truncated_tail"] == "false"
    assert printed["windows"] == "5"
    assert printed["pcap_bytes"] == str(os.path.getsize(pcap_path))
    assert float(printed["compression_ratio"]) > 1

    hour = spec.start_time_us // 3_600_000_000
    expected_name = f"tm-{hour}-000.tmf"
    assert printed["tmf"] == str(out_dir / expected_name)
    assert printed["tmf_bytes"] == str((out_dir / expected_name).stat().st_size)
    with open(out_dir / expected_name, "rb") as f:
        matrices = read_tmf(f)
    assert len(matrices) == 5
    assert sum(m.packet_count for m in matrices) == 5000
    assert all(m.key_id == fixed_key.key_id for m in matrices)


def test_convert_sequence_number_increments(tmp_path, key_file, small_pcap, capsys):
    pcap_path, _, spec = small_pcap
    other_path = tmp_path / "other.pcap"
    with open(other_path, "wb") as f:
        synthesize(dataclasses.replace(spec, seed=22), f)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    hour = spec.start_time_us // 3_600_000_000
    for path, seq in ((pcap_path, 0), (other_path, 1), (pcap_path, 0)):
        assert cli.main(["convert", str(path), "--key", key_file,
                         "--out-dir", str(out_dir)]) == 0
        assert kv_lines(capsys.readouterr().out)["tmf"] == str(
            out_dir / f"tm-{hour}-{seq:03d}.tmf")
    assert len(list(out_dir.iterdir())) == 2  # the same capture again reuses -000


def test_convert_never_overwrites_an_existing_output(tmp_path, key_file,
                                                    small_pcap, capsys):
    pcap_path, _, spec = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    hour = spec.start_time_us // 3_600_000_000
    taken = out_dir / f"tm-{hour}-000.tmf"
    taken.write_bytes(b"finished output of another sensor")
    assert cli.main(["convert", pcap_path, "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0
    assert taken.read_bytes() == b"finished output of another sensor"
    assert kv_lines(capsys.readouterr().out)["tmf"] == str(
        out_dir / f"tm-{hour}-001.tmf"
    )
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"tm-{hour}-000.tmf", f"tm-{hour}-001.tmf",
    ]


def test_convert_file_streams_windows(tmp_path, fixed_key, small_pcap,
                                      monkeypatch):
    pcap_path, _, _ = small_pcap
    real_build_windows = cli.build_windows
    live = most_live = 0

    def freed():
        nonlocal live
        live -= 1

    def tracked(batches, key, window_size):
        nonlocal live, most_live
        for m in real_build_windows(batches, key, window_size):
            weakref.finalize(m, freed)
            live += 1
            most_live = max(most_live, live)
            yield m

    monkeypatch.setattr(cli, "build_windows", tracked)
    summary = cli.convert_file(fixed_key, 100, pcap_path, str(tmp_path))
    assert summary["window_count"] == 50
    with open(summary["tmf_path"], "rb") as f:
        assert len(read_tmf(f)) == 50
    assert most_live <= 3


def test_convert_file_output_is_durable_before_it_returns(tmp_path, fixed_key,
                                                         small_pcap, monkeypatch):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    calls = []
    real_fsync, real_link, real_unlink = os.fsync, os.link, os.unlink

    def fsync(fd):  # a file's bytes are all written when it is fsynced
        st = os.fstat(fd)
        calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
        real_fsync(fd)

    def link(src, dst):
        calls.append(("link", os.path.basename(dst)))
        real_link(src, dst)

    def unlink(path):
        calls.append(("unlink", os.path.basename(path)[:6]))
        real_unlink(path)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "link", link)
    monkeypatch.setattr(os, "unlink", unlink)
    summary = cli.convert_file(fixed_key, 1024, pcap_path, str(out_dir))
    assert calls == [
        ("fsync", summary["tmf_bytes"]),
        ("link", os.path.basename(summary["tmf_path"])),
        ("unlink", ".part-"),
        ("fsync", "dir"),
    ]


def test_convert_output_mode_comes_from_the_umask_left_unchanged(
        tmp_path, fixed_key, small_pcap, monkeypatch):
    """os.umask is process-wide: setting it, even briefly, would change the
    mode of files other threads create meanwhile."""
    pcap_path, _, _ = small_pcap
    umask = 0o026  # masks no execute bit, so a mode with one shows
    saved = os.umask(umask)
    try:
        def umask_called(mask):
            raise AssertionError("convert_file set the process umask")

        monkeypatch.setattr(os, "umask", umask_called)
        summary = cli.convert_file(fixed_key, 1024, pcap_path, str(tmp_path))
    finally:
        monkeypatch.undo()
        os.umask(saved)
    assert stat.S_IMODE(os.stat(summary["tmf_path"]).st_mode) == 0o666 & ~umask
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".part-")]


def test_convert_prefix_flag(tmp_path, key_file, small_pcap, capsys):
    pcap_path, _, spec = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", pcap_path, "--key", key_file,
                     "--out-dir", str(out_dir), "--prefix", "sensor9"]) == 0
    names = [p.name for p in out_dir.iterdir()]
    assert len(names) == 1 and names[0].startswith("sensor9-")


def test_convert_key_from_environment(tmp_path, key_file, small_pcap, capsys,
                                      monkeypatch):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv("TMSENSOR_KEY", key_file)
    assert cli.main(["convert", pcap_path, "--out-dir", str(out_dir)]) == 0


def test_convert_flag_overrides_environment(tmp_path, key_file, small_pcap,
                                            capsys, monkeypatch):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv("TMSENSOR_KEY", str(tmp_path / "no-such-key"))
    assert cli.main(["convert", pcap_path, "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0


def test_convert_without_any_key_is_usage_error(tmp_path, small_pcap, capsys,
                                                monkeypatch):
    pcap_path, _, _ = small_pcap
    monkeypatch.delenv("TMSENSOR_KEY", raising=False)
    assert cli.main(["convert", pcap_path, "--out-dir", str(tmp_path)]) == 1
    assert "no key file given" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["1000", "1025", "33554432", "0", "-8", "xyz"])
def test_convert_rejects_bad_window_sizes(tmp_path, key_file, bad):
    assert cli.main(["convert", "whatever.pcap", "--key", key_file,
                     "--out-dir", str(tmp_path), "--window-size", bad]) == 1


# Each would name an output outside the output directory, or a hidden one
# among the temp files. "{tmp}" is the test's own directory, so that code
# which took the absolute prefix would write nothing outside it.
BAD_PREFIXES = ["../escaped", "sub/tm", "{tmp}/abs", ".part-x", ".tm", "", "a\0b"]


@pytest.mark.parametrize("bad", BAD_PREFIXES[:-1])  # argv cannot hold a NUL
def test_convert_rejects_prefixes_outside_the_output_dir(tmp_path, key_file, small_pcap,
                                                         capsys, bad):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", pcap_path, "--key", key_file, "--out-dir", str(out_dir),
                     "--prefix", bad.format(tmp=tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "prefix must be non-empty" in err and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmf")) == []


@pytest.mark.parametrize("bad", BAD_PREFIXES)
def test_convert_file_rejects_prefixes_outside_the_output_dir(tmp_path, fixed_key,
                                                              small_pcap, bad):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ValueError, match="prefix must be non-empty"):
        cli.convert_file(fixed_key, 1024, pcap_path, str(out_dir), bad.format(tmp=tmp_path))
    # The check comes before the capture is opened.
    with pytest.raises(ValueError, match="prefix must be non-empty"):
        cli.convert_file(fixed_key, 1024, str(tmp_path / "missing.pcap"), str(out_dir),
                         bad.format(tmp=tmp_path))
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("bad", BAD_PREFIXES)
def test_watch_rejects_prefixes_outside_the_output_dir(watch_setup, capsys, bad):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    with open(cfg, "a", encoding="utf-8") as f:
        f.write(f"prefix = {bad.format(tmp=in_dir.parent)}\n")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 3
    err = capsys.readouterr().err
    assert "prefix must be non-empty" in err and "Traceback" not in err
    assert list(in_dir.parent.rglob("*.tmf")) == []


def test_convert_reports_the_bytes_it_read_from_a_growing_capture(tmp_path, fixed_key,
                                                                  small_pcap, monkeypatch):
    pcap_path, _, _ = small_pcap
    original = Path(pcap_path).read_bytes()
    record = pcap_record(eth_frame(ipv4_packet("10.9.0.1", "10.9.0.2")), ts_sec=1_700_003_700)
    parse = cli.parse_pcap

    def parse_while_appending(stream):
        batches, stats = parse(stream)

        def appending():
            with open(pcap_path, "ab") as f:
                f.write(record)  # before the parser reaches the end: read
            yield from batches
            with open(pcap_path, "ab") as f:
                f.write(record)  # after it: not read
        return appending(), stats

    monkeypatch.setattr(cli, "parse_pcap", parse_while_appending)
    summary = cli.convert_file(fixed_key, 1024, pcap_path, str(tmp_path))
    read = original + record
    assert os.path.getsize(pcap_path) == len(read) + len(record)
    assert summary["pcap_bytes"] == len(read)
    assert summary["digest"] == hashlib.sha256(read).hexdigest()
    assert summary["stats"].total_records == 5001


# --- the digest thread ---

# A conversion of a few megabytes takes well under a second.
DIGEST_BOUND_SECS = 15


def capture_of(payloads) -> bytes:
    """A capture of one Ethernet/IPv4 record per payload length."""
    return pcap_header() + b"".join(
        pcap_record(eth_frame(ipv4_packet("10.8.0.1", "10.8.0.2", b"p" * n)), ts_sec=i)
        for i, n in enumerate(payloads))


def capture_of_size(size: int) -> bytes:
    """A capture of exactly ``size`` bytes, of records of about 1 KiB."""
    frame = 16 + 14 + 20  # the bytes of a record that are not its payload
    payloads = [1000] * ((size - 24) // (frame + 1000) - 1)
    payloads.append(size - len(capture_of(payloads)) - frame)
    return capture_of(payloads)


class _DigestStub:
    """A SHA-256 whose ``update`` runs ``before_update`` first."""

    def __init__(self, before_update):
        self._real = hashlib.sha256()
        self._before_update = before_update

    def update(self, data):
        self._before_update()
        self._real.update(data)

    def hexdigest(self):
        return self._real.hexdigest()


def stub_digest(monkeypatch, before_update):
    monkeypatch.setattr(cli, "hashlib", types.SimpleNamespace(
        sha256=lambda: _DigestStub(before_update)))


EDGE_CAPTURES = {
    "READ_CHUNK - 1": lambda: capture_of_size(READ_CHUNK - 1),
    "READ_CHUNK": lambda: capture_of_size(READ_CHUNK),
    "READ_CHUNK + 1": lambda: capture_of_size(READ_CHUNK + 1),
    "a record past 64 KiB": lambda: capture_of([100] * 300 + [3 * MAX_RECORD_BUFFER]
                                               + [100] * 300),
    "truncated tail": lambda: capture_of([100] * 300)[:-7],
    "header only": pcap_header,
}


@pytest.mark.parametrize("name", EDGE_CAPTURES)
def test_convert_digests_exactly_the_bytes_it_parsed(tmp_path, fixed_key, name):
    data = EDGE_CAPTURES[name]()
    capture = tmp_path / "edge.pcap"
    capture.write_bytes(data)
    with time_bound(DIGEST_BOUND_SECS, name):
        summary = cli.convert_file(fixed_key, 1024, str(capture), str(tmp_path))
    assert summary["pcap_bytes"] == len(data)
    assert summary["digest"] == hashlib.sha256(data).hexdigest()


class _FailingRaw:
    """A capture file whose third ``readinto`` raises, as a disk may."""

    def __init__(self, raw):
        self._raw = raw
        self.reads = 0

    def read(self, n=-1):
        return self._raw.read(n)

    def readinto(self, b):
        self.reads += 1
        if self.reads == 3:
            raise OSError(errno.EIO, "injected read error")
        return self._raw.readinto(b)


@pytest.mark.parametrize("fault", ["none", "bad magic", "read error", "write error"])
def test_no_digest_thread_outlives_convert_file(tmp_path, fixed_key, small_pcap,
                                                monkeypatch, fault):
    pcap_path, _, _ = small_pcap
    assert os.path.getsize(pcap_path) > 3 * READ_CHUNK
    expected = None
    if fault == "bad magic":
        pcap_path = str(tmp_path / "bogus.pcap")
        Path(pcap_path).write_bytes(b"this is not a capture, but long enough")
        expected = BadMagic
    elif fault == "read error":
        reader = cli._HashingReader
        monkeypatch.setattr(cli, "_HashingReader",
                            lambda raw, digest: reader(_FailingRaw(raw), digest))
        expected = OSError
    elif fault == "write error":
        def write_fails(matrices, out):
            next(iter(matrices))
            raise OSError(errno.ENOSPC, "injected full disk")
        monkeypatch.setattr(cli, "write_tmf", write_fails)
        expected = OSError
    raises = pytest.raises(expected) if expected else contextlib.nullcontext()
    before = threading.active_count()
    with time_bound(DIGEST_BOUND_SECS, fault), raises:
        cli.convert_file(fixed_key, 1024, pcap_path, str(tmp_path))
    assert threading.active_count() == before
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".part-")]


def test_a_digest_failure_fails_the_capture(watch_setup, fixed_key, tmp_path, monkeypatch):
    in_dir, out_dir, cfg_path, drop = watch_setup
    capture = drop("a.pcap", seed=16)
    failures = []

    def fail_once():
        if not failures:
            failures.append(1)
            raise OSError(errno.EIO, "injected digest error")

    stub_digest(monkeypatch, fail_once)
    before = threading.active_count()
    with time_bound(DIGEST_BOUND_SECS, "convert_file"):
        with pytest.raises(OSError) as raised:
            cli.convert_file(fixed_key, 1024, str(capture), str(tmp_path))
    assert raised.value.errno == errno.EIO
    assert threading.active_count() == before

    failures.clear()
    log = io.StringIO()
    cli.watch_loop(cli.parse_config(cfg_path), fixed_key, threading.Event(),
                   once=True, log=log)
    assert "[watch] a.pcap: conversion failed: " in log.getvalue()
    assert "injected digest error" in log.getvalue()
    assert not (out_dir / cli.JOURNAL_NAME).exists()
    assert threading.active_count() == before


class _CountingStream:
    """The parser's stream, counting the reads the parser makes."""

    def __init__(self, stream):
        self._stream = stream
        self.reads = 0

    def read(self, n=-1):
        self.reads += 1
        return self._stream.read(n)

    def readinto(self, b):
        self.reads += 1
        return self._stream.readinto(b)


def test_the_digest_queue_bounds_the_reads_ahead_of_the_hash(tmp_path, fixed_key,
                                                             monkeypatch):
    data = capture_of([1000] * 4000)
    assert len(data) > 6 * READ_CHUNK
    capture = tmp_path / "long.pcap"
    capture.write_bytes(data)
    entered, release = threading.Event(), threading.Event()

    def held():
        entered.set()
        assert release.wait(DIGEST_BOUND_SECS)

    stub_digest(monkeypatch, held)
    streams = []
    parse = cli.parse_pcap

    def counted_parse(stream):
        streams.append(_CountingStream(stream))
        return parse(streams[-1])

    monkeypatch.setattr(cli, "parse_pcap", counted_parse)
    result = {}

    def convert():
        result["summary"] = cli.convert_file(fixed_key, 1024, str(capture), str(tmp_path))

    worker = threading.Thread(target=convert)
    with time_bound(DIGEST_BOUND_SECS, "held digest"):
        worker.start()
        try:
            assert entered.wait(DIGEST_BOUND_SECS)
            # The first chunk is in update; the parser goes on until a
            # hand-off finds the queue full.
            worker.join(0.5)
            assert worker.is_alive()
            # README: a queue two deep, so at most four chunks held at once.
            assert streams[0].reads <= 4
        finally:
            release.set()
        worker.join(DIGEST_BOUND_SECS)
    assert not worker.is_alive()
    assert result["summary"]["digest"] == hashlib.sha256(data).hexdigest()
    assert result["summary"]["pcap_bytes"] == len(data)


def test_convert_missing_pcap_is_environment_error(tmp_path, key_file, capsys):
    assert cli.main(["convert", str(tmp_path / "absent.pcap"),
                     "--key", key_file, "--out-dir", str(tmp_path)]) == 3


def test_convert_non_pcap_is_data_error(tmp_path, key_file, capsys):
    bogus = tmp_path / "bogus.pcap"
    bogus.write_bytes(b"this is not a capture")
    assert cli.main(["convert", str(bogus), "--key", key_file,
                     "--out-dir", str(tmp_path)]) == 2


def test_convert_header_only_pcap_writes_nothing(tmp_path, key_file, fixed_key, capsys):
    empty = tmp_path / "empty.pcap"
    empty.write_bytes(pcap_header())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", str(empty), "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0
    assert "0 packets" in capsys.readouterr().out
    assert list(out_dir.iterdir()) == []
    summary = cli.convert_file(fixed_key, 1024, str(empty), str(out_dir))
    assert (summary["tmf_path"], summary["tmf_bytes"], summary["window_count"]) == (None, 0, 0)


def test_convert_truncated_pcap_succeeds_with_warning(tmp_path, key_file, capsys):
    data = eth_ipv4_capture([("10.0.0.1", "10.0.0.2")] * 30)
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(data[:-7])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", str(cut), "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "truncated" in captured.err
    assert kv_lines(captured.out)["valid_ip_packets"] == "29"
    assert kv_lines(captured.out)["truncated_tail"] == "true"
    assert len(list(out_dir.iterdir())) == 1


def test_convert_delete_after_convert(tmp_path, key_file, small_pcap, capsys):
    pcap_path, _, _ = small_pcap
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", pcap_path, "--key", key_file,
                     "--out-dir", str(out_dir), "--delete-after-convert"]) == 0
    assert not os.path.exists(pcap_path)


def test_convert_corrupt_key_file_is_data_error(tmp_path, small_pcap, capsys):
    pcap_path, _, _ = small_pcap
    bad_key = tmp_path / "bad.key"
    bad_key.write_bytes(b"\x00" * 17)
    assert cli.main(["convert", pcap_path, "--key", str(bad_key),
                     "--out-dir", str(tmp_path)]) == 2


def with_one_tag(records: bytes) -> bytes:
    """``synth`` records with one 802.1Q tag after each frame's MAC
    addresses, and ``incl_len`` and ``orig_len`` raised by its 4 bytes."""
    out, off = bytearray(), 0
    while off < len(records):
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from("<IIII", records, off)
        body = off + 16
        out += struct.pack("<IIII", ts_sec, ts_frac, incl_len + 4, orig_len + 4)
        out += records[body : body + 12] + b"\x81\x00\x00\x07" + records[body + 12 : body + incl_len]
        off = body + incl_len
    return bytes(out)


def test_convert_memory_does_not_grow_with_the_capture(tmp_path):
    """A capture eight times as long must convert in about the same memory:
    the capture is read in chunks, each window is written as it closes, and
    the memo holds each distinct address once. The 8x capture repeats the
    1x capture's records after its one global header. A tagged capture must
    convert in about the memory of the same capture untagged."""
    spool = SynthSpec(256, 50_000, 1.2, (64, 600), seed=1)
    shapes = {  # the bench's spool and hicard shapes, at fewer packets
        "spool": (spool, 1 << 17, False),
        "spool-tagged": (spool, 1 << 17, True),
        "hicard": (SynthSpec(65_536, 65_536, 0.3, (0, 16), seed=1), 1024, False),
    }
    code = ("import sys\nfrom tmsensor.anon import AnonKey\n"
            "from tmsensor.cli import convert_file\n"
            "s = convert_file(AnonKey(bytes(32)), int(sys.argv[2]), sys.argv[1], sys.argv[3])\n"
            "print(s['window_count'])")
    peaks = {}
    for name, (spec, window, tagged) in shapes.items():
        one = io.BytesIO()
        synthesize(spec, one)
        header, records = one.getvalue()[:24], one.getvalue()[24:]
        if tagged:
            records = with_one_tag(records)
        for times in (1, 8):
            capture, out_dir = tmp_path / f"{name}-{times}.pcap", tmp_path / f"{name}-{times}"
            out_dir.mkdir()
            with open(capture, "wb") as f:
                f.write(header)
                for _ in range(times):
                    f.write(records)
            out, peaks[name, times] = run_python(code, str(capture), str(window), str(out_dir))
            capture.unlink()
            assert int(out) == -(-times * spec.packet_count // window)
        # Measured growth: spool 1.2 MB, hicard none. Holding every window
        # until the end, as a list, made hicard's grow by 10.9 MB.
        assert peaks[name, 8] - peaks[name, 1] < 4, (
            f"{name}: peak {peaks[name, 1]:.1f} MB for 1x, {peaks[name, 8]:.1f} MB for 8x")
    # Measured: the tagged spool capture peaked 0.2-0.6 MB above the
    # untagged one. Resolving tags with arrays over the whole parse buffer
    # put it 4.6 MB above.
    for times in (1, 8):
        tag_cost = peaks["spool-tagged", times] - peaks["spool", times]
        assert tag_cost < 1.5, f"{times}x: tags cost {tag_cost:.1f} MB"


def test_convert_memory_for_a_window_of_distinct_cells(tmp_path):
    """README's figure for the open window: a raw-IP capture whose 65 536
    packets are each a new cell between two new addresses, converted at
    window 65 536, peaks a bounded amount above the import's peak."""
    n = 1 << 16
    records = np.zeros(n, [("ts", "<u4", 2), ("lens", "<u4", 2), ("ip", "V12"),
                           ("src", ">u4"), ("dst", ">u4")])
    records["ts"][:, 0] = np.arange(n)
    records["lens"] = 20
    records["ip"] = np.frombuffer(ipv4_packet("0.0.0.0", "0.0.0.0")[:12], "V12")[0]
    records["src"] = np.arange(0, 2 * n, 2) + (10 << 24)
    records["dst"] = records["src"] + 1
    capture, out_dir = tmp_path / "distinct.pcap", tmp_path / "out"
    capture.write_bytes(pcap_header(linktype=101) + records.tobytes())
    out_dir.mkdir()
    code = ("import sys\nfrom tmsensor.anon import AnonKey\n"
            "from tmsensor.cli import convert_file\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
            f"convert_file(AnonKey(bytes(32)), {n}, sys.argv[1], sys.argv[2])\n")
    out, peak_mb = run_python(code, str(capture), str(out_dir))
    floor_mb = int(out) / 1024
    (tmf,) = out_dir.iterdir()
    with open(tmf, "rb") as f:
        (m,) = read_tmf(f)
    assert len(m.counts) == n
    # Measured: 14.5-15.8 MB above a 33.2 MB floor, about 240 B per
    # packet; the bound leaves about half again for allocator noise.
    assert peak_mb - floor_mb < 24, f"peak {peak_mb:.1f} MB, floor {floor_mb:.1f} MB"


# --- analyze ---

@pytest.fixture
def converted(tmp_path, key_file, small_pcap, capsys):
    pcap_path, truth, spec = small_pcap
    out_dir = tmp_path / "tmfdir"
    out_dir.mkdir()
    assert cli.main(["convert", pcap_path, "--key", key_file,
                     "--out-dir", str(out_dir), "--window-size", "1024"]) == 0
    capsys.readouterr()
    (tmf_path,) = out_dir.iterdir()
    return str(tmf_path), truth


def test_analyze_text_form(converted, capsys):
    tmf_path, truth = converted
    assert cli.main(["analyze", tmf_path]) == 0
    out = capsys.readouterr().out
    assert out.count("report=window") == 5
    assert out.count("report=merged") == 1
    assert f"file={tmf_path}" in out
    merged_part = out.split("report=merged")[1]
    assert f"valid_packets={sum(truth.values())}" in merged_part
    assert f"unique_links={len(truth)}" in merged_part


def test_analyze_json_form(converted, capsys):
    tmf_path, truth = converted
    assert cli.main(["analyze", tmf_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["windows"]) == 5
    assert doc["windows"][0]["file"] == tmf_path
    assert doc["windows"][0]["block"] == 0
    assert doc["merged"]["valid_packets"] == sum(truth.values())
    assert doc["merged"]["unique_links"] == len(truth)
    assert doc["merged"]["max_link_packets"] == max(truth.values())
    assert sum(w["report"]["valid_packets"] for w in doc["windows"]) == 5000


def test_analyze_multiple_files_merge(converted, tmp_path, key_file, capsys):
    tmf_path, truth = converted
    assert cli.main(["analyze", tmf_path, tmf_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["windows"]) == 10
    assert doc["merged"]["valid_packets"] == 2 * sum(truth.values())
    assert doc["merged"]["unique_links"] == len(truth)


def test_analyze_zero_files_is_usage_error(capsys):
    assert cli.main(["analyze"]) == 1


def test_analyze_missing_file_is_environment_error(tmp_path, capsys):
    path = tmp_path / "ghost.tmf"
    assert cli.main(["analyze", str(path)]) == 3
    assert str(path) in capsys.readouterr().err


def test_analyze_corrupted_file_names_the_offender(converted, tmp_path, capsys):
    tmf_path, _ = converted
    corrupt = tmp_path / "corrupt.tmf"
    data = bytearray(Path(tmf_path).read_bytes())
    data[70] ^= 0xFF  # inside the first payload
    corrupt.write_bytes(bytes(data))
    assert cli.main(["analyze", tmf_path, str(corrupt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # the good file's reports are not printed either
    assert str(corrupt) in captured.err
    assert tmf_path not in captured.err


def test_analyze_file_under_another_key_prints_nothing(converted, tmp_path, capsys):
    tmf_path, _ = converted
    other = tmp_path / "other_key.tmf"
    with open(other, "wb") as f:
        write_tmf([TrafficMatrix.from_entries(1024, 1, 1, 2, b"\x0b" * 8, {(1, 2): 1})], f)
    assert cli.main(["analyze", tmf_path, str(other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "different keys" in captured.err and "Traceback" not in captured.err


def test_analyze_memory_does_not_grow_with_the_input(tmp_path):
    """Eight copies of a file add no cells to the merged matrix, so they
    must not take eight times the memory: the blocks are read and merged as
    they come, not held."""
    rng = np.random.default_rng(3)
    hosts = np.sort(rng.integers(0, 1 << 64, 4_000, dtype=np.uint64))
    blocks = []
    for i in range(4):
        cells = np.unique(rng.integers(0, len(hosts) ** 2, 40_000))
        counts = rng.integers(1, 50, len(cells)).astype(np.uint64)
        blocks.append(TrafficMatrix(1 << 20, int(counts.sum()), i, i + 1, b"\x0b" * 8,
                                    hosts[cells // len(hosts)], hosts[cells % len(hosts)],
                                    counts))
    path = tmp_path / "blocks.tmf"
    with open(path, "wb") as f:
        write_tmf(blocks, f)
    code = ("import sys\nfrom tmsensor.cli import main\n"
            "assert main(['analyze', *sys.argv[1:]]) == 0")
    out, once_mb = run_python(code, str(path))
    assert out.count("report=window") == 4
    out, eight_mb = run_python(code, *[str(path)] * 8)
    assert out.count("report=window") == 32
    # Holding every block adds about 85 MB here; folding them as they come
    # adds one fold of about twice the merged cells, about 15 MB.
    assert eight_mb - once_mb < 24, f"peak {once_mb:.1f} MB for 1 copy, {eight_mb:.1f} MB for 8"


def test_analyze_json_is_written_as_it_is_rendered(tmp_path):
    """The JSON report must not be built as one string first: its peak may
    exceed the text form's by the per-window dicts, not by the whole text."""
    # 15 groups of 11 sources; source j of a group sends to destinations
    # 0..j of its group. So each window has 990 cells, 11 fan-out degrees
    # and 11 fan-in degrees.
    fanout = np.tile(np.arange(1, 12), 15)
    rows = np.repeat(np.arange(len(fanout), dtype=np.uint64), fanout)
    group = np.repeat(np.arange(len(fanout)) // 11, fanout)
    place = np.arange(len(rows)) - np.repeat(np.cumsum(fanout) - fanout, fanout)
    cols = (1000 * group + place).astype(np.uint64)
    counts = np.random.default_rng(4).integers(1, 50, (200, len(rows)), dtype=np.uint64)
    path = tmp_path / "windows.tmf"
    with open(path, "wb") as f:
        write_tmf((TrafficMatrix(1 << 20, int(c.sum()), i, i + 1, b"\x0b" * 8, rows, cols, c)
                   for i, c in enumerate(counts)), f)
    code = ("import contextlib, os, sys\nfrom tmsensor.cli import main\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    assert main(['analyze', *sys.argv[1:]]) == 0")
    _, text_mb = run_python(code, "--format", "text", *[str(path)] * 8)
    _, json_mb = run_python(code, "--format", "json", *[str(path)] * 8)
    # The document as one string adds about 14 MB here; the dicts about 3 MB.
    assert json_mb - text_mb < 5, f"peak {text_mb:.1f} MB as text, {json_mb:.1f} MB as JSON"


def report_lines(report) -> list[str]:
    """A report's text form, from ``dataclasses.asdict``: name=value lines,
    then fanout[d]=n and fanin[d]=n lines in degree order."""
    lines = []
    for name, value in dataclasses.asdict(report).items():
        if isinstance(value, dict):
            prefix = name.removesuffix("_histogram")
            lines += [f"{prefix}[{d}]={n}" for d, n in sorted(value.items())]
        else:
            lines.append(f"{name}={value}")
    return lines


def rendered_as_before(files, form) -> str:
    """``analyze``'s output as it was rendered from every report kept: the
    document built from ``dataclasses.asdict`` and written by
    ``json.dump(indent=2)``, or the text printed line by line."""
    origins, matrices = [], []
    for path in files:
        with open(path, "rb") as f:
            for block, m in enumerate(iter_tmf(f)):
                origins.append((path, block))
                matrices.append(m)
    reports = []
    merged = analyze_many(matrices, reports.append)
    out = io.StringIO()
    if form == "json":
        doc = {
            "windows": [
                {"file": path, "block": block, "report": dataclasses.asdict(r)}
                for (path, block), r in zip(origins, reports)
            ],
            "merged": dataclasses.asdict(merged),
        }
        json.dump(doc, out, indent=2)
        print(file=out)
    else:
        for (path, block), r in zip(origins, reports):
            print("report=window", file=out)
            print(f"file={path}", file=out)
            print(f"block={block}", file=out)
            print(*report_lines(r), sep="\n", file=out)
            print(file=out)
        print("report=merged", file=out)
        print(f"windows={len(reports)}", file=out)
        print(*report_lines(merged), sep="\n", file=out)
    return out.getvalue()


def pooled_matrix(rng, hosts=12, max_cells=60) -> TrafficMatrix:
    """A window whose cells join a few hosts, so that degrees vary."""
    cells = {(rng.randrange(hosts) << 40, rng.randrange(hosts)): rng.randrange(1, 1000)
             for _ in range(rng.randrange(1, max_cells))}
    return TrafficMatrix.from_entries(1024, sum(cells.values()), 1, 2, b"\x0b" * 8, cells)


def analyze_inputs(tmp_path, case) -> list[str]:
    rng = random.Random(case)
    empty = TrafficMatrix.from_entries(1024, 0, 0, 0, b"\x0b" * 8, {})
    if case == "one-block":
        files = {"one.tmf": [pooled_matrix(rng)]}
    elif case == "empty-block":  # every histogram is {}
        files = {"empty.tmf": [empty]}
    elif case == "multi-block-files":
        blocks = [pooled_matrix(rng) for _ in range(12)]
        files = {"a.tmf": blocks[:5], "b.tmf": [blocks[5], empty, *blocks[6:9]],
                 "c.tmf": [*blocks[9:], blocks[0], pooled_matrix(rng, 200, 2000)]}
    else:  # names that JSON must escape, and one that is not UTF-8
        names = ['quote".tmf', "back\\slash.tmf", "caf\u00e9-\u6d41\u91cf.tmf",
                 os.fsdecode(b"raw\xff.tmf")]
        files = {name: [pooled_matrix(rng) for _ in range(i + 1)]
                 for i, name in enumerate(names)}
    paths = []
    for name, blocks in files.items():
        with open(tmp_path / name, "wb") as f:
            write_tmf(blocks, f)
        paths.append(str(tmp_path / name))
    return paths


@pytest.mark.parametrize("case", ["one-block", "empty-block", "multi-block-files",
                                  "odd-names"])
@pytest.mark.parametrize("form", ["text", "json"])
def test_analyze_output_is_byte_identical_to_the_kept_report_rendering(
        tmp_path, form, case):
    files = analyze_inputs(tmp_path, case)
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--format", form, *files]) == 0
    out.flush()
    want = rendered_as_before(files, form)
    assert raw.getvalue() == want.encode("utf-8", "surrogateescape")
    if form == "json":
        doc = json.loads(raw.getvalue())
        assert doc["windows"][0]["file"] == files[0]
        assert (doc["merged"]["fanin_histogram"] == {}) == (case == "empty-block")


def test_analyze_memory_does_not_grow_with_the_windows(tmp_path):
    """64 copies of a file add windows but no merged cells, so the reports,
    which are written out as they are made, must not add to the peak."""
    # 3 groups of 11 sources; source j of a group sends to destinations
    # 0..j of its group. So each window has 198 cells, 11 fan-out degrees
    # and 11 fan-in degrees.
    fanout = np.tile(np.arange(1, 12), 3)
    rows = np.repeat(np.arange(len(fanout), dtype=np.uint64), fanout)
    group = np.repeat(np.arange(len(fanout)) // 11, fanout)
    place = np.arange(len(rows)) - np.repeat(np.cumsum(fanout) - fanout, fanout)
    cols = (1000 * group + place).astype(np.uint64)
    counts = np.random.default_rng(5).integers(1, 50, (100, len(rows)), dtype=np.uint64)
    path = tmp_path / "windows.tmf"
    with open(path, "wb") as f:
        write_tmf((TrafficMatrix(1 << 20, int(c.sum()), i, i + 1, b"\x0b" * 8, rows, cols, c)
                   for i, c in enumerate(counts)), f)
    code = ("import contextlib, os, sys\nfrom tmsensor.cli import main\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    assert main(['analyze', *sys.argv[1:]]) == 0")
    for form in ("json", "text"):
        _, once_mb = run_python(code, "--format", form, str(path))
        _, many_mb = run_python(code, "--format", form, *[str(path)] * 64)
        # Keeping the 6 400 reports added 21.9 MB as JSON and 10.1 MB as
        # text here; written out as they are made, they add under 0.5 MB.
        assert many_mb - once_mb < 3, (
            f"{form}: peak {once_mb:.1f} MB for 1 copy, {many_mb:.1f} MB for 64")


def test_analyze_without_a_temp_file_exits_3_and_prints_nothing(
        converted, tmp_path, monkeypatch, capsys):
    # tempfile falls back to /tmp when $TMPDIR is missing, so the directory
    # it has settled on is replaced instead.
    tmf_path, _ = converted
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert cli.main(["analyze", tmf_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_analyze_huge_entry_count_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.tmf"
    path.write_bytes(struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 1, 16, 1, 1, 2, b"\x0b" * 8, 1,
        b"\x00" * 3, (1 << 64) - 1, 3,
    ) + b"\x03\x00\x00")
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_analyze_merged_packet_count_past_64_bits_is_data_error(tmp_path, capsys):
    # Each file is valid; their merged packet count (2**64) is not.
    m = TrafficMatrix.from_entries(16, 1 << 63, 1, 2, b"\x0b" * 8, {(1, 2): 1 << 63})
    paths = []
    for name in ("a.tmf", "b.tmf"):
        with open(tmp_path / name, "wb") as f:
            write_tmf([m], f)
        paths.append(str(tmp_path / name))
    assert cli.main(["analyze", paths[0]]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "64 bits" in captured.err and "Traceback" not in captured.err


def test_analyze_huge_payload_len_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.tmf"
    path.write_bytes(struct.pack(
        "<4sHHIQQQ8sB3sQQ", MAGIC, 1, 0, 16, 0, 0, 0, b"\x0b" * 8, 1,
        b"\x00" * 3, 0, (1 << 64) - 1,
    ))
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_analyze_not_a_tmf_is_data_error(tmp_path, capsys):
    junk = tmp_path / "junk.tmf"
    junk.write_bytes(b"not a matrix file at all")
    assert cli.main(["analyze", str(junk)]) == 2


# --- config parsing ---

def write_config(tmp_path, text):
    path = tmp_path / "sensor.cfg"
    path.write_text(text)
    return str(path)


def test_config_parses_values_comments_and_defaults(tmp_path, key_file):
    path = write_config(
        tmp_path,
        f"""# sensor settings
        key_path = {key_file}
        input_dir = /in
        output_dir = /out

        window_size = 4096
        delete_after_convert = true
        """,
    )
    cfg = cli.parse_config(path)
    assert cfg.key_path == key_file
    assert cfg.window_size == 4096
    assert cfg.delete_after_convert is True
    assert cfg.quiescence_secs == 120
    assert cfg.poll_interval_secs == 60
    assert cfg.prefix == "tm"
    cfg.validate()


@pytest.mark.parametrize(
    "line",
    [
        "mystery_knob = 3",
        "window_size = not_a_number",
        "delete_after_convert = maybe",
        "just some words",
        "convert_concurrency = 2",
    ],
)
def test_config_rejects_bad_lines(tmp_path, line):
    path = write_config(tmp_path, f"{line}\n")
    with pytest.raises(ConfigError):
        cli.parse_config(path)


def test_config_error_names_the_line_and_the_missing_equals_sign(tmp_path):
    # key_path alone is a known name, so only the missing `=` refuses it.
    path = write_config(tmp_path, "# a comment\nkey_path\n")
    with pytest.raises(ConfigError, match=r":2: expected `key = value`$"):
        cli.parse_config(path)


@pytest.mark.parametrize(
    "overrides",
    [
        "window_size = 1000",
        "window_size = 33554432",
        "quiescence_secs = 0",
        "poll_interval_secs = 0",
        "poll_interval_secs = 10000000000",
    ],
)
def test_config_validation_bounds(tmp_path, key_file, overrides):
    path = write_config(
        tmp_path,
        f"key_path = {key_file}\ninput_dir = /in\noutput_dir = /out\n{overrides}\n",
    )
    with pytest.raises(ConfigError):
        cli.parse_config(path).validate()


def test_config_accepts_the_shortest_intervals(tmp_path, key_file):
    path = write_config(tmp_path, f"key_path = {key_file}\ninput_dir = /in\n"
                                  "output_dir = /out\nquiescence_secs = 1\n"
                                  "poll_interval_secs = 1\n")
    cli.parse_config(path).validate()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "sensor.cfg"
    path.write_bytes(b"key_path = /k\xff\ninput_dir = /in\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        cli.parse_config(str(path))
    assert cli.main(["watch", "--config", str(path), "--once"]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_readme_sample_config_parses_as_written(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    match = re.search(r"```ini\n(.*?)```", readme, re.S)
    assert match is not None
    cfg = cli.parse_config(write_config(tmp_path, match[1]))
    assert cfg.key_path == "/etc/tmsensor/sensor.key"
    assert cfg.input_dir == "/var/spool/captures"
    assert cfg.output_dir == "/var/lib/tmsensor"
    defaults = cli.SensorConfig()
    for name in ("window_size", "quiescence_secs", "poll_interval_secs",
                 "delete_after_convert", "prefix"):
        assert getattr(cfg, name) == getattr(defaults, name)


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    with open("sensor.key", "wb") as f:
        save_key(generate_key(), f)
    with open("demo.pcap", "wb") as f:
        synthesize(SynthSpec(host_count=40, packet_count=3000, seed=9), f)
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert len(namespace["reports"]) == len(namespace["matrices"]) >= 1
    assert namespace["merged"].valid_packets == namespace["stats"].valid_ip_packets
    expression, comment = blocks[1].rstrip().splitlines()[-1].split("  # ")
    arrays = eval(expression, namespace)
    assert [a.tolist() for a in arrays] == list(ast.literal_eval(comment))


def test_config_missing_required_keys(tmp_path):
    path = write_config(tmp_path, "window_size = 2048\n")
    with pytest.raises(ConfigError):
        cli.parse_config(path).validate()


@pytest.mark.parametrize("missing, message", [
    ("key_path", "key_path is required"),
    ("input_dir", "input_dir and output_dir are required"),
    ("output_dir", "input_dir and output_dir are required"),
])
def test_config_names_each_missing_required_key(missing, message):
    cfg = cli.SensorConfig(key_path="k", input_dir="in", output_dir="out")
    cfg.validate()
    setattr(cfg, missing, "")
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


# --- watch mode ---

@pytest.fixture
def watch_setup(tmp_path, key_file, old_mtime):
    in_dir = tmp_path / "drop"
    out_dir = tmp_path / "sink"
    in_dir.mkdir()
    out_dir.mkdir()
    cfg = write_config(
        tmp_path,
        f"key_path = {key_file}\n"
        f"input_dir = {in_dir}\n"
        f"output_dir = {out_dir}\n"
        "window_size = 1024\n"
        "quiescence_secs = 3600\n"
        "poll_interval_secs = 1\n",
    )

    def drop(name, seed, packets=1200, age=True):
        spec = SynthSpec(host_count=24, packet_count=packets, seed=seed)
        path = in_dir / name
        with open(path, "wb") as f:
            synthesize(spec, f)
        if age:
            old_mtime(path)
        return path

    return in_dir, out_dir, cfg, drop


def tmf_files(out_dir):
    return sorted(p.name for p in out_dir.iterdir() if p.name.endswith(".tmf"))


def journaled(path):
    """The names on a journal's lines, in file order; every line is a whole entry."""
    with open(path, "rb") as f:
        return [os.fsdecode(re.fullmatch(rb"[0-9a-f]{64} (.*)\n", line)[1]) for line in f]


def test_watch_once_converts_quiescent_files(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    drop("b.pcap", seed=2)
    (in_dir / "notes.txt").write_text("ignore me")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 2
    journal = (out_dir / "tmsensor.journal").read_text().splitlines()
    assert sorted(line.split()[1] for line in journal) == ["a.pcap", "b.pcap"]
    for line in journal:
        digest, _ = line.split()
        assert len(digest) == 64 and int(digest, 16) >= 0


def test_watch_defers_fresh_files_until_quiescent(watch_setup, old_mtime, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("old.pcap", seed=3)
    fresh = drop("fresh.pcap", seed=4, age=False)  # mtime is now
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1
    assert "fresh.pcap" not in (out_dir / "tmsensor.journal").read_text()

    old_mtime(fresh)  # becomes quiescent; next pass picks it up
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 2


def test_watch_converts_a_capture_exactly_quiescence_secs_old(watch_setup, monkeypatch,
                                                              capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    path = drop("a.pcap", seed=1, age=False)
    os.utime(path, (1_000_000_000, 1_000_000_000))
    monkeypatch.setattr(cli.time, "time", lambda: 1_000_000_000 + 3600.0)  # quiescence_secs
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1


def test_watch_skips_a_capture_gone_before_its_stat(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    (in_dir / "a-gone.pcap").symlink_to(in_dir / "nowhere")  # listed, but stat fails
    drop("b.pcap", seed=1)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert journaled(out_dir / "tmsensor.journal") == ["b.pcap"]
    assert "a-gone" not in capsys.readouterr().err


def test_watch_restart_is_idempotent(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    for i in range(3):
        drop(f"cap{i}.pcap", seed=i)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    first = tmf_files(out_dir)
    assert len(first) == 3
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert tmf_files(out_dir) == first
    journal = (out_dir / "tmsensor.journal").read_text().splitlines()
    assert len(journal) == 3


def test_watch_restart_after_crash_before_journal_writes_no_duplicate(
        watch_setup, fixed_key, monkeypatch, capsys):
    in_dir, out_dir, cfg_path, drop = watch_setup
    drop("cap.pcap", seed=5)

    class Crash(Exception):
        pass

    def crash(path, digest, name):
        raise Crash  # the output is linked and fsynced, the journal not yet written

    with monkeypatch.context() as m:
        m.setattr(cli, "append_journal", crash)
        with pytest.raises(Crash):
            cli.watch_loop(cli.parse_config(cfg_path), fixed_key, threading.Event(),
                           once=True)
    assert tmf_files(out_dir) == ["tm-0-000.tmf"]

    assert cli.main(["watch", "--config", cfg_path, "--once"]) == 0
    assert tmf_files(out_dir) == ["tm-0-000.tmf"]
    journal = (out_dir / "tmsensor.journal").read_text().splitlines()
    assert [line.split(" ", 1)[1] for line in journal] == ["cap.pcap"]


@pytest.mark.parametrize("tail", ["nul", "digest"])
def test_watch_recovers_from_a_torn_last_journal_line(watch_setup, capsys, tail):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    drop("b.pcap", seed=2)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    outputs = tmf_files(out_dir)
    journal = out_dir / "tmsensor.journal"
    whole = journal.read_bytes()
    first = whole[:whole.index(b"\n") + 1]
    # b.pcap's append was torn by a power loss: NUL bytes, or 20 bytes of its digest
    torn = b"\x00" * 20 if tail == "nul" else whole[len(first):len(first) + 20]
    journal.write_bytes(first + torn)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert tmf_files(out_dir) == outputs  # b.pcap was converted into its output again
    assert journal.read_bytes() == whole
    assert journaled(journal) == ["a.pcap", "b.pcap"]


@pytest.mark.parametrize("cut", [1, 30, 66], ids=["one-byte", "inside-digest", "after-digest"])
def test_an_append_after_a_failed_one_cuts_its_torn_tail(watch_setup, fixed_key,
                                                         monkeypatch, capsys, cut):
    in_dir, out_dir, cfg, drop = watch_setup
    for seed, name in enumerate(["a.pcap", "b.pcap", "c.pcap"]):
        drop(name, seed=seed)
    journal = out_dir / "tmsensor.journal"
    append = cli.append_journal

    def disk_full_inside_b(path, digest, name):
        if name != "b.pcap":
            return append(path, digest, name)
        with open(path, "ab") as f:  # b.pcap's line is cut short, mid-run
            f.write(f"{digest} {name}\n".encode()[:cut])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    with monkeypatch.context() as m:
        m.setattr(cli, "append_journal", disk_full_inside_b)
        cli.watch_loop(cli.parse_config(cfg), fixed_key, threading.Event(), once=True,
                       log=io.StringIO())
    assert journaled(journal) == ["a.pcap", "c.pcap"]
    outputs = tmf_files(out_dir)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert tmf_files(out_dir) == outputs  # b.pcap was converted into its output again
    assert journaled(journal) == ["a.pcap", "c.pcap", "b.pcap"]


def test_append_journal_holds_an_exclusive_lock_while_it_fsyncs(tmp_path, monkeypatch):
    path = str(tmp_path / "tmsensor.journal")
    real_fsync = os.fsync
    synced = []  # per fsync of the journal: was a second lock refused, and its bytes

    def fsync(fd):
        if not stat.S_ISDIR(os.fstat(fd).st_mode):
            with open(path, "rb") as other:  # as another daemon would open it
                try:
                    fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    refused = False
                except BlockingIOError:
                    refused = True
                synced.append((refused, other.read()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    cli.append_journal(path, "ab" * 32, "one.pcap")
    cli.append_journal(path, "cd" * 32, "two.pcap")
    one, two = f"{'ab' * 32} one.pcap\n".encode(), f"{'cd' * 32} two.pcap\n".encode()
    assert synced == [(True, one), (True, one + two)]  # the fsync covers the entry
    with open(path, "rb") as other:  # and the lock goes with the append
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_append_to_a_whole_journal_neither_reads_it_back_nor_cuts_it(tmp_path,
                                                                    monkeypatch):
    # A daemon's journal grows without bound: only a torn journal is read back.
    path = str(tmp_path / "tmsensor.journal")
    cli.append_journal(path, "ab" * 32, "one.pcap")
    calls = []

    class Spy(io.BufferedRandom):
        def read(self, *args):
            calls.append("read")
            return super().read(*args)

        def truncate(self, *args):
            calls.append("truncate")
            return super().truncate(*args)

    with monkeypatch.context() as m:
        m.setattr(cli, "open", lambda p, mode: Spy(io.FileIO(p, "a+")), raising=False)
        cli.append_journal(path, "cd" * 32, "two.pcap")
        assert calls == []
        with open(path, "ab") as f:
            f.write(b"0" * 30)  # a torn tail: the spy sees the cut
        cli.append_journal(path, "ef" * 32, "three.pcap")
        assert calls == ["read", "truncate"]
    assert journaled(path) == ["one.pcap", "two.pcap", "three.pcap"]


def test_concurrent_appends_keep_every_entry_whole(tmp_path):
    path = str(tmp_path / "tmsensor.journal")
    with open(path, "wb") as f:
        f.write(b"0" * 30)  # a torn tail, which every daemon sees at its first append
    code = ("import sys\nfrom tmsensor import cli\n"
            "for i in range(100):\n"
            "    cli.append_journal(sys.argv[1], f'{i:064x}', f'{sys.argv[2]}-{i}.pcap')\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    daemons = [subprocess.Popen([sys.executable, "-c", code, path, str(k)], env=env)
               for k in range(4)]  # more than the cores of a small machine
    assert [d.wait(timeout=120) for d in daemons] == [0] * 4
    with open(path, "rb") as f:
        assert f.read().count(b"\n") == 400  # no entry was cut or joined to another
    assert len(cli.load_journal(path)) == 400


class Polls(threading.Event):
    """A stop event whose wait ends at once, and stops the loop on the n-th
    wait: a polling ``watch_loop`` runs n scans with no sleep."""

    def __init__(self, n):
        super().__init__()
        self.left = n

    def wait(self, timeout=None):
        self.left -= 1
        return self.left == 0 or self.is_set()


def test_watch_polls_convert_each_capture_once(watch_setup, fixed_key):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    cli.watch_loop(cli.parse_config(cfg), fixed_key, Polls(2), log=io.StringIO())
    assert len((out_dir / "tmsensor.journal").read_bytes().splitlines()) == 1


def test_watch_stops_between_captures(watch_setup, fixed_key, tmp_path):
    in_dir, out_dir, cfg_path, drop = watch_setup
    for i in range(4):
        drop(f"cap{i}.pcap", seed=i)
    cfg = cli.parse_config(cfg_path)
    stop = Polls(1)  # the loop ends after its first scan at the latest

    class StopOnFirstConversion(io.StringIO):
        def write(self, text):
            if text.startswith("[watch] converted"):
                stop.set()  # as SIGTERM would, while the daemon works
            return super().write(text)

    cli.watch_loop(cfg, fixed_key, stop, log=StopOnFirstConversion())
    journal = out_dir / "tmsensor.journal"
    assert journaled(journal) == ["cap0.pcap"]

    cli.watch_loop(cfg, fixed_key, threading.Event(), once=True, log=io.StringIO())
    whole = tmp_path / "whole"  # the same spool in one uninterrupted pass
    whole.mkdir()
    cli.watch_loop(dataclasses.replace(cfg, output_dir=str(whole)), fixed_key,
                   threading.Event(), once=True, log=io.StringIO())
    assert sorted(os.listdir(out_dir)) == sorted(os.listdir(whole))
    for name in os.listdir(whole):
        assert (out_dir / name).read_bytes() == (whole / name).read_bytes(), name
    assert len(journal.read_bytes().splitlines()) == 4


@pytest.mark.parametrize("journal", ["", "definitely not a journal\n"],
                         ids=["once", "malformed-journal"])
def test_watch_gives_back_the_callers_signal_handlers(watch_setup, capsys, journal):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    (out_dir / "tmsensor.journal").write_text(journal)
    before = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    assert cli.main(["watch", "--config", cfg, "--once"]) == (2 if journal else 0)
    assert {s: signal.getsignal(s) for s in before} == before


def test_watch_identical_captures_share_one_output(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=6)
    drop("b.pcap", seed=6)  # same bytes under another name
    drop("c.pcap", seed=7)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert tmf_files(out_dir) == ["tm-0-000.tmf", "tm-0-001.tmf"]
    journal = (out_dir / "tmsensor.journal").read_text().splitlines()
    assert sorted(line.split(" ", 1)[1] for line in journal) == ["a.pcap", "b.pcap",
                                                                 "c.pcap"]


def test_watch_skip_is_keyed_by_filename(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("seen.pcap", seed=5)
    (out_dir / "tmsensor.journal").write_text("0" * 64 + " seen.pcap\n")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert tmf_files(out_dir) == []


def test_watch_logs_and_skips_corrupt_files(watch_setup, old_mtime, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("good.pcap", seed=6)
    bad = in_dir / "bad.pcap"
    bad.write_bytes(b"not a capture at all")
    old_mtime(bad)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1
    journal = (out_dir / "tmsensor.journal").read_text()
    assert "good.pcap" in journal and "bad.pcap" not in journal
    assert "bad.pcap" in capsys.readouterr().err


def test_watch_converts_truncated_capture_with_warning(watch_setup, old_mtime,
                                                       capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    whole = drop("whole.pcap", seed=7)
    data = whole.read_bytes()
    cut = in_dir / "cut.pcap"
    cut.write_bytes(data[:-9])
    old_mtime(cut)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 2
    err = capsys.readouterr().err
    assert "truncated" in err
    assert "cut.pcap" in (out_dir / "tmsensor.journal").read_text()


def test_watch_delete_after_convert(tmp_path, key_file, old_mtime, capsys):
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    cfg = write_config(
        tmp_path,
        f"key_path = {key_file}\ninput_dir = {in_dir}\noutput_dir = {out_dir}\n"
        "quiescence_secs = 3600\ndelete_after_convert = true\n",
    )
    path = in_dir / "gone.pcap"
    with open(path, "wb") as f:
        synthesize(SynthSpec(host_count=8, packet_count=200, seed=8), f)
    old_mtime(path)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert not path.exists()
    assert len(tmf_files(out_dir)) == 1


def test_watch_names_outputs_by_capture_name_order(tmp_path, key_file,
                                                  old_mtime, capsys):
    in_dir = tmp_path / "drop"
    in_dir.mkdir()
    # The first capture by name is the largest, so it would finish last
    # if captures converted in parallel.
    for name, packets in (("a.pcap", 9000), ("b.pcap", 1500),
                          ("c.pcap", 3000), ("d.pcap", 600)):
        with open(in_dir / name, "wb") as f:
            synthesize(SynthSpec(host_count=24, packet_count=packets, seed=3), f)
        old_mtime(in_dir / name)

    contents = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        cfg = write_config(
            tmp_path,
            f"key_path = {key_file}\ninput_dir = {in_dir}\n"
            f"output_dir = {out_dir}\nwindow_size = 1024\nquiescence_secs = 60\n",
        )
        assert cli.main(["watch", "--config", cfg, "--once"]) == 0
        contents.append({p: (out_dir / p).read_bytes() for p in tmf_files(out_dir)})
    assert contents[0] == contents[1]
    assert len(contents[0]) == 4

    alone = tmp_path / "alone"
    alone.mkdir()
    assert cli.main(["convert", str(in_dir / "a.pcap"), "--key", key_file,
                     "--out-dir", str(alone), "--window-size", "1024"]) == 0
    assert contents[0]["tm-0-000.tmf"] == (alone / "tm-0-000.tmf").read_bytes()


def test_watch_keeps_leading_space_in_journaled_names(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop(" lead.pcap", seed=10)
    for _ in range(2):
        assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1
    assert cli.load_journal(str(out_dir / "tmsensor.journal")) == {" lead.pcap"}


class _StopAfterPolls(threading.Event):
    """Stop event that sets itself once the loop has waited `polls` times."""

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    def wait(self, timeout=None):
        self.polls -= 1
        if self.polls <= 0:
            self.set()
        return self.is_set()


def test_watch_line_break_in_name_is_a_failed_capture(watch_setup, fixed_key,
                                                      capsys):
    in_dir, out_dir, cfg_path, drop = watch_setup
    drop("evil\nname.pcap", seed=11)
    drop("good.pcap", seed=12)
    cfg = cli.parse_config(cfg_path)
    with tempfile.TemporaryFile("w+") as log:
        cli.watch_loop(cfg, fixed_key, _StopAfterPolls(2), log=log)
        log.seek(0)
        assert log.read().count("conversion failed") == 1
    assert len(tmf_files(out_dir)) == 1
    journal = (out_dir / "tmsensor.journal").read_text()
    assert "good.pcap" in journal and "evil" not in journal

    # Restartable: the journal still loads and nothing converts twice.
    assert cli.main(["watch", "--config", cfg_path, "--once"]) == 0
    assert cli.main(["watch", "--config", cfg_path, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1


def test_watch_says_nothing_of_a_capture_gone_before_its_conversion(watch_setup, fixed_key,
                                                                     monkeypatch):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    scan = cli._scan_candidates

    def scan_then_lose(*args):
        candidates = scan(*args)
        os.unlink(in_dir / "a.pcap")  # taken by another consumer of the spool
        return candidates

    monkeypatch.setattr(cli, "_scan_candidates", scan_then_lose)
    log = io.StringIO()
    cli.watch_loop(cli.parse_config(cfg), fixed_key, threading.Event(), once=True, log=log)
    assert log.getvalue() == ""
    assert os.listdir(out_dir) == []


def test_watch_outlives_its_input_dir(watch_setup, fixed_key):
    in_dir, out_dir, cfg, drop = watch_setup
    in_dir.rmdir()  # e.g. a spool unmounted while the daemon runs
    cli.watch_loop(cli.parse_config(cfg), fixed_key, threading.Event(), once=True,
                   log=io.StringIO())
    assert os.listdir(out_dir) == []


def test_watch_missing_output_dir_is_a_failed_capture(watch_setup, fixed_key):
    in_dir, out_dir, cfg_path, drop = watch_setup
    drop("good.pcap", seed=13)
    cfg = cli.parse_config(cfg_path)
    out_dir.rmdir()
    with tempfile.TemporaryFile("w+") as log:
        cli.watch_loop(cfg, fixed_key, _StopAfterPolls(2), log=log)
        log.seek(0)
        # Logged once: the failure is recorded, so the second poll skips it.
        assert log.read().count("[watch] good.pcap: conversion failed: ") == 1


@pytest.mark.parametrize("delete_after", [False, True])
def test_watch_journal_failure_is_a_failed_capture(watch_setup, fixed_key, old_mtime,
                                                   delete_after):
    # A header-only capture converts without touching output_dir, so the
    # journal append is the first write to fail there; a capture deleted by
    # its conversion has not vanished.
    in_dir, out_dir, cfg_path, _ = watch_setup
    (in_dir / "empty.pcap").write_bytes(pcap_header())
    old_mtime(in_dir / "empty.pcap")
    cfg = cli.parse_config(cfg_path)
    cfg.delete_after_convert = delete_after
    out_dir.rmdir()
    with tempfile.TemporaryFile("w+") as log:
        cli.watch_loop(cfg, fixed_key, _StopAfterPolls(2), log=log)
        log.seek(0)
        assert log.read().count("[watch] empty.pcap: conversion failed: ") == 1
    assert (in_dir / "empty.pcap").exists()  # not journaled, so not deleted


def test_watch_deletes_a_capture_only_after_its_journal_line(watch_setup, fixed_key,
                                                              monkeypatch):
    in_dir, out_dir, cfg_path, drop = watch_setup
    capture = drop("a.pcap", seed=14)
    cfg = cli.parse_config(cfg_path)
    cfg.delete_after_convert = True
    real_append = cli.append_journal

    def append_fails_once(*args):
        monkeypatch.setattr(cli, "append_journal", real_append)
        raise OSError(errno.ENOSPC, "injected full disk")

    monkeypatch.setattr(cli, "append_journal", append_fails_once)
    log = io.StringIO()
    cli.watch_loop(cfg, fixed_key, threading.Event(), once=True, log=log)
    assert "[watch] a.pcap: conversion failed: " in log.getvalue()
    assert capture.exists()
    assert cli.load_journal(str(out_dir / "tmsensor.journal")) == set()
    assert tmf_files(out_dir) == ["tm-0-000.tmf"]
    first = (out_dir / "tm-0-000.tmf").read_bytes()

    # The restart converts it again into the same output, then journals and
    # deletes it.
    cli.watch_loop(cfg, fixed_key, threading.Event(), once=True, log=log)
    journal = (out_dir / "tmsensor.journal").read_text()
    assert journal.count(" a.pcap\n") == 1 and len(journal.splitlines()) == 1
    assert tmf_files(out_dir) == ["tm-0-000.tmf"]
    assert (out_dir / "tm-0-000.tmf").read_bytes() == first
    assert not capture.exists()


def test_watch_a_failed_delete_is_logged_and_not_retried(watch_setup, fixed_key,
                                                        monkeypatch):
    in_dir, out_dir, cfg_path, drop = watch_setup
    drop("a.pcap", seed=15)
    cfg = cli.parse_config(cfg_path)
    cfg.delete_after_convert = True
    real_unlink = os.unlink
    unlinked = []

    def unlink_capture_fails(path, *args, **kwargs):
        if os.path.basename(path) == "a.pcap":
            unlinked.append(path)
            raise PermissionError(errno.EACCES, "injected", path)
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", unlink_capture_fails)
    log = io.StringIO()
    cli.watch_loop(cfg, fixed_key, _StopAfterPolls(2), log=log)
    assert log.getvalue().count("[watch] a.pcap: delete failed: ") == 1
    assert "conversion failed" not in log.getvalue()
    assert len(unlinked) == 1  # journaled, so the second poll skips it
    assert journaled(out_dir / "tmsensor.journal") == ["a.pcap"]
    assert (in_dir / "a.pcap").exists()
    assert len(tmf_files(out_dir)) == 1


def test_watch_journals_names_that_are_not_utf8(watch_setup, fixed_key):
    in_dir, out_dir, cfg_path, drop = watch_setup
    drop(os.fsdecode(b"caf\xe9.pcap"), seed=13)
    cfg = cli.parse_config(cfg_path)
    # Like sys.stderr, the log escapes what it cannot encode.
    with tempfile.TemporaryFile("w+", errors="backslashreplace") as log:
        for _ in range(2):
            cli.watch_loop(cfg, fixed_key, threading.Event(), once=True, log=log)
    assert len(tmf_files(out_dir)) == 1


journal_names = st.one_of(
    st.text(st.characters(blacklist_characters="\n\r",
                          blacklist_categories=("Cs",)), min_size=1),
    st.binary(min_size=1)
    .filter(lambda b: b"\n" not in b and b"\r" not in b)
    .map(lambda b: b.decode("utf-8", "surrogateescape")),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(journal_names,
                       st.binary(min_size=32, max_size=32).map(bytes.hex),
                       max_size=8),
       st.binary(min_size=1).filter(lambda b: b"\n" not in b),
       st.data())
def test_journal_round_trips_every_name(entries, torn, data):
    # A torn tail, as a crashed append leaves it, before one of the appends
    # (which cuts it) or after the last (which load_journal skips).
    tear = data.draw(st.integers(0, len(entries)), label="tear")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tmsensor.journal")
        for i, (name, digest) in enumerate([*entries.items(), (None, None)]):
            if i == tear:
                with open(path, "ab") as f:
                    f.write(torn)
            if name is not None:
                cli.append_journal(path, digest, name)
        assert cli.load_journal(path) == set(entries)
        with open(path, "rb") as f:
            *lines, tail = f.read().split(b"\n")
    assert [os.fsdecode(line).split(" ", 1) for line in lines] == [
        [digest, name] for name, digest in entries.items()]
    assert tail == (torn if tear == len(entries) else b"")


def test_creating_the_journal_fsyncs_its_directory(tmp_path, monkeypatch):
    synced = []  # per fsync call: whether the fd is a directory
    real_fsync = os.fsync

    def fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    path = str(tmp_path / "tmsensor.journal")
    cli.append_journal(path, "ab" * 32, "one.pcap")
    assert synced == [False, True]
    synced.clear()
    cli.append_journal(path, "cd" * 32, "two.pcap")
    cli.append_journal(path, "ef" * 32, "three.pcap")
    assert synced == [False, True, False, True]  # every append: the file, then its directory


def test_the_first_append_to_a_journal_left_by_a_crash_fsyncs_its_directory(
        tmp_path, monkeypatch):
    # A daemon created the journal and fsynced its line, then crashed before the
    # directory fsync: a power loss may still drop the journal's directory entry.
    path = tmp_path / "tmsensor.journal"
    path.write_text(f"{'ab' * 32} one.pcap\n")
    synced = []  # per fsync call: the inode of the fd
    real_fsync = os.fsync

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    cli.append_journal(str(path), "cd" * 32, "two.pcap")
    assert synced == [path.stat().st_ino, tmp_path.stat().st_ino]


def test_load_journal_holds_under_176_bytes_per_entry(tmp_path):
    """The traced bytes that load_journal's result holds for 10 000 entries
    with 35-character names. Holding the names alone measured 136 bytes per
    entry; holding each entry's 64-hex digest as well measured 218. The bound
    sits 40 bytes above the first and 42 below the second."""
    entries = 10_000
    names = {f"capture-{i:08d}-20261022T1200.pcap" for i in range(entries)}
    path = tmp_path / "tmsensor.journal"
    path.write_text("".join(f"{i:064x} {name}\n" for i, name in enumerate(names)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        journal = cli.load_journal(str(path))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert journal == names
    per_entry = held / entries
    assert per_entry < 176, f"{per_entry:.1f} bytes per journal entry"


def test_a_malformed_journal_line_is_named_by_its_number(tmp_path):
    path = tmp_path / "tmsensor.journal"
    path.write_text("0" * 64 + " a.pcap\n\nnot an entry\n")  # blank lines are skipped
    with pytest.raises(JournalError, match=r"tmsensor\.journal:3: unparseable journal line"):
        cli.load_journal(str(path))


def test_watch_malformed_journal_is_data_error(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    (out_dir / "tmsensor.journal").write_text("definitely not a journal\n")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 2


def test_watch_rejects_a_poll_interval_too_long_to_wait(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    drop("a.pcap", seed=1)
    with open(cfg, "a", encoding="utf-8") as f:
        f.write("poll_interval_secs = 10000000000\n")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 3
    err = capsys.readouterr().err
    assert "poll_interval_secs must be <=" in err and "Traceback" not in err
    assert list(out_dir.rglob("*.tmf")) == []


def test_config_accepts_the_longest_poll_interval(tmp_path, key_file):
    longest = int(threading.TIMEOUT_MAX)
    path = write_config(tmp_path, f"key_path = {key_file}\ninput_dir = /in\n"
                                  f"output_dir = /out\npoll_interval_secs = {longest}\n")
    cli.parse_config(path).validate()
    lock = threading.Lock()  # free, so the wait is only checked, not made
    assert lock.acquire(timeout=longest)
    lock.release()
    with pytest.raises(OverflowError):
        lock.acquire(timeout=longest + 1)


def test_watch_missing_directories_is_environment_error(tmp_path, key_file,
                                                        capsys):
    cfg = write_config(
        tmp_path,
        f"key_path = {key_file}\ninput_dir = {tmp_path}/nope\n"
        f"output_dir = {tmp_path}/norr\n",
    )
    assert cli.main(["watch", "--config", cfg, "--once"]) == 3


def test_watch_missing_config_file_is_environment_error(tmp_path):
    assert cli.main(["watch", "--config", str(tmp_path / "none.cfg"),
                     "--once"]) == 3


def test_watch_key_path_from_environment(tmp_path, key_file, old_mtime,
                                         monkeypatch, capsys):
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    cfg = write_config(
        tmp_path,
        f"input_dir = {in_dir}\noutput_dir = {out_dir}\nquiescence_secs = 3600\n",
    )
    path = in_dir / "env.pcap"
    with open(path, "wb") as f:
        synthesize(SynthSpec(host_count=8, packet_count=100, seed=9), f)
    old_mtime(path)
    monkeypatch.setenv("TMSENSOR_KEY", key_file)
    assert cli.main(["watch", "--config", cfg, "--once"]) == 0
    assert len(tmf_files(out_dir)) == 1


# --- crash points ---

# Run in a fresh interpreter. Each scenario runs once cleanly, counting its
# steps: os.open with O_CREAT, os.fsync, os.link and os.unlink. Then, for the
# point just before and just after each step, a forked process runs the
# scenario and os._exits there, a crash that the page cache survives; the
# scenario's recovery then runs in the interpreter itself, and the outputs
# and journal it leaves must be the clean run's. `.part-` leftovers are
# allowed. argv: the directory of the inputs (key, a.pcap, b.pcap) and a
# work directory. Prints, per scenario, its crash points and failures.
_CRASH_POINTS = r'''
import contextlib, io, json, os, shutil, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # no pool thread: each fork is of one thread
from tmsensor import cli
from tmsensor.anon import load_key

inputs, work = sys.argv[1:3]
CRASHED = 17
steps = crash_at = None  # set while a scenario runs; point 2k is just before step k


def step(real, counts=lambda *args: True):
    def wrapper(*args, **kwargs):
        global steps
        if steps is None or not counts(*args):
            return real(*args, **kwargs)
        if crash_at == 2 * steps:
            os._exit(CRASHED)
        result = real(*args, **kwargs)
        if crash_at == 2 * steps + 1:
            os._exit(CRASHED)
        steps += 1
        return result
    return wrapper


os.open = step(os.open, lambda path, flags, *rest: flags & os.O_CREAT)
os.fsync, os.link, os.unlink = step(os.fsync), step(os.link), step(os.unlink)


def run(argv, crash=None):
    # Runs a command quietly; returns its exit code and the steps it made.
    global steps, crash_at
    steps, crash_at = 0, crash
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), steps
    finally:
        steps = crash_at = None


def fresh(name):
    d = os.path.join(work, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(d, "in"))
    os.mkdir(os.path.join(d, "out"))
    for capture in ("a.pcap", "b.pcap"):  # copy2 keeps their old mtimes
        shutil.copy2(os.path.join(inputs, capture), os.path.join(d, "in"))
    with open(os.path.join(d, "watch.conf"), "w") as f:
        f.write(f"key_path = {inputs}/key\ninput_dir = {d}/in\noutput_dir = {d}/out\n"
                "window_size = 1024\nquiescence_secs = 3600\n"
                f"delete_after_convert = {name.endswith('delete')}\n")
    return d


def result(d):
    # The final .tmf names with their bytes, and the journal's lines.
    out = os.path.join(d, "out")
    tmfs = {}
    for n in os.listdir(out):
        if n.endswith(".tmf") and not n.startswith(".part-"):
            with open(os.path.join(out, n), "rb") as f:
                tmfs[n] = f.read()
    try:
        with open(os.path.join(out, cli.JOURNAL_NAME), "rb") as f:
            return tmfs, f.read().splitlines()
    except FileNotFoundError:
        return tmfs, []


def watch_argv(d):
    return ["watch", "--config", f"{d}/watch.conf", "--once"]


def recover_watch(d, argv):
    if run(argv)[0] != 0:
        return "the rerun failed"
    named = {line.split(b" ", 1)[1] for line in result(d)[1]}
    if {b"a.pcap", b"b.pcap"} - named - set(os.listdir(f"{d}/in".encode())):
        return "a capture is neither in input_dir nor journaled"


def convert_argv(d):
    return (["convert", f"{d}/in/a.pcap", "--key", f"{inputs}/key", "--out-dir",
             f"{d}/out", "--window-size", "1024"]
            + ["--delete-after-convert"] * d.endswith("delete"))


def recover_convert(d, argv):
    # A capture that is gone gets no rerun: its output must be whole already.
    if os.path.exists(argv[1]) and run(argv)[0] != 0:
        return "the rerun failed"


def genkey_argv(d):
    return ["genkey", "--out", f"{d}/out/new.key"]


def recover_genkey(d, argv):
    if not os.path.lexists(argv[-1]) and run(argv)[0] != 0:
        return "the rerun failed"
    try:
        with open(argv[-1], "rb") as f:
            load_key(f)
    except Exception as exc:
        return f"--out holds no key: {exc!r}"


SCENARIOS = {
    "watch": (watch_argv, recover_watch),
    "watch-delete": (watch_argv, recover_watch),
    "convert": (convert_argv, recover_convert),
    "convert-delete": (convert_argv, recover_convert),
    "genkey": (genkey_argv, recover_genkey),
}
report = {}
for name, (argv, recover) in SCENARIOS.items():
    d = fresh(name)
    code, count = run(argv(d))
    clean = result(d)
    failures = [] if code == 0 else ["the clean run failed"]
    for point in range(2 * count):
        d = fresh(name)
        pid = os.fork()
        if pid == 0:
            try:
                run(argv(d), point)
            finally:
                os._exit(0)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != CRASHED:
            problem = "not reached"
        else:
            problem = recover(d, argv(d))
            if problem is None and result(d) != clean:
                problem = "the outputs or the journal differ from the clean run's"
        if problem:
            failures.append(f"point {point}: {problem}")
    report[name] = {"points": 2 * count, "failures": failures}
print(json.dumps(report))
'''


def test_every_crash_point_recovers(tmp_path, fixed_key, old_mtime):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    with open(inputs / "key", "wb") as f:
        save_key(fixed_key, f)
    for name, seed in (("a.pcap", 1), ("b.pcap", 2)):
        with open(inputs / name, "wb") as f:
            synthesize(SynthSpec(host_count=8, packet_count=64, seed=seed), f)
        old_mtime(inputs / name)
    out, _ = run_python(_CRASH_POINTS, str(inputs), str(tmp_path / "work"))
    report = json.loads(out)
    assert all(r["points"] for r in report.values()), report
    assert {name: r["failures"] for name, r in report.items()} == dict.fromkeys(report, [])


# --- synth ---

def test_synth_writes_pcap_and_ground_truth(tmp_path, capsys):
    out = tmp_path / "gen.pcap"
    rc = cli.main(["synth", "--out", str(out), "--hosts", "12",
                   "--packets", "600", "--seed", "5"])
    assert rc == 0
    printed = kv_lines(capsys.readouterr().out)
    assert printed["packets"] == "600"
    assert printed["hosts"] == "12"
    assert printed["pcap_bytes"] == str(out.stat().st_size)
    assert printed["ground_truth"] == str(out) + ".truth"
    assert out.exists()
    truth_text = (tmp_path / "gen.pcap.truth").read_text()
    assert truth_text.rstrip().endswith("total 600")


def test_synth_repeated_seed_gives_identical_files(tmp_path, capsys):
    args = ["--hosts", "12", "--packets", "400", "--seed", "11"]
    a, b = tmp_path / "a.pcap", tmp_path / "b.pcap"
    assert cli.main(["synth", "--out", str(a), *args]) == 0
    assert cli.main(["synth", "--out", str(b), *args]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.pcap.truth").read_text() == (
        tmp_path / "b.pcap.truth"
    ).read_text()


def test_synth_output_feeds_convert(tmp_path, key_file, capsys):
    out = tmp_path / "feed.pcap"
    assert cli.main(["synth", "--out", str(out), "--hosts", "10",
                     "--packets", "300", "--seed", "2"]) == 0
    out_dir = tmp_path / "tm"
    out_dir.mkdir()
    assert cli.main(["convert", str(out), "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0
    assert kv_lines(capsys.readouterr().out)["valid_ip_packets"] == "300"


def test_synth_zero_packets_is_valid_empty_pcap(tmp_path, capsys):
    out = tmp_path / "zero.pcap"
    assert cli.main(["synth", "--out", str(out), "--packets", "0"]) == 0
    assert out.stat().st_size == 24
    assert (tmp_path / "zero.pcap.truth").read_text() == "total 0\n"


def test_synth_invalid_spec_is_usage_error(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "x.pcap"),
                     "--hosts", "1"]) == 1
    assert cli.main(["synth", "--out", str(tmp_path / "x.pcap"),
                     "--payload-min", "90", "--payload-max", "10"]) == 1
    # The spec is checked before --out's directory is touched.
    assert cli.main(["synth", "--out", str(tmp_path / "missing" / "x.pcap"),
                     "--hosts", "1"]) == 1


@pytest.mark.parametrize("flags", [
    ["--packets", "10", "--start-time-us", "5000000000000000"],
    ["--packets", "10", "--mean-gap-us", "1e300"],
    ["--packets", "10", "--mean-gap-us", "inf"],
    ["--packets", "1000", "--mean-gap-us", "1e13"],  # drawn times run past 2**32 s
    ["--packets", "10", "--hosts", "3", "--zipf-exponent", "1e9"],
])
def test_synth_spec_past_the_pcap_format_exits_1_without_output(tmp_path, capsys, flags):
    out = tmp_path / "x.pcap"
    assert cli.main(["synth", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "x.pcap.truth").exists()


def test_synth_refused_spec_leaves_an_existing_out_untouched(tmp_path, capsys):
    out = tmp_path / "keep.pcap"
    out.write_bytes(b"kept")
    assert cli.main(["synth", "--out", str(out), "--packets", "2000",
                     "--mean-gap-us", "4000000000000000"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == b"kept"
    assert os.listdir(tmp_path) == ["keep.pcap"]  # no temporary file left either


def test_synth_custom_ground_truth_path(tmp_path, capsys):
    out = tmp_path / "c.pcap"
    truth = tmp_path / "custom.truth"
    assert cli.main(["synth", "--out", str(out), "--packets", "50",
                     "--ground-truth", str(truth)]) == 0
    assert truth.exists()
    assert not (tmp_path / "c.pcap.truth").exists()


def test_synth_output_mode_comes_from_the_umask(tmp_path, capsys):
    out = tmp_path / "c.pcap"
    umask = 0o026  # masks no execute bit, so a mode with one shows
    saved = os.umask(umask)
    try:
        assert cli.main(["synth", "--out", str(out), "--packets", "50"]) == 0
    finally:
        os.umask(saved)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
