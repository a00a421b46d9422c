"""Command-line behavior: flags, exit codes, outputs, watch mode."""

import dataclasses
import json
import os
import re
import stat
import struct
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor import cli
from tmsensor.anon import load_key, save_key
from tmsensor.errors import ConfigError
from tmsensor.matrix import TrafficMatrix
from tmsensor.synth import SynthSpec, synthesize
from tmsensor.tmf import MAGIC, read_tmf, write_tmf

from conftest import eth_ipv4_capture, pcap_header, run_python


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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(["--help"])
    assert exc_info.value.code == 0
    assert cli.main(["--help"]) == 0


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


def test_genkey_refuses_to_overwrite(tmp_path, capsys):
    out = tmp_path / "exists.key"
    out.write_bytes(b"precious")
    assert cli.main(["genkey", "--out", str(out)]) == 3
    assert out.read_bytes() == b"precious"
    assert "refusing" in capsys.readouterr().err


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
    assert float(printed["compression_ratio"]) > 1

    hour = spec.start_time_us // 3_600_000_000
    expected_name = f"tm-{hour}-000.tmf"
    assert printed["tmf"] == str(out_dir / expected_name)
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

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind))
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
        ("fsync", "file"),
        ("link", os.path.basename(summary["tmf_path"])),
        ("unlink", ".part-"),
        ("fsync", "dir"),
    ]


def test_convert_output_mode_comes_from_the_umask_left_unchanged(
        tmp_path, fixed_key, small_pcap, monkeypatch):
    """os.umask is process-wide: setting it, even briefly, would change the
    mode of files other threads create meanwhile."""
    pcap_path, _, _ = small_pcap
    umask = 0o027
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


@pytest.mark.parametrize("bad", ["1000", "1025", "33554432", "0", "-8", "xyz"])
def test_convert_rejects_bad_window_sizes(tmp_path, key_file, bad):
    assert cli.main(["convert", "whatever.pcap", "--key", key_file,
                     "--out-dir", str(tmp_path), "--window-size", bad]) == 1


def test_convert_missing_pcap_is_environment_error(tmp_path, key_file, capsys):
    assert cli.main(["convert", str(tmp_path / "absent.pcap"),
                     "--key", key_file, "--out-dir", str(tmp_path)]) == 3


def test_convert_non_pcap_is_data_error(tmp_path, key_file, capsys):
    bogus = tmp_path / "bogus.pcap"
    bogus.write_bytes(b"this is not a capture")
    assert cli.main(["convert", str(bogus), "--key", key_file,
                     "--out-dir", str(tmp_path)]) == 2


def test_convert_header_only_pcap_writes_nothing(tmp_path, key_file, capsys):
    empty = tmp_path / "empty.pcap"
    empty.write_bytes(pcap_header())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["convert", str(empty), "--key", key_file,
                     "--out-dir", str(out_dir)]) == 0
    assert "0 packets" in capsys.readouterr().out
    assert list(out_dir.iterdir()) == []


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
    data = bytearray(open(tmf_path, "rb").read())
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


@pytest.mark.parametrize(
    "overrides",
    [
        "window_size = 1000",
        "window_size = 33554432",
        "quiescence_secs = 0",
        "poll_interval_secs = 0",
    ],
)
def test_config_validation_bounds(tmp_path, key_file, overrides):
    path = write_config(
        tmp_path,
        f"key_path = {key_file}\ninput_dir = /in\noutput_dir = /out\n{overrides}\n",
    )
    with pytest.raises(ConfigError):
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


def test_config_missing_required_keys(tmp_path):
    path = write_config(tmp_path, "window_size = 2048\n")
    with pytest.raises(ConfigError):
        cli.parse_config(path).validate()


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
    journal = cli.load_journal(str(out_dir / "tmsensor.journal"))
    assert list(journal) == [" lead.pcap"]


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
                       max_size=8))
def test_journal_round_trips_every_name(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tmsensor.journal")
        for name, digest in entries.items():
            cli.append_journal(path, digest, name)
        assert cli.load_journal(path) == entries


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
    assert synced == [False, False]


def test_watch_malformed_journal_is_data_error(watch_setup, capsys):
    in_dir, out_dir, cfg, drop = watch_setup
    (out_dir / "tmsensor.journal").write_text("definitely not a journal\n")
    assert cli.main(["watch", "--config", cfg, "--once"]) == 2


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


# --- synth ---

def test_synth_writes_pcap_and_ground_truth(tmp_path, capsys):
    out = tmp_path / "gen.pcap"
    rc = cli.main(["synth", "--out", str(out), "--hosts", "12",
                   "--packets", "600", "--seed", "5"])
    assert rc == 0
    printed = kv_lines(capsys.readouterr().out)
    assert printed["packets"] == "600"
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


def test_synth_custom_ground_truth_path(tmp_path, capsys):
    out = tmp_path / "c.pcap"
    truth = tmp_path / "custom.truth"
    assert cli.main(["synth", "--out", str(out), "--packets", "50",
                     "--ground-truth", str(truth)]) == 0
    assert truth.exists()
    assert not (tmp_path / "c.pcap.truth").exists()
