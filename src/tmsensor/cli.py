"""Command-line sensor pipeline.

Subcommands: genkey (create a key file), convert (one PCAP to one traffic
matrix file), analyze (report on matrix files), synth (generate test
traffic), and watch (poll a capture directory and convert whatever an
external capture service drops there, sidecar style).

Exit codes: 0 success, 1 usage, 2 data error, 3 environment error.
Diagnostics go to stderr; reports and data go to stdout or files.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import itertools
import os
import re
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, fields

from .analytics import analyze_many, format_report_text, report_to_dict
from .anon import AnonKey, generate_key, load_key, save_key
from .errors import (
    ConfigError,
    EntropyUnavailable,
    InvalidSynthSpec,
    JournalError,
    SensorError,
)
from .matrix import DEFAULT_WINDOW_SIZE, MAX_WINDOW_SIZE, MIN_WINDOW_SIZE, build_windows
from .pcap import parse_pcap
from .synth import SynthSpec, synthesize, write_ground_truth
from .tmf import iter_tmf, tmf_filename, write_tmf
from .tmf import read_tmf  # noqa: F401  bench/tracer.py wraps cli.read_tmf by name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENV = 3

KEY_PATH_ENV = "TMSENSOR_KEY"
JOURNAL_NAME = "tmsensor.journal"

_US_PER_HOUR = 3_600_000_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_WINDOW_SIZE_RULE = (
    f"window size must be a power of two in [{MIN_WINDOW_SIZE}, {MAX_WINDOW_SIZE}]"
)


def _valid_window_size(value: int) -> bool:
    return MIN_WINDOW_SIZE <= value <= MAX_WINDOW_SIZE and not value & (value - 1)


def _window_size_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not _valid_window_size(value):
        raise argparse.ArgumentTypeError(_WINDOW_SIZE_RULE)
    return value


# --- configuration ---

@dataclass
class SensorConfig:
    """Watch-mode settings, loaded from a flat `key = value` file."""

    key_path: str = ""
    input_dir: str = ""
    output_dir: str = ""
    window_size: int = DEFAULT_WINDOW_SIZE
    quiescence_secs: int = 120
    poll_interval_secs: int = 60
    delete_after_convert: bool = False
    prefix: str = "tm"

    def validate(self) -> None:
        if not self.key_path:
            raise ConfigError(
                f"key_path is required (set it in the config or ${KEY_PATH_ENV})"
            )
        if not self.input_dir or not self.output_dir:
            raise ConfigError("input_dir and output_dir are required")
        if not _valid_window_size(self.window_size):
            raise ConfigError(_WINDOW_SIZE_RULE)
        if self.quiescence_secs < 1 or self.poll_interval_secs < 1:
            raise ConfigError("quiescence_secs and poll_interval_secs must be >= 1")


_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def parse_config(path: str) -> SensorConfig:
    cfg = SensorConfig()
    known = {f.name for f in fields(SensorConfig)}
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        name, value = name.strip(), value.strip()
        if name not in known:
            raise ConfigError(f"{path}:{lineno}: unknown setting {name!r}")
        current = getattr(cfg, name)
        try:
            if isinstance(current, bool):
                setattr(cfg, name, _BOOL_VALUES[value.lower()])
            elif isinstance(current, int):
                setattr(cfg, name, int(value))
            else:
                setattr(cfg, name, value)
        except (KeyError, ValueError):
            raise ConfigError(
                f"{path}:{lineno}: bad value {value!r} for {name}"
            ) from None
    return cfg


# --- conversion core (shared by convert and watch) ---

class _HashingReader:
    """Pass-through reader that digests every byte it hands out."""

    def __init__(self, raw, digest):
        self._raw = raw
        self._digest = digest

    def read(self, n=-1):
        data = self._raw.read(n)
        self._digest.update(data)
        return data

    def readinto(self, b):
        n = self._raw.readinto(b)
        self._digest.update(b[:n])
        return n


def convert_file(
    key: AnonKey,
    window_size: int,
    pcap_path: str,
    out_dir: str,
    prefix: str = "tm",
    *,
    delete_after: bool = False,
    log=None,
) -> dict:
    """Convert one capture into one matrix file; returns a summary dict.

    Truncated captures convert normally (with a warning on `log`); an empty
    capture produces no output file. Windows stream from the parser into a
    temporary file, which is fsynced and then hard-linked to the first free
    <prefix>-<hour>-<seq>.tmf name: the link fails rather than replace an
    existing file, so no finished output is ever overwritten or partially
    visible under its final name. A name already holding the same bytes is
    reused, so a capture converted again after a crash gets no second
    output. The directory is fsynced last, so the output is durable before
    the caller journals it.
    """
    if log is None:
        log = sys.stderr  # resolved per call so stream redirection works
    digest = hashlib.sha256()
    out_path = None
    tmf_bytes = 0
    with open(pcap_path, "rb") as f:
        batches, stats = parse_pcap(_HashingReader(f, digest))
        windows = build_windows(batches, key, window_size)
        first = next(windows, None)
        if first is not None:
            hour = first.start_time_us // _US_PER_HOUR
            while True:  # a new file, so the kernel applies the umask to its mode
                tmp_path = os.path.join(out_dir, f".part-{os.urandom(8).hex()}.tmf")
                try:
                    tmp_fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    continue
            try:
                with os.fdopen(tmp_fd, "wb") as out:
                    tmf_bytes = write_tmf(itertools.chain([first], windows), out)
                    out.flush()
                    os.fsync(out.fileno())
                for seq in itertools.count():
                    out_path = os.path.join(out_dir, tmf_filename(prefix, hour, seq))
                    try:
                        os.link(tmp_path, out_path)
                        break
                    except FileExistsError:
                        if filecmp.cmp(tmp_path, out_path, shallow=False):
                            break  # this output already exists, e.g. before a crash
            finally:
                os.unlink(tmp_path)
            _fsync_dir(out_dir)
    pcap_bytes = os.stat(pcap_path).st_size

    if stats.truncated_tail:
        print(
            f"warning: {pcap_path}: capture truncated mid-record; "
            f"converted the complete records",
            file=log,
        )

    if delete_after:
        os.unlink(pcap_path)

    return {
        "pcap_path": pcap_path,
        "pcap_bytes": pcap_bytes,
        "stats": stats,
        "window_count": -(-stats.valid_ip_packets // window_size),
        "tmf_path": out_path,
        "tmf_bytes": tmf_bytes,
        "digest": digest.hexdigest(),
    }


def _fsync_dir(path: str) -> None:
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# --- subcommands ---

def _load_key_file(path: str) -> AnonKey:
    with open(path, "rb") as f:
        return load_key(f)


def cmd_genkey(args) -> int:
    key = generate_key()
    try:
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except FileExistsError:
        raise FileExistsError(f"{args.out} already exists; refusing to overwrite")
    with os.fdopen(fd, "wb") as f:
        save_key(key, f)
    print(f"key_file={args.out}")
    print(f"key_id={key.key_id.hex()}")
    return EXIT_OK


def cmd_convert(args) -> int:
    key_path = args.key or os.environ.get(KEY_PATH_ENV)
    if not key_path:
        print(f"error: no key file given (use --key or ${KEY_PATH_ENV})",
              file=sys.stderr)
        return EXIT_USAGE
    key = _load_key_file(key_path)
    summary = convert_file(
        key,
        args.window_size,
        args.pcap,
        args.out_dir,
        args.prefix,
        delete_after=args.delete_after_convert,
    )
    print(f"pcap={summary['pcap_path']}")
    print(f"pcap_bytes={summary['pcap_bytes']}")
    for name, value in asdict(summary["stats"]).items():
        print(f"{name}={str(value).lower()}")  # truncated_tail prints true/false
    print(f"windows={summary['window_count']}")
    if summary["tmf_path"] is None:
        print("0 packets, no matrix file written")
        return EXIT_OK
    print(f"tmf={summary['tmf_path']}")
    print(f"tmf_bytes={summary['tmf_bytes']}")
    print(f"compression_ratio={summary['pcap_bytes'] / summary['tmf_bytes']:.2f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    origins = []

    def blocks():
        for path in args.files:
            try:
                with open(path, "rb") as f:
                    for index, m in enumerate(iter_tmf(f)):
                        origins.append((path, index))
                        yield m
            except (SensorError, OSError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc  # main picks the exit code

    # Reports are printed only once every file has been read, so a fault in
    # a later file leaves stdout empty.
    reports, merged = analyze_many(blocks())

    if args.format == "json":
        import json

        doc = {
            "windows": [
                {"file": path, "block": block, "report": report_to_dict(r)}
                for (path, block), r in zip(origins, reports)
            ],
            "merged": report_to_dict(merged),
        }
        print(json.dumps(doc, indent=2))
    else:
        for (path, block), r in zip(origins, reports):
            print("report=window")
            print(f"file={path}")
            print(f"block={block}")
            print(format_report_text(r))
            print()
        print("report=merged")
        print(f"windows={len(reports)}")
        print(format_report_text(merged))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        host_count=args.hosts,
        packet_count=args.packets,
        zipf_exponent=args.zipf_exponent,
        payload_len_range=(args.payload_min, args.payload_max),
        seed=args.seed,
        start_time_us=args.start_time_us,
        mean_interarrival_us=args.mean_gap_us,
    )
    spec.validate()
    truth_path = args.ground_truth or args.out + ".truth"
    try:
        with open(args.out, "wb") as f:
            truth = synthesize(spec, f)
    except InvalidSynthSpec:
        os.unlink(args.out)  # raised before a byte was written
        raise
    with open(truth_path, "w", encoding="utf-8") as f:
        write_ground_truth(truth, f)
    print(f"pcap={args.out}")
    print(f"pcap_bytes={os.stat(args.out).st_size}")
    print(f"packets={spec.packet_count}")
    print(f"hosts={spec.host_count}")
    print(f"ground_truth={truth_path}")
    return EXIT_OK


# --- watch daemon ---

_JOURNAL_LINE = re.compile(r"([0-9a-fA-F]{64}) (.+)")


def load_journal(path: str) -> dict[str, str]:
    """Map of processed capture name -> content digest.

    Each line is a 64-hex-digit digest, one space, and the rest of the line
    as the name, so names keep leading and trailing spaces. Names that are
    not valid UTF-8 round-trip through surrogate escapes, as os.listdir
    returns them.
    """
    entries: dict[str, str] = {}
    try:
        f = open(path, encoding="utf-8", errors="surrogateescape", newline="\n")
    except FileNotFoundError:
        return entries
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.removesuffix("\n")
            if not line.strip():
                continue
            match = _JOURNAL_LINE.fullmatch(line)
            if match is None:
                raise JournalError(f"{path}:{lineno}: unparseable journal line")
            entries[match[2]] = match[1]
    return entries


def append_journal(path: str, digest: str, name: str) -> None:
    created = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", errors="surrogateescape") as f:
        f.write(f"{digest} {name}\n")
        f.flush()
        os.fsync(f.fileno())
    if created:  # the new journal's directory entry must be durable too
        _fsync_dir(os.path.dirname(path) or os.curdir)


def _scan_candidates(cfg: SensorConfig, journal, failed):
    """Quiescent, unprocessed .pcap files; tolerates files vanishing mid-scan."""
    try:
        names = sorted(os.listdir(cfg.input_dir))
    except FileNotFoundError:
        return []
    now = time.time()
    candidates = []
    for name in names:
        if not name.endswith(".pcap") or name in journal:
            continue
        path = os.path.join(cfg.input_dir, name)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            continue
        if (name, st.st_mtime_ns) in failed:
            continue
        if now - st.st_mtime < cfg.quiescence_secs:
            continue  # may still be written; wait for it to go quiet
        candidates.append((name, path, st.st_mtime_ns))
    return candidates


def watch_loop(
    cfg: SensorConfig,
    key: AnonKey,
    stop_event: threading.Event,
    *,
    once: bool = False,
    log=None,
) -> None:
    """Poll input_dir and convert each new quiescent capture exactly once.

    Captures convert one at a time in name order, so a spool maps the same
    captures to the same output names on every run. The journal in
    output_dir survives restarts; failures are logged, skipped, and retried
    only when the file changes or the daemon restarts. A name holding a line
    break cannot be journaled, so it counts as a failure.
    """
    if log is None:
        log = sys.stderr
    journal_file = os.path.join(cfg.output_dir, JOURNAL_NAME)
    journal = load_journal(journal_file)
    failed: set[tuple[str, int]] = set()

    while True:
        for name, path, mtime_ns in _scan_candidates(cfg, journal, failed):
            summary = None
            try:
                if "\n" in name or "\r" in name:
                    raise JournalError(f"{name!r}: the journal cannot record a line break")
                summary = convert_file(
                    key,
                    cfg.window_size,
                    path,
                    cfg.output_dir,
                    cfg.prefix,
                    delete_after=cfg.delete_after_convert,
                    log=log,
                )
                append_journal(journal_file, summary["digest"], name)
            except (SensorError, OSError) as exc:
                if (summary is None and isinstance(exc, FileNotFoundError)
                        and not os.path.lexists(path)):
                    continue  # vanished between scan and open
                print(f"[watch] {name}: conversion failed: {exc}", file=log)
                failed.add((name, mtime_ns))
                continue
            journal[name] = summary["digest"]
            print(
                f"[watch] converted {name} -> "
                f"{summary['tmf_path'] or '(empty capture, no output)'}",
                file=log,
            )
        if once or stop_event.is_set():
            return
        stop_event.wait(cfg.poll_interval_secs)
        if stop_event.is_set():
            return


def cmd_watch(args) -> int:
    cfg = parse_config(args.config)
    if not cfg.key_path:
        cfg.key_path = os.environ.get(KEY_PATH_ENV, "")
    cfg.validate()
    if not os.path.isdir(cfg.input_dir):
        raise ConfigError(f"input_dir does not exist: {cfg.input_dir}")
    if not os.path.isdir(cfg.output_dir):
        raise ConfigError(f"output_dir does not exist: {cfg.output_dir}")
    key = _load_key_file(cfg.key_path)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        pass  # not the main thread; rely on the caller to set the event

    watch_loop(cfg, key, stop, once=args.once)
    return EXIT_OK


# --- entry point ---

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tmsensor",
        description="Anonymizing network sensor: PCAP captures to compressed "
        "traffic matrix files, plus analytics over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genkey", help="generate a new anonymization key file")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="where to write the 40-byte key file (never overwrites)")
    p.set_defaults(func=cmd_genkey)

    p = sub.add_parser("convert", help="convert one PCAP to a traffic matrix file")
    p.add_argument("pcap", help="input capture file")
    p.add_argument("--key", metavar="PATH",
                   help=f"key file (default: ${KEY_PATH_ENV})")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--window-size", type=_window_size_arg,
                   default=DEFAULT_WINDOW_SIZE, metavar="N",
                   help="packets per matrix window, power of two "
                   f"(default {DEFAULT_WINDOW_SIZE})")
    p.add_argument("--prefix", default="tm", help="output name prefix (default tm)")
    p.add_argument("--delete-after-convert", action="store_true",
                   help="remove the PCAP after a successful conversion")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("analyze", help="report statistics from matrix files")
    p.add_argument("files", nargs="+", metavar="TMF",
                   help="one or more traffic matrix files")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report form (default text)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("watch", help="poll a directory and convert new captures")
    p.add_argument("--config", required=True, metavar="PATH",
                   help="flat `key = value` config file")
    p.add_argument("--once", action="store_true",
                   help="one scan pass instead of polling forever")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("synth", help="generate synthetic traffic with ground truth")
    p.add_argument("--out", required=True, metavar="PCAP", help="output capture path")
    p.add_argument("--ground-truth", metavar="PATH",
                   help="pair-count file path (default: <out>.truth)")
    p.add_argument("--hosts", type=int, default=256)
    p.add_argument("--packets", type=int, default=200_000)
    p.add_argument("--zipf-exponent", type=float, default=1.2)
    p.add_argument("--payload-min", type=int, default=64)
    p.add_argument("--payload-max", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-time-us", type=int, default=0)
    p.add_argument("--mean-gap-us", type=float, default=1000.0,
                   help="mean interarrival gap in microseconds")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error or --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SensorError, OSError) as exc:  # the one map from error to exit code
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidSynthSpec):
            return EXIT_USAGE
        if isinstance(exc, (ConfigError, EntropyUnavailable, OSError)):
            return EXIT_ENV
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
