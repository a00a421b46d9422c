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
import collections
import fcntl
import filecmp
import hashlib
import itertools
import os
import queue
import re
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, fields

from .analytics import analyze_many, format_report_json, format_report_text
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


_PREFIX_RULE = (
    "prefix must be non-empty, must not start with '.' and must not hold "
    "a path separator"
)


def _valid_prefix(prefix: str) -> bool:
    """Whether outputs named ``<prefix>-...`` stay inside the output
    directory, apart from the hidden ``.part-`` temp names."""
    separators = {"/", os.sep, os.altsep, "\0"} - {None}
    return bool(prefix) and prefix[0] != "." and not separators & set(prefix)


def _prefix_arg(text: str) -> str:
    if not _valid_prefix(text):
        raise argparse.ArgumentTypeError(_PREFIX_RULE)
    return text


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
        if self.poll_interval_secs > threading.TIMEOUT_MAX:  # the longest wait allowed
            raise ConfigError(
                f"poll_interval_secs must be <= {int(threading.TIMEOUT_MAX)}")
        if not _valid_prefix(self.prefix):
            raise ConfigError(_PREFIX_RULE)


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

# The most chunks that wait for the digest thread; the reader blocks beyond.
_DIGEST_DEPTH = 2


class _HashingReader:
    """Pass-through reader that counts every byte it hands out and digests
    a copy of it on a thread of its own: hashlib releases the interpreter
    lock while it hashes, so the digest runs beside the parse. At most
    ``_DIGEST_DEPTH`` plus two chunks are held at once. If ``update``
    raises, the thread keeps the exception and drains the queue, so no
    hand-off blocks. Leaving the ``with`` block ends the thread and raises
    what ``update`` raised; only then is the digest complete.
    """

    def __init__(self, raw, digest):
        self._raw = raw
        self.bytes_read = 0
        self._chunks = queue.Queue(_DIGEST_DEPTH)
        self._error = None
        # A daemon: an interrupt that cuts the hand-off of the sentinel must
        # not leave the process waiting on the thread at exit.
        self._thread = threading.Thread(target=self._digest_all, args=(digest,),
                                        daemon=True)
        self._thread.start()

    def _digest_all(self, digest):
        while (chunk := self._chunks.get()) is not None:
            if self._error is None:
                try:
                    digest.update(chunk)
                except BaseException as exc:  # raised again by __exit__
                    self._error = exc

    def read(self, n):
        data = self._raw.read(n)
        self._chunks.put(data)
        self.bytes_read += len(data)
        return data

    def readinto(self, b):
        n = self._raw.readinto(b)
        self._chunks.put(bytes(b[:n]))  # the parser reuses b
        self.bytes_read += n
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._chunks.put(None)
        self._thread.join()
        if self._error is not None:
            raise self._error


def convert_file(
    key: AnonKey,
    window_size: int,
    pcap_path: str,
    out_dir: str,
    prefix: str = "tm",
    *,
    log=None,
) -> dict:
    """Convert one capture into one matrix file; returns a summary dict.

    Truncated captures convert normally (with a warning on `log`); an empty
    capture produces no output file. Windows stream from the parser into
    ``_publish``, which links them to the first <prefix>-<hour>-<seq>.tmf
    name that is free or already holds the same bytes, so a capture
    converted again after a crash gets no second output. The directory is
    fsynced last, so the output is durable before the caller journals or
    deletes the capture. A ``prefix`` that could name a file outside
    ``out_dir`` raises ValueError before the capture is opened.
    """
    if not _valid_prefix(prefix):
        raise ValueError(_PREFIX_RULE)
    if log is None:
        log = sys.stderr  # resolved per call so stream redirection works
    digest = hashlib.sha256()
    out_path = None
    tmf_bytes = 0
    with open(pcap_path, "rb") as f, _HashingReader(f, digest) as reader:
        batches, stats = parse_pcap(reader)
        windows = build_windows(batches, key, window_size)
        first = next(windows, None)
        if first is not None:
            hour = first.start_time_us // _US_PER_HOUR
            out_path, tmf_bytes = _publish(
                out_dir, lambda out: write_tmf(itertools.chain([first], windows), out),
                (os.path.join(out_dir, tmf_filename(prefix, hour, seq))
                 for seq in itertools.count()))
            _fsync_dir(out_dir)

    if stats.truncated_tail:
        print(
            f"warning: {pcap_path}: capture truncated mid-record; "
            f"converted the complete records",
            file=log,
        )

    return {
        "pcap_path": pcap_path,
        "pcap_bytes": reader.bytes_read,  # the bytes digested and parsed
        "stats": stats,
        "window_count": -(-stats.valid_ip_packets // window_size),
        "tmf_path": out_path,
        "tmf_bytes": tmf_bytes,
        "digest": digest.hexdigest(),
    }


def _publish(directory: str, write, names, mode: int = 0o666) -> tuple[str, object]:
    """Write a new file through ``write(f)`` under a ``.part-`` temp name in
    ``directory``, fsync it, and hard-link it to the first of ``names`` that
    is free or already holds the same bytes; returns that name and what
    ``write`` returned. The link fails rather than replace a file, so no name
    is ever overwritten or holds a partial file. The temp is always unlinked,
    but a crash may leave it. Every name holding other bytes raises
    FileExistsError. The caller fsyncs ``directory`` to make the link durable.
    """
    tmp_path, tmp_fd = _new_temp(directory, mode)
    try:
        with os.fdopen(tmp_fd, "wb") as f:
            written = write(f)
            f.flush()
            os.fsync(f.fileno())
        for name in names:
            try:
                os.link(tmp_path, name)
                return name, written
            except FileExistsError:
                if os.path.isfile(name) and filecmp.cmp(tmp_path, name, shallow=False):
                    return name, written  # already published, e.g. before a crash
        raise FileExistsError(f"{name} already exists; refusing to overwrite")
    finally:
        os.unlink(tmp_path)


def _new_temp(directory: str, mode: int = 0o666) -> tuple[str, int]:
    """Create a new file under a random ``.part-`` name in ``directory``;
    returns its path and a descriptor open for writing. A new file, so the
    kernel applies the umask to ``mode``."""
    while True:
        path = os.path.join(directory, f".part-{os.urandom(8).hex()}")
        try:
            return path, os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        except FileExistsError:
            pass  # taken: draw another name


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
    directory = os.path.dirname(args.out) or os.curdir
    _publish(directory, lambda f: save_key(key, f), [args.out], 0o600)
    try:
        _fsync_dir(directory)  # durable before key_id is shown
        print(f"key_file={args.out}")
        print(f"key_id={key.key_id.hex()}")
    except BaseException:
        os.unlink(args.out)  # a key whose key_id was never shown must not block a retry
        raise
    return EXIT_OK


def cmd_convert(args) -> int:
    key_path = args.key or os.environ.get(KEY_PATH_ENV)
    if not key_path:
        print(f"error: no key file given (use --key or ${KEY_PATH_ENV})",
              file=sys.stderr)
        return EXIT_USAGE
    key = _load_key_file(key_path)
    summary = convert_file(key, args.window_size, args.pcap, args.out_dir, args.prefix)
    if args.delete_after_convert:
        os.unlink(args.pcap)  # its output is durable: convert_file fsynced it
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
    origins = collections.deque()  # (path, block) of each block read, not yet reported

    def blocks():
        for path in args.files:
            try:
                with open(path, "rb") as f:
                    for index, m in enumerate(iter_tmf(f)):
                        origins.append((path, index))
                        yield m
            except (SensorError, OSError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc  # main picks the exit code

    # window(n, ...) renders the n-th window's report after ``start``, and
    # ending(n, merged) what follows n windows; every file holds a block.
    if args.format == "json":
        from json.encoder import encode_basestring_ascii as quote

        start = '{\n  "windows": ['

        def window(n, path, block, report):
            return ((",\n    " if n else "\n    ")
                    + '{\n      "file": ' + quote(path) + ',\n      "block": ' + str(block)
                    + ',\n      "report": ' + format_report_json(report, 3) + "\n    }")

        def ending(n, merged):
            return '\n  ],\n  "merged": ' + format_report_json(merged, 1) + "\n}\n"
    else:
        start = ""

        def window(n, path, block, report):
            return (f"report=window\nfile={path}\nblock={block}\n"
                    f"{format_report_text(report)}\n\n")

        def ending(n, merged):
            return f"report=merged\nwindows={n}\n{format_report_text(merged)}\n"

    # Each report is written as it is made, to an unnamed temporary file that
    # is copied to stdout only once every file has been read, so a fault in a
    # later file leaves stdout empty. The text goes back out as it came in:
    # surrogatepass carries any str, undecodable file names too.
    with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass",
                                newline="") as out:
        out.write(start)
        windows = 0

        def emit(report):
            nonlocal windows
            out.write(window(windows, *origins.popleft(), report))
            windows += 1

        merged = analyze_many(blocks(), emit)
        out.write(ending(windows, merged))
        out.seek(0)
        shutil.copyfileobj(out, sys.stdout)
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
    # Written under a temporary name, so a refused spec leaves an existing
    # --out as it was.
    tmp_path, tmp_fd = _new_temp(os.path.dirname(args.out))
    try:
        with os.fdopen(tmp_fd, "wb") as f:
            truth = synthesize(spec, f)
        os.replace(tmp_path, args.out)
    except BaseException:
        os.unlink(tmp_path)
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

_JOURNAL_LINE = re.compile(r"[0-9a-fA-F]{64} (.+)")


def load_journal(path: str) -> set[str]:
    """Names of the processed captures; each line's digest is checked, not kept.

    Each line is a 64-hex-digit digest, one space, and the rest of the line
    as the name, so names keep leading and trailing spaces. Names that are
    not valid UTF-8 round-trip through surrogate escapes, as os.listdir
    returns them. Bytes after the last line break are an append torn by a
    crash, not an entry, and are skipped.
    """
    names: set[str] = set()
    try:
        f = open(path, encoding="utf-8", errors="surrogateescape", newline="\n")
    except FileNotFoundError:
        return names
    with f:
        for lineno, line in enumerate(f, 1):
            if not line.endswith("\n"):
                break  # torn: its capture is converted again into its output
            line = line[:-1]
            if not line.strip():
                continue
            match = _JOURNAL_LINE.fullmatch(line)
            if match is None:
                raise JournalError(f"{path}:{lineno}: unparseable journal line")
            names.add(match[1])
    return names


def append_journal(path: str, digest: str, name: str) -> None:
    """Append one entry under an exclusive lock. A torn last line, left by an
    append that failed or crashed part-way, is cut back to the last line
    break first, so the entry starts a line of its own."""
    with open(path, "a+b") as f:
        fcntl.flock(f, fcntl.LOCK_EX)  # another daemon's append may be half-written
        end = f.seek(0, os.SEEK_END)
        if end and os.pread(f.fileno(), 1, end - 1) != b"\n":
            f.seek(0)
            f.truncate(f.read().rfind(b"\n") + 1)
        f.write(f"{digest} {name}\n".encode("utf-8", "surrogateescape"))
        f.flush()
        os.fsync(f.fileno())
    _fsync_dir(os.path.dirname(path) or os.curdir)  # every call: a crash may have skipped it


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
    break cannot be journaled, so it counts as a failure. With
    ``delete_after_convert``, a capture is deleted only once its journal line
    is durable. Once ``stop_event`` is set, the loop returns before the next
    capture.
    """
    if log is None:
        log = sys.stderr
    journal_file = os.path.join(cfg.output_dir, JOURNAL_NAME)
    journal = load_journal(journal_file)
    failed: set[tuple[str, int]] = set()

    while True:
        for name, path, mtime_ns in _scan_candidates(cfg, journal, failed):
            if stop_event.is_set():
                return
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
            journal.add(name)
            print(
                f"[watch] converted {name} -> "
                f"{summary['tmf_path'] or '(empty capture, no output)'}",
                file=log,
            )
            if cfg.delete_after_convert:
                try:  # only now: its journal line is durable
                    os.unlink(path)
                except OSError as exc:  # journaled, so it is never converted again
                    print(f"[watch] {name}: delete failed: {exc}", file=log)
        if once or stop_event.wait(cfg.poll_interval_secs):
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

    replaced = {}  # signal -> the caller's handler, restored on the way out
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            replaced[signum] = signal.signal(signum, _request_stop)
    except ValueError:
        pass  # not the main thread; rely on the caller to set the event

    try:
        watch_loop(cfg, key, stop, once=args.once)
    finally:
        for signum, handler in replaced.items():
            signal.signal(signum, handler or signal.SIG_DFL)  # None: set outside Python
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
    p.add_argument("--prefix", type=_prefix_arg, default="tm",
                   help="output name prefix (default tm)")
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
    # File names go to stdout as the file system's bytes, as in the journal, so
    # one that is not UTF-8 prints; a stream with no reconfigure takes any str.
    reconfigure = getattr(sys.stdout, "reconfigure", lambda errors: None)
    errors = getattr(sys.stdout, "errors", None)
    reconfigure(errors="surrogateescape")
    try:
        return args.func(args)
    except (SensorError, OSError) as exc:  # the one map from error to exit code
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidSynthSpec):
            return EXIT_USAGE
        if isinstance(exc, (ConfigError, EntropyUnavailable, OSError)):
            return EXIT_ENV
        return EXIT_DATA
    finally:
        reconfigure(errors=errors)


if __name__ == "__main__":
    sys.exit(main())
