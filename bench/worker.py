"""One pass of one workload, in a fresh process.

Usage: python3 worker.py SPEC.json

The spec (written by run.py) names the workload, its inputs and a fresh
output directory. The worker imports ``tmsensor`` from the checkout's
``src`` (run.py sets PYTHONPATH), times the program's set-up and then the
pass, and writes its figures to the spec's ``result`` path as JSON. It
generates no input and imports nothing but the stdlib before timing the
set-up, so neither input synthesis nor numpy's import by the benchmark
lands in a metric.

Just before and just after the pass the worker also times
``reference_s``, a fixed loop of benchmark code. The machines this runs
on change speed by a quarter or more from one process to the next; a pass
and the loop in the same process slow down alike, so their ratio stays
steady where ``wall_s`` does not, and run.py reports times converted to
reference speed with it.
"""

import contextlib
import json
import os
import sys
import threading
from time import perf_counter


def reference_s() -> float:
    """Seconds for a fixed loop of the kinds of work a pass does.

    Record-header unpacking, byte slicing, dict counting, SHA-256 and
    deflate. It never changes with the program. Its modules are imported
    here, after the set-up is timed.
    """
    import hashlib
    import struct
    import zlib

    data = bytes(range(256)) * 256  # 64 KiB
    unpack = struct.Struct("<IIII").unpack_from
    t0 = perf_counter()
    counts = {}
    for i in range(60_000):
        off = (i * 16) & 0xFFF0
        _, length, _, _ = unpack(data, off)
        cell = (data[off:off + 4], length & 0xFF)
        counts[cell] = counts.get(cell, 0) + 1
    hashlib.sha256(data * 8).digest()
    zlib.compress(data, 9)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    ``ru_maxrss`` is not used: Linux keeps it across ``execve``, so a
    worker would report at least the peak of the run.py process that
    spawned it, input generation included. ``VmHWM`` starts afresh at exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    workload = spec["workload"]

    t0 = perf_counter()
    import tmsensor.cli as cli
    from tmsensor import load_key

    if workload == "spool":
        cfg = cli.parse_config(spec["config"])
        cfg.validate()
        with open(cfg.key_path, "rb") as f:
            key = load_key(f)
        cli.load_journal(os.path.join(cfg.output_dir, cli.JOURNAL_NAME))
    elif workload == "hicard":
        with open(spec["key"], "rb") as f:
            key = load_key(f)
    setup_s = perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ref_before = reference_s()
    with open(os.path.join(spec["pass_dir"], "log.txt"), "w") as log:
        t1 = perf_counter()
        if workload == "spool":
            cli.watch_loop(cfg, key, threading.Event(), once=True, log=log)
        elif workload == "hicard":
            cli.convert_file(key, spec["window"], spec["pcap"], spec["out_dir"], log=log)
        else:
            with open(spec["report"], "w") as out, contextlib.redirect_stdout(out):
                code = cli.main(["analyze", "--format", "json", *spec["tmf"]])
            if code != 0:
                raise SystemExit(f"tmsensor analyze exited {code}")
        wall_s = perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "ref_s": [ref_before, reference_s()],
    }
    if tracer is not None:
        result["encode_s"] = tracing.encode_only(tracer)
        result["spans"] = tracer.records()
        result["counts"] = tracer.counts
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
