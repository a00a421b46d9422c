"""Sensor benchmark: one workload, several fresh-process passes, checked outputs.

Usage:
    python3 bench/run.py --workload {spool,hicard,analyze} --seed N \\
        --seconds S --trace {0,1}

Inputs are generated from the seed (numpy and the stdlib only), cached under
``bench/_work/cache`` and never timed. Each pass runs ``worker.py`` in a
fresh process against the checkout's ``src``; passes repeat while a pass
of typical length still ends within ``S`` seconds (at least ``MIN_PASSES``
run). Every pass's outputs are checked against the oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics (medians over the passes).
Times are converted to reference speed (``REF_S`` below); the measured
seconds are printed beside them.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics from the traced ones plus the tracing overhead, and writes every
span to ``bench/_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("spool", "hicard", "analyze")
MIN_PASSES = 3
PASS_TIMEOUT_S = 60
# Stop starting passes after this long, so a run ends within three minutes
# even when the machine is slow.
DEADLINE_S = 140

END_TO_END = [("wall_s", "s"), ("pkts_per_s", "1/s"), ("ratio", "x"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
# Every time a run reports is converted to reference speed: a pass's times are
# multiplied by REF_S / ref_s, where ref_s is the time worker.reference_s took
# in that pass's process (mean of one run before and one after the pass) and
# REF_S what it takes on the reference machine in a quiet period. See README
# "Steadiness".
REF_S = 0.030
PER_LAYER = [
    ("pcap.parse_s", "s"), ("pcap.mb_per_s", "MB/s"), ("pcap.records", "count"),
    ("anon.hmac_calls", "count"), ("anon.hmac_s", "s"),
    ("matrix.build_s", "s"), ("matrix.entries", "count"), ("matrix.windows", "count"),
    ("matrix.merge_calls", "count"), ("matrix.merge_s", "s"),
    ("tmf.write_s", "s"), ("tmf.encode_s", "s"), ("tmf.deflate_s", "s"),
    ("tmf.bytes_out", "bytes"), ("tmf.read_s", "s"), ("tmf.entries_read", "count"),
    ("analytics.analyze_s", "s"), ("cli.report_s", "s"),
    ("cli.convert_s", "s"), ("cli.overhead_s", "s"), ("cli.journal_s", "s"),
    ("cli.captures", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_pct", "%"),
]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tmsensor" / "__init__.py").is_file():
        print(f"error: no tmsensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()

    import workloads  # numpy is imported only after the sources are found

    wl = workloads.prepare(args.workload, args.seed, WORK / "cache")
    run_dir = WORK / f"run-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)

    passes, failed, durations = [], 0, []
    begin = time.monotonic()
    while True:
        # A pass starts only if a typical pass still ends within --seconds.
        expected_end = time.monotonic() - begin + statistics.median(durations or [0])
        if len(durations) >= MIN_PASSES and expected_end > args.seconds:
            break
        if time.monotonic() - started > DEADLINE_S:
            break
        index = len(durations)
        traced = bool(args.trace) and index % 2 == 1
        t0 = time.monotonic()
        result = run_pass(wl, run_dir / f"pass-{index}", traced)
        durations.append(time.monotonic() - t0)
        if result is None:
            failed += 1
        else:
            passes.append(result)

    correct = bool(passes)
    try:
        if passes:
            wl.check([r["pass_dir"] for r in passes])
    except workloads.CheckFailed as exc:
        correct = False
        print(f"[{args.workload}] CHECK FAILED: {exc}", file=sys.stderr)

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    for r in passes:
        r["scale"] = REF_S / statistics.mean(r["ref_s"])
    if args.trace:
        metrics = per_layer(wl, untraced, traced, args.seed)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(wl, untraced)
        units = dict(END_TO_END)
        for name in ("wall_s", "setup_s"):
            show(args.workload, f"measured.{name}", [r[name] for r in untraced], "s")
        show(args.workload, "measured.ref_s",
             [statistics.mean(r["ref_s"]) for r in untraced], "s")
    for name, values in metrics.items():
        show(args.workload, name, values, units[name])
    print(f"{args.workload}/operations attempted={len(passes) + failed} failed={failed} "
          f"correct={str(correct).lower()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes) + failed,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values) if values else 0.0,
                           "unit": units[name]}
                    for name, values in metrics.items()},
    }))
    return 0


def run_pass(wl, pass_dir: Path, traced: bool):
    """Run one pass in a fresh process; returns its figures, or None if it failed."""
    spec = wl.pass_spec(pass_dir)
    spec.update(pass_dir=str(pass_dir), trace=traced, result=str(pass_dir / "result.json"),
                workload=wl.name)
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)], env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=PASS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"[{wl.name}] pass {pass_dir.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"[{wl.name}] pass {pass_dir.name} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads((pass_dir / "result.json").read_text())
    result.update(pass_dir=str(pass_dir), traced=traced)
    return result


def end_to_end(wl, passes) -> dict[str, list[float]]:
    return {
        "wall_s": [r["wall_s"] * r["scale"] for r in passes],
        "pkts_per_s": [wl.packets / (r["wall_s"] * r["scale"]) for r in passes],
        "ratio": [wl.capture_bytes / wl.tmf_bytes] if passes and wl.tmf_bytes else [],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
        "setup_s": [r["setup_s"] * r["scale"] for r in passes],
    }


def per_layer(wl, untraced, traced, seed) -> dict[str, list[float]]:
    """Per-layer figures of each traced pass; counts must repeat exactly."""
    rows = [layer_figures(r, r["scale"]) for r in traced]
    counts = {name for name, unit in PER_LAYER if unit in ("count", "bytes")}
    for row in rows[1:]:
        for name in counts:
            if row[name] != rows[0][name]:
                print(f"[{wl.name}] warning: {name} differs between traced passes "
                      f"({row[name]} vs {rows[0][name]})", file=sys.stderr)
    metrics = {name: [row[name] for row in rows] for name, _ in PER_LAYER
               if not name.startswith("trace.")}
    metrics["trace.wall_s"] = [r["wall_s"] * r["scale"] for r in traced]
    if traced and untraced:
        base = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
        with_trace = statistics.median(metrics["trace.wall_s"])
        metrics["trace.overhead_pct"] = [100 * (with_trace / base - 1)]
    else:
        metrics["trace.overhead_pct"] = []
    path = WORK / f"trace-{wl.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed,
        "untraced": [{"wall_s": r["wall_s"], "ref_s": r["ref_s"]} for r in untraced],
        "passes": [{"wall_s": r["wall_s"], "ref_s": r["ref_s"], "encode_s": r["encode_s"],
                    "counts": r["counts"],
                    "layers": row, "spans": r["spans"]} for r, row in zip(traced, rows)],
    }, indent=1))
    print(f"{wl.name}/trace written to {path.relative_to(ROOT)}")
    return metrics


def layer_figures(r, scale: float) -> dict[str, float]:
    """Self time per layer from one traced pass's spans, plus its counts.

    Times are multiplied by ``scale`` to convert them to reference speed.
    """
    spans = r["spans"]
    child_busy: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] = child_busy.get(s["parent"], 0.0) + s["busy"] * scale
    self_s: dict[str, float] = {}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        self_s[name] = (self_s.get(name, 0.0) + s["busy"] * scale
                        - child_busy.get(s["id"], 0.0))
        busy[name] = busy.get(name, 0.0) + s["busy"] * scale
        calls[name] = calls.get(name, 0) + s["calls"]
    c = r["counts"]
    parse_s = self_s.get("pcap.parse", 0.0)
    write_s = self_s.get("tmf.write", 0.0)
    encode_s = r["encode_s"] * scale
    return {
        "pcap.parse_s": parse_s,
        "pcap.mb_per_s": c.get("pcap.bytes", 0) / 1e6 / parse_s if parse_s else 0.0,
        "pcap.records": c.get("pcap.records", 0),
        "anon.hmac_calls": calls.get("anon.hmac", 0),
        "anon.hmac_s": self_s.get("anon.hmac", 0.0),
        "matrix.build_s": self_s.get("matrix.build", 0.0),
        "matrix.entries": c.get("matrix.entries", 0),
        "matrix.windows": c.get("matrix.windows", 0),
        "matrix.merge_calls": calls.get("matrix.merge", 0),
        "matrix.merge_s": self_s.get("matrix.merge", 0.0),
        "tmf.write_s": write_s,
        "tmf.encode_s": encode_s,
        "tmf.deflate_s": write_s - encode_s,
        "tmf.bytes_out": c.get("tmf.bytes_out", 0),
        "tmf.read_s": self_s.get("tmf.read", 0.0),
        "tmf.entries_read": c.get("tmf.entries_read", 0),
        "analytics.analyze_s": (self_s.get("analytics.analyze_many", 0.0)
                                + self_s.get("analytics.analyze", 0.0)),
        "cli.report_s": self_s.get("cli.main", 0.0),
        "cli.convert_s": busy.get("cli.convert", 0.0),
        "cli.overhead_s": self_s.get("cli.convert", 0.0),
        "cli.journal_s": busy.get("cli.journal", 0.0),
        "cli.captures": calls.get("cli.convert", 0),
    }


def show(workload: str, name: str, values: list[float], unit: str) -> None:
    if not values:
        print(f"{workload}/{name} = n/a {unit}")
        return
    line = f"{workload}/{name} = {statistics.median(values):.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  (median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})"
    print(line)


if __name__ == "__main__":
    sys.exit(main())
