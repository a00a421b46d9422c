"""Smoke test of the benchmark harness in bench/.

Runs the harness's self-test, then one short traced pass of the `analyze`
and of the `hicard` workload. Every pass is checked against the benchmark's
independent oracle, so this also pins the `analyze --format json` report and
the writer's canonical varints to it, and a traced pass fails if a function
the tracer wraps has moved.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )


def test_bench_selftest_passes():
    done = run_bench_script("bench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["analyze", "hicard"])
def test_bench_analyze_pass_is_correct_under_tracing(workload):
    done = run_bench_script(
        "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", "1",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
