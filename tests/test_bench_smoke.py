"""Smoke test of the benchmark harness in bench/.

Runs the harness's self-test, then one short traced pass of the `analyze`,
the `hicard` and the `spool` workload. Every pass is checked against the
benchmark's independent oracle, so this also pins the `analyze --format json`
report, the writer's canonical varints and the `watch` journal to it, and a
traced pass fails if a function the tracer wraps has moved.

The passes run from a private copy of the harness under `.pytest_cache`,
beside a link to `src/`: the harness keeps one seed's inputs per workload
and deletes the others, so running it from `bench/` itself would drop the
inputs cached there by benchmark runs of other seeds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def harness() -> Path:
    """The root of a private copy of bench/*.py with a link to src/."""
    copy = ROOT / ".pytest_cache" / "bench-smoke"
    (copy / "bench").mkdir(parents=True, exist_ok=True)
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copyfile(script, copy / "bench" / script.name)
    src = copy / "src"
    if not src.is_symlink():
        src.symlink_to(ROOT / "src", target_is_directory=True)
    return copy


def run_bench_script(root, *args):
    return subprocess.run(
        [sys.executable, *args], cwd=root, capture_output=True, text=True,
        timeout=300,
    )


def test_bench_selftest_passes(harness):
    done = run_bench_script(harness, "bench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["analyze", "hicard", "spool"])
def test_bench_analyze_pass_is_correct_under_tracing(harness, workload):
    done = run_bench_script(
        harness, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", "1",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
