"""The benchmark's own selftest, run from the repository root against ./src.

bench/selftest.py checks the benchmark's answer checkers, its golden CLI
runs, and that BENCHMARK.json agrees with bench/run.py, so a library change
that would fail the benchmark's own checks fails here first. It writes its
inputs under .bench_out/, which git ignores.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr.rstrip().endswith("OK")
