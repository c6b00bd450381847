"""The benchmark's own checks, run as part of the test suite.

``bench/selftest.py`` feeds each numpy-only check of the benchmark a right
and a deliberately wrong program output, and checks that the metric names
match ``BENCHMARK.json``.  A library change that breaks a check, or renames
something the benchmark's tracer or workloads use, fails here.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "37/37 cases behave" in proc.stdout, proc.stdout
