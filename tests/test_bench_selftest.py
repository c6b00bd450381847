"""The benchmark's own checks, run as part of the test suite.

``bench/selftest.py`` feeds each numpy-only check of the benchmark a right
and a deliberately wrong program output, and checks that the metric names
match ``BENCHMARK.json``.  A library change that breaks a check, or renames
something the benchmark's tracer or workloads use, fails here.

One case of the selftest feeds the program's own resonance verdict as the
wrong answer: it was written while ``classify_freq`` sampled a grid that
missed the resonance.  The program now rejects the plant, so that case
reports the right answer as accepted.  ``bench/`` changes only together
with the benchmark, so until then the case is checked here with its
outcome reversed, and every other case must behave.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: selftest cases that assumed a program fault the program no longer has,
#: with the outcome the program's right answer now gets
PROGRAM_MENDED = {"resonance, program's holds=True": "accepted"}

CASE = re.compile(r"^\[selftest\] (PASS|FAIL)  (.+?): (accepted|rejected)")


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    cases = [CASE.match(line).groups() for line in proc.stdout.splitlines()
             if CASE.match(line)]
    assert len(cases) == 37, proc.stdout + proc.stderr
    for status, name, outcome in cases:
        if name in PROGRAM_MENDED:
            assert (status, outcome) == ("FAIL", PROGRAM_MENDED[name]), \
                proc.stdout
        else:
            assert status == "PASS", proc.stdout
    assert f"{37 - len(PROGRAM_MENDED)}/37 cases behave" in proc.stdout, \
        proc.stdout
    assert proc.returncode == (1 if PROGRAM_MENDED else 0), \
        proc.stdout + proc.stderr
