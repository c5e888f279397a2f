"""The benchmark's toy-size self-test, run as a tier-1 check: it patches
the package's public functions from outside `src/`, so a change to their
names or to the shapes its hooks read shows up here instead of in a
failed benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines and lines[-1] == "selftest ok", proc.stdout + proc.stderr
