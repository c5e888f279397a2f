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


TOY_PCR_INI = """\
[data]
dataset_size = 60
image_height = 10
image_width = 10

[model]
stem_channels = 4
stage_channels = 4
head_width = 8
prep = crop
crop_side = 8

[train]
epochs = 1
class_batch = 8
reg_batch = 8
lr = 0.003

[pipeline]
variant = pcr
"""

# gen-data and train through the harness's own CLI wrapper, then the
# harness's fallback count over the warnings that wrapper caught
COUNT_FALLBACKS = """\
import sys
sys.path[:0] = ["perfbench", "src"]
import harness
from amcr import cli
ops = harness.Ops()
for command in ("gen-data", "train"):
    ops.cli(cli, [command] + sys.argv[1:])
print(sum("falling back" in w for w in ops.warnings))
"""


def test_perfbench_counts_a_branch_that_fell_back(tmp_path):
    # the toy router sends every train sample to branch 1, so branch 0
    # holds no class batch and falls back: pipeline.branch_fallbacks is 1
    ini = tmp_path / "run.ini"
    ini.write_text(TOY_PCR_INI)
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_FALLBACKS, "--config", str(ini),
         "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "1\n", proc.stdout + proc.stderr
