"""Fast self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

For a shrunken copy of every workload (same CLI flags, a tiny config) it
runs the harness untraced and traced, and checks that:
  - the run is correct and emits exactly the metrics BENCHMARK.json names;
  - every traced span nests inside its parent and under a `cli.*` request,
    and the layer spans sit under the CLI phase that causes them.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from run import ROOT, SRC, pin_environment

TOY_INI = """\
[data]
dataset_size = 60
image_height = 16
image_width = 16
corrupt_fraction = 0.2

[model]
stem_channels = 4
stage_channels = 4
head_width = 8
crop_side = 16

[train]
epochs = 1
batch_scale = 0.125
lr = 0.003

[meta]
meta_quota = 2
"""

# span name -> the CLI phases allowed to cause it
EXPECTED_PHASE = {
    "data.generate_dataset": {"cli.gen_data"},
    "training.train_model": {"cli.train"},
    "checkpoint.save": {"cli.train"},
    "checkpoint.load": {"cli.evaluate", "cli.predict"},
    "meta.iteration": {"cli.train"},
    "tensor.per_sample_gradients": {"cli.train"},
    "pipeline.fuse_score": {"cli.evaluate", "cli.predict"},
}


def check_metrics(label: str, result: dict, expected: dict) -> list:
    problems = [] if result["correct"] else [f"{label}: run not correct"]
    for name in sorted(set(result["metrics"]) ^ set(expected)):
        where = "not emitted" if name in expected else "not in BENCHMARK.json"
        problems.append(f"{label}: metric {name} {where}")
    return problems


def check_phases(label: str, tracer) -> list:
    problems = [f"{label}: {e}" for e in tracer.nesting_errors()[:10]]
    seen = set()
    for _sid, _parent, req, name, _start, _end in tracer.spans:
        phase = tracer.spans[req][3]
        allowed = EXPECTED_PHASE.get(name)
        if allowed is not None:
            seen.add(name)
            if phase not in allowed:
                problems.append(f"{label}: {name} ran under {phase}")
    return problems, seen


def main() -> int:
    pin_environment()
    import harness
    e2e = harness.metric_units(ROOT, "end_to_end")
    layers = harness.metric_units(ROOT, "per_layer")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    problems = []
    if not names <= set(harness.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} not all "
                        f"in the harness {sorted(harness.WORKLOADS)}")
    seen = set()
    for name, workload in harness.WORKLOADS.items():
        toy = dataclasses.replace(workload, name="toy-" + name, ini=TOY_INI,
                                  setup_reps=4, min_predicts=5)
        result, report, _ = harness.run(toy, 3, 0.0, False, ROOT, SRC)
        problems += check_metrics(toy.name, result, e2e)
        problems += [f"{toy.name}: {f}" for f in report["failures"]]
        result, report, tracer = harness.run(toy, 3, 0.0, True, ROOT, SRC)
        problems += check_metrics(toy.name + " traced", result, layers)
        problems += [f"{toy.name} traced: {f}" for f in report["failures"]]
        found, names_seen = check_phases(toy.name, tracer)
        problems += found
        seen |= names_seen
    missing = set(EXPECTED_PHASE) - seen
    if missing:
        problems.append(f"spans never recorded: {sorted(missing)}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
