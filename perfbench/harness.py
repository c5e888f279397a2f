"""Runs one amcr experiment workload through `amcr.cli.main`, in process,
and measures it end to end (untraced) or layer by layer (traced).

A run is: set-up (a fresh import of `amcr` plus `gen-data`, repeated back
to back), then `train` and `evaluate` twice on the same data, then
per-image `predict` calls until the run's time is used. Train and predict
times are wall seconds scaled by the host's speed as sampled meanwhile
(see `speed.py`); the report keeps the unscaled wall and CPU seconds and
the work each phase did. Every CLI call and every output check is one
operation; a nonzero exit code, an exception or a failed check fails it.

The caller must pin the environment (see `run.py`) before this module is
imported, because numpy reads its thread settings when it loads.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np

from speed import SpeedSampler
from tracing import Tracer, instrument, layer_metrics

# trains per untraced run; the rerun checks byte-identical results
TRAIN_REPS = 2

AMCR_MODULES = ("cli", "tensor", "kernels", "blocks", "meta", "optim",
                "training", "pipeline", "data", "pnm", "config")

QUICKSTART_INI = """\
[data]
dataset_size = 400
image_height = 24
image_width = 24
corrupt_fraction = 0.2

[model]
stem_channels = 8
stage_channels = 8, 16
head_width = 32
prep = crop
crop_side = 24

[train]
epochs = 4
lr = 0.003

[pipeline]
variant = pcr
"""

DEFAULT_R_INI = """\
[data]
dataset_size = 320

[train]
epochs = 1

[pipeline]
variant = r
"""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ini: str                # config file contents
    flags: tuple            # CLI flags added to train/evaluate/predict
    setup_reps: int = 20    # gen-data repetitions; setup_s is their median
    min_predicts: int = 200


# BENCHMARK.json lists quickstart-pcr and default-r-mrn. quickstart-pcr-mrn
# runs on demand only: its two trains take 40-60 s on a 2-core host, more
# than the benchmark's time budget per run.
WORKLOADS = {w.name: w for w in (
    Workload("quickstart-pcr", QUICKSTART_INI,
             ("--variant", "pcr", "--mrn", "off")),
    Workload("quickstart-pcr-mrn", QUICKSTART_INI,
             ("--variant", "pcr", "--mrn", "on")),
    Workload("default-r-mrn", DEFAULT_R_INI,
             ("--variant", "r", "--mrn", "on")),
)}

def metric_units(root: str, kind: str) -> dict:
    """Metric name -> unit for `kind` ("end_to_end" or "per_layer"), as
    BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Clock:
    """Wall and process CPU seconds from construction to `stop()`."""

    def __init__(self):
        self.start = time.perf_counter()
        self._cpu = time.process_time()

    def stop(self) -> "Clock":
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        self.cpu = time.process_time() - self._cpu
        return self


class Abort(Exception):
    """A failed CLI call leaves nothing for the next step to work on."""


class Ops:
    """Counts operations and keeps a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.warnings = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}".rstrip(": "))
        return ok

    def cli(self, cli, argv, tracer=None):
        """Call `cli.main(argv)`; return (stdout, Clock). Warnings are
        captured, not printed. Raises Abort when the call fails."""
        out = io.StringIO()
        name = "cli." + argv[0].replace("-", "_")
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            warnings.simplefilter("always")
            span = tracer.open(name) if tracer else None
            clock = Clock()
            try:
                code = cli.main(argv)
            except Exception:
                # a crash is a failed operation, not a crash of the harness
                code = None
                out.write(traceback.format_exc())
            clock.stop()
            if span:
                tracer.close(span)
        self.warnings.extend(str(w.message) for w in caught)
        if not self.check(argv[0], code == 0,
                          f"exit {code}: {out.getvalue().strip()[-400:]}"):
            raise Abort(argv[0])
        return out.getvalue(), clock


# ---------------------------------------------------------------------------
# environment record


def _git_revision(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(src: str) -> str:
    """SHA-256 over the package's source files, in name order."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "amcr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str, modules: dict, ini_path: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = modules["config"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "amcr_backend": os.environ.get("AMCR_BACKEND"),
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(src),
        "config_hash": config.config_hash(config.load_config(ini_path)).hex(),
    }


# ---------------------------------------------------------------------------
# reading and checking outputs


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _in_score_range(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 10.0


def check_evaluation(ops: Ops, out_dir: str, test_ids: list) -> dict:
    """Check metrics.csv and scatter.csv; return the test predictions by id
    and the quality numbers."""
    metrics = _read_csv(os.path.join(out_dir, "metrics.csv"))
    scatter = _read_csv(os.path.join(out_dir, "scatter.csv"))
    row = metrics[0] if len(metrics) == 1 else {}
    ops.check("metrics.csv n equals the test split size",
              row.get("n") == str(len(test_ids)),
              f"n={row.get('n')} vs {len(test_ids)}")
    preds = [float(r["prediction"]) for r in scatter]
    truth = [float(r["truth"]) for r in scatter]
    bad = [p for p in preds if not _in_score_range(p)]
    ops.check("scatter.csv predictions finite and in [0, 10]",
              len(preds) == len(test_ids) and not bad,
              f"{len(preds)} rows, out of range: {bad[:5]}")
    return {
        "predictions": dict(zip(test_ids, preds)),
        "srocc": float(row.get("srocc", "nan")),
        "mse": float(row.get("mse", "nan")),
        "spread_ratio": float(np.std(preds) / np.std(truth)),
        # MSE over the truth's variance: the share of test variance the
        # model leaves unexplained (1.0 for a constant at the truth mean)
        "nmse": float(row.get("mse", "nan")) / float(np.var(truth)),
    }


def router_counts(out_dir: str) -> dict:
    path = os.path.join(out_dir, "split.csv")
    if not os.path.exists(path):
        return {}
    counts = {}
    for r in _read_csv(path):
        key = "branch" + r["pseudo_label"]
        counts[key] = counts.get(key, 0) + 1
    return counts


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# the run


def fresh_import() -> dict:
    """Drop every loaded amcr module and import the package again."""
    for name in [n for n in sys.modules
                 if n == "amcr" or n.startswith("amcr.")]:
        del sys.modules[name]
    importlib.import_module("amcr")
    return {m: importlib.import_module("amcr." + m) for m in AMCR_MODULES}


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _summary(values) -> dict:
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


class Experiment:
    """One workload and seed inside one scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: str, ops: Ops):
        self.w = workload
        self.seed = seed
        self.work = work
        self.ops = ops
        self.ini = os.path.join(work, "run.ini")
        with open(self.ini, "w", encoding="utf-8") as fh:
            fh.write(workload.ini)
        self.modules = None
        self.setup_clocks = []
        self.predict_clocks = []
        self.manifests = set()
        self._dirs = 0

    def new_out(self) -> str:
        self._dirs += 1
        return os.path.join(self.work, f"out{self._dirs}")

    def argv(self, command: str, out: str, *extra) -> list:
        flags = self.w.flags if command != "gen-data" else ()
        return [command, "--config", self.ini, "--out", out,
                "--seed", str(self.seed), *flags, *extra]

    def setup(self, reps: int) -> list:
        """Import amcr afresh and generate the data, `reps` times; return
        the output directories."""
        outs = []
        for _ in range(reps):
            out = self.new_out()
            clock = Clock()
            self.modules = fresh_import()
            self.ops.cli(self.modules["cli"], self.argv("gen-data", out))
            self.setup_clocks.append(clock.stop())
            self.manifests.add(_sha256_file(
                os.path.join(out, "data", "manifest.csv")))
            outs.append(out)
        return outs

    def split_ids(self, out: str):
        rows = _read_csv(os.path.join(out, "data", "manifest.csv"))
        test_ids = [r["id"] for r in rows if r["split"] == "test"]
        images = {r["id"]: os.path.join(out, "data", r["path"]) for r in rows}
        order = sorted(images)
        random.Random(self.seed).shuffle(order)
        return test_ids, images, order

    def train_and_evaluate(self, out: str, tracer=None) -> tuple:
        """Return the train Clock and the iteration count it printed."""
        cli = self.modules["cli"]
        gc.collect()
        text, clock = self.ops.cli(cli, self.argv("train", out), tracer)
        self.ops.cli(cli, self.argv("evaluate", out), tracer)
        found = re.search(r"\((\d+) iterations\)", text)
        return clock, int(found.group(1)) if found else None

    def predict(self, out: str, ids: list, images: dict, expected: dict,
                until: float, minimum: int, tracer=None) -> None:
        """Time per-image `predict` calls into `self.predict_clocks` until
        `until` (perf_counter time) and until there are `minimum` of them.
        Each output must be a score in [0, 10], and for a test image equal
        the evaluate output."""
        cli = self.modules["cli"]
        while (len(self.predict_clocks) < minimum
               or time.perf_counter() < until):
            sid = ids[len(self.predict_clocks) % len(ids)]
            text, clock = self.ops.cli(
                cli, self.argv("predict", out, images[sid]), tracer)
            self.predict_clocks.append(clock)
            try:
                score = float(text.strip().splitlines()[-1])
            except (ValueError, IndexError):
                score = float("nan")
            # predict prints 4 decimals of the value evaluate wrote in full
            self.ops.check(
                f"predict {sid} output",
                _in_score_range(score) and (sid not in expected or abs(
                    score - expected[sid]) <= 5.1e-5),
                f"printed {text.strip()!r}, evaluate gave {expected.get(sid)}")


def measure(exp: Experiment, speed: SpeedSampler, outs: list, first,
            ev: dict, digest: str, deadline: float, report: dict) -> dict:
    """The untraced rest of a run after the first train and evaluate
    (`first` is (Clock, iterations)); return the end-to-end metrics."""
    ops, w = exp.ops, exp.w
    trains, iterations = [first[0]], [first[1]]
    for rerun_out in outs[-TRAIN_REPS:-1]:
        clock, its = exp.train_and_evaluate(rerun_out)
        trains.append(clock)
        iterations.append(its)
        ops.check("a rerun of the seed writes the same metrics.csv bytes",
                  _sha256_file(os.path.join(rerun_out, "metrics.csv"))
                  == digest)
    out = outs[-1]
    _, images, order = exp.split_ids(out)
    exp.predict(out, order, images, ev["predictions"], deadline,
                w.min_predicts)
    ops.check("gen-data reruns write identical manifests",
              len(exp.manifests) == 1, f"{len(exp.manifests)} digests")

    setups, predicts = exp.setup_clocks, exp.predict_clocks

    def scaled(clocks):
        return [c.wall * speed.scale(c.start, c.end) for c in clocks]

    # what the timed phases did, so that a change in the work done can be
    # told apart from a change in speed
    report["work"] = {"setup_reps": len(setups),
                      "train_iterations": iterations,
                      "predict_samples": len(predicts)}
    # wall and CPU seconds before scaling; the gap between them is time the
    # process waited rather than ran
    raw_ms = [1e3 * c.wall for c in predicts]
    report["unscaled"] = {
        "setup_wall_s": _summary([c.wall for c in setups]),
        "setup_cpu_s": _summary([c.cpu for c in setups]),
        "train_wall_s": [c.wall for c in trains],
        "train_cpu_s": [c.cpu for c in trains],
        "predict_wall_ms": {f"p{q}": _percentile(raw_ms, q)
                            for q in (10, 50, 95)},
        "predict_cpu_s_total": sum(c.cpu for c in predicts),
    }
    report["speed_probe"] = {
        "samples": len(speed.seconds),
        "us": {f"p{q}": 1e6 * _percentile(speed.seconds, q)
               for q in (10, 50, 90)},
        "train_scale": [speed.scale(c.start, c.end) for c in trains],
    }
    lat = [1e3 * s for s in scaled(predicts)]
    report["predict_ms"] = {f"p{q}": _percentile(lat, q)
                            for q in (10, 25, 50, 75, 95)}
    return {
        # unscaled: set-up spends most of its time in the kernel creating
        # files, whose speed the probe does not follow
        "setup_s": statistics.median(c.wall for c in setups),
        # the faster train: what scaling leaves of a burst of load on the
        # host only ever adds time
        "train_s": min(scaled(trains)),
        "predict_p50_ms": _percentile(lat, 50),
        "predict_p95_ms": _percentile(lat, 95),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_nmse": ev["nmse"],
    }


def trace_layers(exp: Experiment, tracer: Tracer, train, ev: dict,
                 digest: str, report: dict) -> dict:
    """A traced gen-data, train, evaluate and `min_predicts` predicts;
    return the per-layer metrics."""
    ops = exp.ops
    instrument(tracer, exp.modules)
    n_warnings = len(ops.warnings)
    out = exp.new_out()
    ops.cli(exp.modules["cli"], exp.argv("gen-data", out), tracer)
    traced, iterations = exp.train_and_evaluate(out, tracer)
    report["tracing_overhead_s"] = traced.wall - train.wall
    ops.check("traced run writes the same metrics.csv bytes",
              _sha256_file(os.path.join(out, "metrics.csv")) == digest)
    _, images, order = exp.split_ids(out)
    exp.predict(out, order, images, ev["predictions"], 0.0,
                exp.w.min_predicts, tracer)
    report["work"] = {"train_iterations": [iterations],
                      "predict_samples": len(exp.predict_clocks)}
    errors = tracer.nesting_errors()
    ops.check("every span nests under its cli request", not errors,
              "; ".join(errors[:5]))
    fallbacks = sum("falling back" in w for w in ops.warnings[n_warnings:])
    metrics = layer_metrics(tracer, fallbacks)
    metrics["quality.test_srocc"] = ev["srocc"]
    metrics["quality.test_mse"] = ev["mse"]
    report["conv_shapes"] = tracer.conv_table()
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: str, src: str) -> tuple:
    """Run one workload; return the result line (a dict), the report and
    the tracer (None for an untraced run).

    Both start with set-up and one untraced `train` and `evaluate`.
    Untraced: `setup_reps` set-ups, then `train` and `evaluate` TRAIN_REPS
    times on identical data, which must give byte-identical metrics.csv
    files, then per-image `predict` calls until `seconds` after the start
    and until there are `min_predicts` of them. Traced: one set-up, then a
    traced gen-data, train, evaluate and `min_predicts` predicts, whose
    metrics.csv must match the untraced one byte for byte.
    """
    deadline = time.perf_counter() + seconds
    ops = Ops()
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(
        root, ".perfbench_work"))
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "flags": list(workload.flags)}
    metrics = {}
    tracer = Tracer() if trace else None
    try:
        with SpeedSampler() as speed:
            exp = Experiment(workload, seed, work, ops)
            outs = exp.setup(
                1 if trace else max(workload.setup_reps, TRAIN_REPS))
            report["env"] = environment(root, src, exp.modules, exp.ini)
            out = outs[-1]
            test_ids, _, _ = exp.split_ids(out)
            train, iterations = exp.train_and_evaluate(out)
            ev = check_evaluation(ops, out, test_ids)
            digest = _sha256_file(os.path.join(out, "metrics.csv"))
            report["degeneracy"] = {
                "pred_std_over_truth_std": ev["spread_ratio"],
                "test_srocc": ev["srocc"],
                "router_counts": router_counts(out),
                "branch_fallbacks": sum("falling back" in w
                                        for w in ops.warnings),
            }
            if trace:
                metrics = trace_layers(exp, tracer, train, ev, digest, report)
            else:
                metrics = measure(exp, speed, outs, (train, iterations), ev,
                                  digest, deadline, report)
    except Abort:
        pass
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    report["warnings"] = sorted(set(ops.warnings))
    report["failures"] = ops.failures
    units = metric_units(root, "per_layer" if trace else "end_to_end")
    result = {"correct": ops.failed == 0 and bool(metrics),
              "attempted": max(ops.attempted, 1), "failed": ops.failed,
              "metrics": {k: {"value": v, "unit": units.get(k)}
                          for k, v in metrics.items()}}
    return result, report, tracer
