"""amcr benchmark: one experiment workload, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload quickstart-pcr --seed 1 \\
        --seconds 50 --trace 0

The workloads are listed in `harness.WORKLOADS`; BENCHMARK.json names the
ones the benchmark runs, its metrics and their bounds. With `--trace 0` the
last line of standard output is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
The lines before it hold the run's report (environment, degeneracy record,
per-shape conv table). The report and the traced spans are also written
under `.perfbench_out/`. The exit code is 0 only when every operation and
every output check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BLAS_THREADS = 1  # one BLAS thread: the steadiest timing on a shared host

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_environment() -> None:
    """Fix the kernel backend and BLAS threads before numpy and amcr load."""
    os.environ["AMCR_BACKEND"] = "numpy"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "amcr", "cli.py")):
        print(f"error: no amcr sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import harness
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    result, report, tracer = harness.run(workload, args.seed, args.seconds,
                                         bool(args.trace), ROOT, SRC)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".report.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
