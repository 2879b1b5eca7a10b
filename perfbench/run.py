#!/usr/bin/env python3
"""Benchmark of gensel: three workloads, checked outputs, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper_workflow --seed 1 --seconds 20 --trace 0

The workloads and metrics are declared in BENCHMARK.json at the root.  With
``--trace 0`` the last line of standard output holds every end-to-end metric;
with ``--trace 1`` the same rounds run with spans around gensel's public
functions and the line holds every per-layer metric.  The program is imported
from ``src/`` of the checkout; without it the run fails without a result.
See perfbench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import gensel, build the workload's inputs and exit (timed as setup_s)",
    )
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import gensel and build inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _measure(workload, ops, seconds: float, workdir: Path) -> int:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    rounds = 0
    start = time.perf_counter()
    while True:
        workload.run_round(ops, workdir)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return rounds


def _stage_seconds(steps) -> dict[str, float]:
    """Per stage, the sum over its steps of each step's mean time in this run.

    A step that runs several times per round (paper_workflow's
    expressibility) counts as one run of it.
    """
    runs: dict[str, tuple[str, list[float]]] = {}
    for step, stage, seconds in steps:
        runs.setdefault(step, (stage, []))[1].append(seconds)
    totals = {"primary": 0.0, "secondary": 0.0, "other": 0.0}
    for stage, times in runs.values():
        totals[stage] += statistics.fmean(times)
    return totals


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "gensel" / "__init__.py").is_file():
        print(f"error: no gensel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    if args.setup_only:
        cls(args.seed, ops)
        return 0 if ops.failed == 0 else 1

    setup_s = _setup_seconds(args)
    workload = cls(args.seed, ops)
    workdir = ROOT / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        try:
            workload.warm_up(ops)
            rounds = _measure(workload, ops, args.seconds, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernels = workload.kernels() if tracer else {}
        workload.finish(ops, workdir)
        failures = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    stages = _stage_seconds(workload.steps)
    primary, secondary = stages["primary"], stages["secondary"]
    wall = sum(stages.values())
    print(f"{args.workload}: {rounds} round(s), seed {args.seed}")
    for name, value, unit in workload.rates(primary, secondary):
        print(f"  {name} = {value:.6g} {unit}")
    for name, digest in workload.digests().items():
        print(f"  sha256 {name} {digest}")
    for line in ops.errors + failures:
        print(f"  FAIL {line}")

    if tracer:
        measured = {**tracer.derived(rounds), **kernels, "trace.wall_s": wall}
        entries = spec["per_layer"]
    else:
        measured = {
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_rss_mb": peak_mib,
            "primary_s": primary,
            "secondary_s": secondary,
        }
        entries = spec["end_to_end"]
    metrics = {}
    for entry in entries:
        name = entry["name"]
        value = measured.get(name)
        if value is None and tracer:
            # A layer this workload never calls reads 0.
            value = tracer.span_metric(name) or 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
