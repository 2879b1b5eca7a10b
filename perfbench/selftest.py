#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

Runs one round of each workload, requires all checks to pass on the real
outputs, then corrupts the outputs one way per check and requires that check
to report a failure.  Run from the root of a source checkout:

    python3 perfbench/selftest.py [workload ...]

Exits 0 when every check passed on real outputs and failed on its corruption.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _edit_csv(text: str, edit) -> str:
    """Apply ``edit(index, row)`` to every data row of a CSV text."""
    rows = workloads.read_rows(text)
    header = list(rows[0])
    for i, row in enumerate(rows):
        edit(i, row)
    return "\n".join([",".join(header)] + [",".join(r[h] for h in header) for r in rows]) + "\n"


def _bump(text: str, row: int, column: str, factor: float = 1.001) -> str:
    def edit(i, r):
        if i == row:
            r[column] = repr(float(r[column]) * factor + 1e-6)

    return _edit_csv(text, edit)


def _with(out, path, value):
    bad = copy.deepcopy(out)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


def _edited(out, fn):
    bad = copy.deepcopy(out)
    fn(bad)
    return bad


def _paper(out):
    files = out["files"]

    def stalled(i, r):  # exact never improves
        if r["method"] == "exact":
            r["rmse_normalized"] = "1.0"

    def commuting(i, r):
        if i == 0:
            r["n_commute_pairs"] = "1"

    return {
        "dataset": _with(out, ["files", "data.csv"], _bump(files["data.csv"], 3, "y")),
        "traces": _with(out, ["files", "traces.csv"], _bump(files["traces.csv"], 0, "rmse")),
        "paper_properties": _with(
            out, ["files", "traces.csv"], _edit_csv(files["traces.csv"], stalled)
        ),
        "table1": _with(out, ["files", "table1.csv"], _bump(files["table1.csv"], 1, "mean")),
        "t_test": _with(out, ["report_stdout"], out["report_stdout"].replace("p=", "p=1")),
        "expressibility": _with(
            out, ["files", "expr.csv"], _edit_csv(files["expr.csv"], commuting)
        ),
        "determinism": _with(
            out, ["again", "expr.csv#1"], _bump(files["expr.csv"], 2, "hellinger")
        ),
        "svg": _with(out, ["files", "curves.svg"], ""),
    }


def _wide(out):
    def label(bad):
        bad["cases"][0]["dataset"][1][1] += 1e-6

    def epoch0(bad):
        bad["rounds"][-1][0]["trace"][0] *= 1.001

    def hellinger(bad):
        bad["rounds"][-1][1]["expr"][0] = 1.5

    def repeat(bad):
        bad["rounds"].append(copy.deepcopy(bad["rounds"][-1]))
        bad["rounds"][-1][2]["expr"][1] += 1e-12

    return {
        "dataset": _edited(out, label),
        "training": _edited(out, epoch0),
        "expressibility": _edited(out, hellinger),
        "determinism": _edited(out, repeat),
    }


def _theory(out):
    files = out["files"]

    def casimir(bad):
        bad["casimir"][-1] = (bad["casimir"][-1][0], 63.0)

    return {
        "casimir": _edited(out, casimir),
        "identities": _with(
            out, ["files", "theory4.csv"], _bump(files["theory4.csv"], 1, "lemma1_lhs", 1 + 1e-6)
        ),
        "dense_oracle": _with(
            out, ["files", "theory3.csv"], _bump(files["theory3.csv"], 0, "diag_sum", 1.01)
        ),
    }


CORRUPTIONS = {
    "paper_workflow": _paper,
    "wide_circuits": _wide,
    "theory_check": _theory,
}


def main(names) -> int:
    ok = True
    workdir = ROOT / ".perfbench-out" / f"selftest-{os.getpid()}"
    for name in names or list(CORRUPTIONS):
        ops = workloads.Ops()
        workload = workloads.WORKLOADS[name](seed=7, ops=ops)
        workdir.mkdir(parents=True, exist_ok=True)
        workload.warm_up(ops)
        workload.run_round(ops, workdir)
        workload.finish(ops, workdir)
        failures = workload.check()
        print(f"{name}: {ops.attempted} operations, {ops.failed} failed")
        for line in ops.errors + failures:
            print(f"  real outputs: {line}")
        ok &= not failures and not ops.failed
        real = workload.out
        bad_outputs = CORRUPTIONS[name](real)
        checks = dict(workload.checks())
        for check, bad in bad_outputs.items():
            workload.out = bad
            caught = [f for f in workload.check() if f.startswith(f"{check}:")]
            print(f"  {check}: {'fails on corrupted output' if caught else 'MISSED the corruption'}")
            ok &= bool(caught)
        missing = set(checks) - set(bad_outputs)
        for check in sorted(missing):
            print(f"  {check}: no corruption tried")
        ok &= not missing
        workload.out = real
    shutil.rmtree(workdir)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
