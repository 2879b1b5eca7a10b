"""The benchmark still runs against the package: one round of each workload.

``perfbench/selftest.py`` runs every workload once, requires its output
checks to pass and then to fail on corrupted outputs.  A renamed function or
a changed signature that the benchmark calls fails here, not only when the
benchmark itself is run.  Each workload also runs once with spans on
(``--trace 1``), which times the kernels it calls directly.  About 16 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.rstrip().endswith("selftest passed")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_trace_mode_reports_every_layer(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, result.stdout[-2000:]
    names = [entry["name"] for entry in SPEC["per_layer"]]
    assert len(names) == 56
    assert sorted(line["metrics"]) == sorted(names)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
