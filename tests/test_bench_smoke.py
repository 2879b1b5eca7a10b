"""The benchmark still runs against the package: one round of each workload.

``perfbench/selftest.py`` runs every workload once, requires its output
checks to pass and then to fail on corrupted outputs.  A renamed function or
a changed signature that the benchmark calls fails here, not only when the
benchmark itself is run.  About 8 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
