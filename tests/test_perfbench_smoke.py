"""The benchmark's quiver workloads, run once with every artifact checked.

``perfbench --check-only`` compares each search count against the
independent reference (divisible by |G_v(F2)|, zero off the predicted
locus) and each reflection against the braid prediction.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["quiver-same-sign", "quiver-mixed"])
def test_quiver_workload_checks_clean(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--check-only", "--workload", workload],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
