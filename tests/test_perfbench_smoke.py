"""The benchmark's cone and quiver workloads, run once with every artifact checked.

``perfbench --check-only`` compares each extremal-check report against the
independent reference (|W|, checks = monomials x |W|, |W/W_J| distinct
vertices), each search count against it (divisible by |G_v(F2)|, zero off
the predicted locus) and each reflection against the braid prediction.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload",
                         ["cone-verify", "quiver-same-sign", "quiver-mixed"])
def test_workload_checks_clean(tmp_path, workload):
    # run.py writes its outputs beside itself and reads src beside its
    # directory, so a copy keeps this run apart from any other benchmark run
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--check-only",
         "--workload", workload],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
