"""The benchmark harness runs its workloads end to end on a short window."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# oracle reaches the Monte-Carlo sampler, planted-1k `generate` for the
# lfr, lfr_bg and sbm_single kinds
@pytest.mark.parametrize("workload", ["oracle", "planted-1k"])
def test_workload_runs_and_checks_its_outputs(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
