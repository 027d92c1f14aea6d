"""The benchmark harness runs its workloads end to end on a short window."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# oracle reaches the Monte-Carlo sampler, planted-1k `generate` for the
# lfr, lfr_bg and sbm_single kinds, null-50k and lfr-10k the edge-list
# writer, the bulk reader and the graph build through `essc detect`; the
# traced row runs the harness that patches the library's functions to
# count their calls
@pytest.mark.parametrize("workload,trace", [
    pytest.param("oracle", 0, id="oracle"),
    pytest.param("null-50k", 0, id="null-50k"),
    pytest.param("lfr-10k", 0, id="lfr-10k"),
    pytest.param("planted-1k", 0, id="planted-1k"),
    pytest.param("planted-1k", 1, id="planted-1k-trace"),
])
def test_workload_runs_and_checks_its_outputs(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
