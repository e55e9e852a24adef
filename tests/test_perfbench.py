"""The benchmark's own output checks pass on every workload.

Each workload runs briefly with tracing on, which exercises the checks the
rest of the suite does not: the RunStats and span identities, the KS checks
of speculative against target-only output, and jobs independence.  Traces go
to the git-ignored ``perfbench/traces/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
