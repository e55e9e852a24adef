"""The benchmark's own output checks pass on every workload.

Each workload runs briefly, untraced as the benchmark's end-to-end command
runs it (the KS check over at least 1000 pairs, the set-up probes in fresh
interpreters, the metric names against BENCHMARK.json) and traced (the
RunStats and span identities and jobs independence).  Both exercise checks
the rest of the suite does not.  Traces go to the git-ignored
``perfbench/traces/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_is_correct(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
