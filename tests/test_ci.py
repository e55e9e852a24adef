"""The CI workflow runs the Tier-1 command that ROADMAP.md names."""

import re
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    # The CI image installs only the test dependencies, not PyYAML.
    yaml = pytest.importorskip("yaml")
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", roadmap, re.M)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    # YAML 1.1 reads the bare key "on" as True.
    assert set(workflow[True]) == {"push", "pull_request"}
    job = workflow["jobs"]["tier1"]
    # A hung test must fail the job long before the runner's own limit.
    assert 0 < job["timeout-minutes"] <= 60
    steps = job["steps"]
    # The bit-for-bit float tests run on 3.11 and on 3.12, whose builtin sum() is compensated.
    assert job["strategy"]["matrix"]["python-version"] == ["3.11", "3.12"]
    assert steps[1]["uses"].startswith("actions/setup-python@")
    assert steps[1]["with"]["python-version"] == "${{ matrix.python-version }}"
    # The dependencies are the package's own and its test extra, read from pyproject.toml.
    assert steps[2]["run"] == 'python -m pip install -e ".[test]"'
    assert steps[-1]["run"] == command.group(1)


def test_test_extra_lists_the_test_runners():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert {"pytest", "hypothesis"} <= set(project["optional-dependencies"]["test"])
