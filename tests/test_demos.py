"""The demos run, or at least import, against the current API."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_aligned_chain_ratio.py", "02_draft_verify_resample.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # Every demo, run or not: a name removed from cspdec must not break one.
    imports = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cspdec")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
