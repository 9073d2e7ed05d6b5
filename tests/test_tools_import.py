"""Every ``tools/bench_*.py`` harness imports, and every ``phasestack`` name
it imports resolves, so removing or renaming a name in ``src/`` fails here
rather than at the harness's next run.

The harnesses guard ``main``, so importing one runs nothing.  Some import
``phasestack`` inside functions, because they run those functions in a
process whose ``PYTHONPATH`` is another tree's ``src``; those imports are
read from the source and resolved against this tree.  The harnesses import
``tools/harness.py`` as ``harness``, so ``tools/`` is put on the import path
here, as running a harness puts it there.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from phasestack import write_stack

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("bench_*.py"))
HARNESS = ROOT / "tools" / "harness.py"


@pytest.fixture(autouse=True)
def tools_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))


def phasestack_imports(path: Path) -> list:
    """(module, name) of every ``from phasestack... import name`` in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "phasestack":
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_tools_found():
    assert TOOLS


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_imports(path):
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", [*TOOLS, HARNESS], ids=[p.stem for p in [*TOOLS, HARNESS]])
def test_tool_phasestack_names_resolve(path):
    for module_name, name in phasestack_imports(path):
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{path.name}: {module_name}.{name} does not resolve"


@pytest.mark.parametrize("name, seed", [("cluster-n1000", 3), ("conventional-256", 1)])
def test_harness_trial_is_perfbenchs_stack(tmp_path, monkeypatch, name, seed):
    """``harness.trial`` builds the stack ``perfbench/make_inputs.py`` writes,
    byte for byte, also with a field overridden."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    harness = importlib.import_module("harness")
    make_inputs = importlib.import_module("make_inputs")
    w = dataclasses.replace(harness.WORKLOADS[name], frames=4)
    make_inputs.write_inputs(w, seed, tmp_path)
    write_stack(harness.trial(name, seed, frames=4), tmp_path / "trial.wphs")
    assert (tmp_path / "trial.wphs").read_bytes() == (tmp_path / "stack.wphs").read_bytes()
