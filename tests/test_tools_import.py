"""Every ``tools/bench_*.py`` harness imports, and every ``phasestack`` name
it imports resolves, so removing or renaming a name in ``src/`` fails here
rather than at the harness's next run.

The harnesses guard ``main``, so importing one runs nothing.  Some import
``phasestack`` inside functions, because they run those functions in a
process whose ``PYTHONPATH`` is another tree's ``src``; those imports are
read from the source and resolved against this tree.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("bench_*.py"))


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


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_phasestack_names_resolve(path):
    for module_name, name in phasestack_imports(path):
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{path.name}: {module_name}.{name} does not resolve"
