"""Every package name that the benchmark under perfbench/ reaches must exist.

perfbench/tracer.py wraps the functions listed in its WRAPPED tuple by module
and name, and the benchmark's scripts import from spectraledge.  Both are read
here with ast, so nothing under perfbench/ is imported or run; a change that
deletes or renames one of those names fails here rather than in a traced run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _wrapped() -> list:
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py assigns no WRAPPED tuple")


def _imports() -> list:
    """(file, module, name) for every `from spectraledge... import name` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spectraledge":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


WRAPPED = _wrapped()
IMPORTS = _imports()


def test_hooks_are_found():
    assert WRAPPED and IMPORTS


@pytest.mark.parametrize("module, name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in WRAPPED])
def test_wrapped_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"spectraledge.{module}"), name, None))


@pytest.mark.parametrize("module, name",
                         [pytest.param(m, n, id=f"{f}:{m}.{n}") for f, m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
