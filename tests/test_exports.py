"""Every public name the package and its modules export resolves, and
some program code reads it.

A name left in ``__all__`` after its definition is deleted still imports
cleanly; only ``from module import *`` fails on it.  A name that only
tests read is an export no caller needs."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    "recordstart",
    "recordstart.bench",
    "recordstart.hasplid",
    "recordstart.multistart",
    "recordstart.newton_cg",
    "recordstart.objectives",
    "recordstart.special",
]


@functools.cache
def program_loads() -> frozenset:
    """Every name that ``src/``, ``scripts/`` or ``perfbench/`` reads, as
    a bare name or as an attribute."""
    names = set()
    for path in sorted(p for folder in ("src", "scripts", "perfbench") for p in (ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return frozenset(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_read_by_the_program(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if attr not in program_loads()] == []
