"""Every public name the package and its modules export resolves.

A name left in ``__all__`` after its definition is deleted still imports
cleanly; only ``from module import *`` fails on it."""

import importlib

import pytest

MODULES = [
    "recordstart",
    "recordstart.bench",
    "recordstart.hasplid",
    "recordstart.multistart",
    "recordstart.newton_cg",
    "recordstart.objectives",
    "recordstart.special",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
