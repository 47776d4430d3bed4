"""The public surface: every name a library module lists in `__all__` exists,
so a deleted function cannot linger there."""

import importlib

import pytest

LIBRARY_MODULES = ("coder", "frames", "optimize", "patterns", "rd", "spectral")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"framelab.{name}")
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from framelab.{name} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()

