"""The public surface: every name a library module lists in `__all__` exists,
so a deleted function cannot linger there; and what importing the package
loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY_MODULES = ("coder", "frames", "optimize", "patterns", "rd", "spectral")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"framelab.{name}")
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from framelab.{name} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


_IMPORT_FOOTPRINT = """
import sys
import framelab
import framelab.cli
print("scipy.optimize" in sys.modules)
from framelab import rd
beta, delta = rd.optimize_beta(0.2, 100.0)
print("scipy.optimize" in sys.modules)
print(repr(beta), repr(delta))
"""


def test_only_optimize_beta_loads_scipy_optimize():
    # a fresh interpreter: this test session may already hold scipy.optimize
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env,
                         capture_output=True, text=True, check=True).stdout
    # (beta*, delta*) as the module-level import gave them, bit for bit
    assert out.splitlines() == ["False", "True", "1.1897062735047033 0.4099523636740897"]
