"""The public surface: every name a library module lists in `__all__` exists,
so a deleted function cannot linger there; and what importing the package
loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
import framelab.cli
print("scipy.optimize" in sys.modules)
from framelab import cli, rd
beta, delta = rd.optimize_beta(0.2, 100.0)
print("scipy.optimize" in sys.modules)
print(repr(beta), repr(delta))
dss7 = ["--frame", "dss", "--p", "7", "--k", "2"]
for argv in (["rate-loss", "--p", "0.2", "--sdr-grid", "0:20:10"],
             ["construct", "dss", "--p", "7"],
             ["ie-hist", *dss7], ["mlie", *dss7], ["eig-hist", *dss7],
             ["coder", *dss7, "--trials", "10"], ["optimize", *dss7, "--iters", "1"]):
    assert cli.main(argv + ["--out", argv[0] + ".out"]) == 0, argv
    print(argv[0], "scipy.optimize" in sys.modules)
"""


def test_no_subcommand_loads_scipy_optimize(tmp_path):
    # a fresh interpreter: this test session may already hold scipy.optimize
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    lines = [line for line in out.splitlines() if not line.startswith("#")]  # construct's header
    # (beta*, delta*) as scipy's minimize_scalar refined them, bit for bit
    assert lines == ["False", "False", "1.1897062735047033 0.4099523636740897",
                     "rate-loss False", "construct False", "ie-hist False", "mlie False",
                     "eig-hist False", "coder False", "optimize False"]


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the project's warning filters, a failed hypothesis test is one
    # failure, and the tests after it still run
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
