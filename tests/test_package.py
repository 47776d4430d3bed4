"""The public surface: every name a library module lists in `__all__` exists,
so a deleted function cannot linger there; each public object and each
pattern-set mode has one name; and what importing the package loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framelab import frames, optimize, patterns

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


def test_one_name_per_public_object():
    # a class or function is listed only by the module that defines it
    owners = {}
    for name in LIBRARY_MODULES:
        mod = importlib.import_module(f"framelab.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if callable(obj):
                assert obj.__module__ == mod.__name__, (name, attr)
            owners.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in owners.items() if len(mods) > 1} == {}


def test_the_package_namespace_holds_only_its_version():
    # a fresh interpreter, since this session has imported every submodule;
    # importing the package alone loads none of them
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, framelab; print([n for n in dir(framelab) if n[0] != '_'], "
            "[m for m in sys.modules if m.startswith('framelab.')], framelab.__version__)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    public, submodules, version = out.split()
    assert (public, submodules) == ("[]", "[]") and version


@pytest.mark.parametrize("mode", ["monte_carlo", "mc"])
def test_the_library_names_the_sampled_mode_once(mode):
    # only the CLI spells 'sampled' otherwise
    dss7 = frames.build_dss(7)
    calls = [lambda: patterns.pattern_set(7, 2, mode),
             lambda: patterns.ie_statistics(dss7, 2, mode=mode),
             lambda: optimize.verify_local_min(dss7, 2, trials=1, mode=mode)]
    for call in calls:
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            call()


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
