"""The public surface: every name a library module lists in `__all__` exists,
so a deleted function cannot linger there; each public object and each
pattern-set mode has one name; what importing the package loads; and which
scipy modules each subcommand loads, the routine table's two f2py modules at
most."""

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


def _run_fresh(code, cwd=None):
    """stdout of `code` run in a fresh interpreter on this checkout's sources:
    this test session has imported every submodule, and may hold any scipy
    module."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def test_the_package_namespace_holds_only_its_version():
    # importing the package alone loads no submodule
    code = ("import sys, framelab; print([n for n in dir(framelab) if n[0] != '_'], "
            "[m for m in sys.modules if m.startswith('framelab.')], framelab.__version__)")
    public, submodules, version = _run_fresh(code).split()
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
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
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
    # importing the CLI loads no scipy at all
    out = _run_fresh(_IMPORT_FOOTPRINT, tmp_path)
    lines = [line for line in out.splitlines() if not line.startswith("#")]  # construct's header
    # (beta*, delta*) as scipy's minimize_scalar refined them, bit for bit
    assert lines == ["[]", "False", "1.1897062735047033 0.4099523636740897",
                     "rate-loss False", "construct False", "ie-hist False", "mlie False",
                     "eig-hist False", "coder False", "optimize False"]


_SUBCOMMAND_FOOTPRINT = """
import sys
from framelab import cli
argv = {argv!r}
assert cli.main(argv + ["--out", argv[0] + ".out"]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]))
"""

_DSS7 = ["--frame", "dss", "--p", "7", "--k", "2"]


@pytest.mark.parametrize("argv", [
    ["rate-loss", "--p", "0.2", "--sdr-grid", "0:20:10"],
    ["construct", "dss", "--p", "7"],
    ["ie-hist", *_DSS7],
    ["mlie", *_DSS7],
    ["eig-hist", *_DSS7],
    ["coder", *_DSS7, "--trials", "10"],
    ["optimize", *_DSS7, "--iters", "1"],
], ids=lambda argv: argv[0])
def test_each_subcommand_loads_blas_without_scipy_linalg(argv, tmp_path):
    # the eta subcommands load scipy.linalg's two f2py modules and never its
    # package; rate-loss and construct load neither
    out = _run_fresh(_SUBCOMMAND_FOOTPRINT.format(argv=argv), tmp_path)
    eta_free = argv[0] in ("rate-loss", "construct")
    loaded = [] if eta_free else ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert out.splitlines()[-1] == repr(loaded)


_TABLE_VS_GETTERS = """
import importlib
import sys
from types import SimpleNamespace
import numpy as np
from framelab import spectral
order = {order!r}
if order == "package-first":
    import scipy.linalg
if order == "fallback":
    # the loader's finder sees a scipy.linalg path holding no extension file;
    # the import system's own finders are left alone
    no_file = SimpleNamespace(find_spec=lambda name, path=None, target=None: None)
    spectral.importlib = SimpleNamespace(util=importlib.util, import_module=importlib.import_module,
                                         machinery=SimpleNamespace(PathFinder=no_file))
dtypes = (np.float32, np.float64, np.complex64, np.complex128)
tables = [spectral.routines(np.dtype(t)) for t in dtypes]
print("scipy.linalg" in sys.modules)
from scipy.linalg import blas, get_blas_funcs, get_lapack_funcs
for dtype, table in zip(dtypes, tables):
    probe = np.ones((2, 2), dtype)
    c = np.iscomplexobj(probe)
    fns = (get_blas_funcs(("herk" if c else "syrk", "dotc" if c else "dot", "trmm"), (probe,))
           + get_lapack_funcs(("potrf", "pstrf", "trtri", "heevd" if c else "syevd",
                               "heevd_lwork" if c else "syevd_lwork"), (probe,)))
    roles = ("gram", "dot", "trmm", "potrf", "pstrf", "trtri", "evd", "evd_lwork")
    print(sorted(table) == sorted(roles) and all(table[r] is fn for r, fn in zip(roles, fns)))
print(sys.modules["scipy.linalg._fblas"] is blas._fblas)
"""


@pytest.mark.parametrize("order, package_loaded", [
    ("table-first", False), ("package-first", True), ("fallback", True)])
def test_routine_table_is_what_the_scipy_getters_return(order, package_loaded):
    # whichever of the table and scipy.linalg comes first, there is one module
    # object and every role is the getters' very routine; a scipy.linalg with
    # no extension file on its path (an editable build) takes a plain import,
    # which loads the package, and gives the same table
    out = _run_fresh(_TABLE_VS_GETTERS.format(order=order))
    assert out.split() == [str(package_loaded)] + ["True"] * 5


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
