"""Golden CLI outputs.

Every case below re-runs in-process and must reproduce its files under
tests/golden/<case>/ byte for byte, apart from the timestamp line.  The same
cases run once more in a subprocess with single-threaded BLAS, which must give
the same bytes: the outputs may not depend on the BLAS thread count.

The bytes hold on one machine and one OpenBLAS kernel family, which OpenBLAS
picks from the CPU it starts on.  Under another family (another
OPENBLAS_CORETYPE), 17 to 19 of the 22 golden files move in their last digits.

The goldens are a record of what the program printed; regenerate them only
for an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().with_name("golden")
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "ie_bl13_exhaustive": ["ie-hist", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5",
                           "--mode", "exhaustive", "--out", "ie.csv"],
    "ie_dss11_auto": ["ie-hist", "--frame", "dss", "--p", "11", "--k", "3",
                      "--out", "ie.csv"],
    "ie_dss47_sampled": ["ie-hist", "--frame", "dss", "--p", "47", "--k", "20",
                         "--mode", "monte_carlo", "--trials", "40", "--seed", "3",
                         "--out", "ie.csv"],
    "ie_spectrum_singular": ["ie-hist", "--frame", "spectrum", "--n", "8",
                             "--spectrum", "0,2,4,6", "--k", "2", "--out", "ie.csv"],
    "ie_dss7_json": ["ie-hist", "--frame", "dss", "--p", "7", "--k", "2",
                     "--format", "json", "--out", "ie.json"],
    "mlie_bl13_exhaustive": ["mlie", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5",
                             "--mode", "exhaustive", "--out", "mlie.csv"],
    "mlie_iid_complex_sampled": ["mlie", "--frame", "iid", "--field", "complex",
                                 "--n", "16", "--m", "8", "--k", "4", "--frame-seed", "1",
                                 "--mode", "monte_carlo", "--trials", "100", "--seed", "2",
                                 "--out", "mlie.csv"],
    "eig_iid": ["eig-hist", "--frame", "iid", "--n", "40", "--m", "20", "--k", "10",
                "--trials", "7", "--seed", "4", "--out", "eig.csv"],
    "eig_dss": ["eig-hist", "--frame", "dss", "--p", "11", "--k", "3", "--trials", "50",
                "--out", "eig.csv"],
    "coder_bl16_full": ["coder", "--frame", "bl", "--n", "16", "--m", "16", "--k", "16",
                        "--trials", "2000", "--out", "coder.csv"],
    "coder_dss31_sampled": ["coder", "--frame", "dss", "--p", "31", "--k", "5",
                            "--sigma-q2", "0.5", "--trials", "300", "--seed", "1",
                            "--out", "coder.csv"],
    "coder_dss7_fixed": ["coder", "--frame", "dss", "--p", "7", "--k", "3",
                         "--pattern", "5,1,3", "--trials", "200", "--out", "coder.csv"],
    "opt_bl13_sampled": ["optimize", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5",
                         "--budget", "35", "--iters", "5", "--seed", "1", "--out", "opt.csv"],
    "opt_bl9_exhaustive": ["optimize", "--frame", "bl", "--n", "9", "--m", "5", "--k", "3",
                           "--iters", "5", "--save-frame", "final.frame",
                           "--out", "opt.csv"],
    "opt_dss7_verify": ["optimize", "--frame", "dss", "--p", "7", "--k", "2", "--verify",
                        "--epsilons", "1e-3,1e-2", "--trials", "20", "--out", "verify.csv"],
    "opt_dss11_verify_mc": ["optimize", "--frame", "dss", "--p", "11", "--k", "3",
                            "--verify", "--pattern-mode", "mc", "--budget", "30",
                            "--epsilons", "1e-3", "--trials", "10", "--out", "verify.csv"],
    "rateloss_p02": ["rate-loss", "--p", "0.2", "--sdr-grid", "0:30:10",
                     "--out", "loss.csv"],
    "construct_dss7": ["construct", "dss", "--p", "7", "--out", "dss7.frame"],
}

_TIMESTAMP = re.compile(rb'^(# timestamp=| *"timestamp": ).*\n', re.M)


def run_case(argv, workdir):
    """Run one CLI call inside an empty `workdir`; its files and stdout,
    timestamp lines removed, keyed by file name."""
    from framelab import cli

    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    assert rc == cli.EXIT_OK, f"{argv} exited {rc}"
    outputs = {p.name: p.read_bytes() for p in Path(workdir).iterdir()}
    if stdout.getvalue():
        outputs["stdout.txt"] = stdout.getvalue().encode()
    return {name: _TIMESTAMP.sub(b"", data) for name, data in outputs.items()}


def write_cases(dest):
    """Write every case's outputs under dest/<case>/."""
    for case, argv in CASES.items():
        workdir = Path(dest) / case
        workdir.mkdir(parents=True)
        for name, data in run_case(argv, workdir).items():
            (workdir / name).write_bytes(data)


def _golden(case):
    return {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}


def test_every_case_has_a_golden():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == _golden(case)


def test_golden_outputs_with_single_threaded_blas(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, __file__, str(tmp_path / "out")], env=env,
                   check=True, timeout=300)
    for case in CASES:
        produced = {p.name: p.read_bytes() for p in (tmp_path / "out" / case).iterdir()}
        assert produced == _golden(case), case


if __name__ == "__main__":
    write_cases(sys.argv[1])
