"""CLI behavior: exit codes, reproducible data products, and file formats."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framelab import cli, frames, spectral


def _lines_without_timestamp(path):
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("# timestamp=")]


def _header_value(path, key):
    with open(path) as fh:
        for ln in fh:
            if ln.startswith(f"# {key}="):
                return ln.split("=", 1)[1].strip()
    raise KeyError(key)


def _rows(path):
    """The lines of an output file below its '#' header."""
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def test_construct_dss_roundtrip(tmp_path, capsys):
    out = tmp_path / "dss7.frame"
    rc = cli.main(["construct", "dss", "--p", "7", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# is_tight=True" in stdout
    assert "# is_equiangular=True" in stdout
    assert "# welch_bound=" in stdout
    loaded = frames.load_frame(str(out))
    assert np.allclose(loaded.data, frames.build_dss(7).data, atol=1e-15)


def test_construct_rejects_bad_paley_order(tmp_path):
    rc = cli.main(["construct", "paley", "--n", "10",
                   "--out", str(tmp_path / "x.frame")])
    assert rc == cli.EXIT_CONFIG


def test_ie_hist_reproducible_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["ie-hist", "--frame", "dss", "--p", "11", "--k", "3",
            "--mode", "exhaustive", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    assert _lines_without_timestamp(a) == _lines_without_timestamp(b)
    assert _header_value(a, "mlie_bits")  # summary lands in the header
    assert _header_value(a, "manova_limit")


def test_ie_hist_square_frame_has_no_reference_limit(tmp_path):
    # m/n = 1 sits outside the spectral-law domain; the header just omits it
    out = tmp_path / "sq.csv"
    rc = cli.main(["ie-hist", "--frame", "bl", "--n", "8", "--m", "8",
                   "--k", "3", "--out", str(out)])
    assert rc == 0
    with pytest.raises(KeyError):
        _header_value(out, "manova_limit")


def test_ie_hist_manova_limit_near_unit_beta(tmp_path):
    # beta = 473/472: the limit (beta - w)/(beta (beta - 1)) is large but finite,
    # and a quoted limit may never fall below the floor k/m
    out = tmp_path / "ie.csv"
    rc = cli.main(["ie-hist", "--frame", "dss", "--p", "947", "--k", "472",
                   "--mode", "monte_carlo", "--trials", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    limit = float(_header_value(out, "manova_limit"))
    assert limit >= float(_header_value(out, "eta_floor"))
    assert limit == pytest.approx(236.74762407601782, rel=1e-12)


def test_ie_hist_requires_k(tmp_path):
    rc = cli.main(["ie-hist", "--frame", "dss", "--p", "7",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG


def test_eig_hist_writes_zoom_and_reference(tmp_path):
    out = tmp_path / "eig.csv"
    rc = cli.main(["eig-hist", "--frame", "dss", "--p", "11", "--k", "3",
                   "--trials", "50", "--out", str(out)])
    assert rc == 0
    assert _header_value(out, "reference") == "manova"
    zoom = tmp_path / "eig_zoom.csv"
    assert zoom.exists()
    assert _header_value(zoom, "value_hi") == "0.2"
    rows = _rows(out)
    assert rows[0].strip() == "bin_center,empirical_density,reference_density"
    assert len(rows) == 1 + 100  # default bins


def test_eig_hist_zoom_bins_the_same_sweep(tmp_path):
    out = tmp_path / "eig.csv"
    rc = cli.main(["eig-hist", "--frame", "iid", "--n", "40", "--m", "20",
                   "--k", "10", "--trials", "7", "--seed", "4", "--out", str(out)])
    assert rc == 0
    f = frames.build_random_iid(40, 20)
    zoom = spectral.eigen_histogram(f, 10, trials=7, bins=100, seed=4,
                                    value_range=(0.0, 0.2))
    rows = [ln.strip().split(",") for ln in _rows(tmp_path / "eig_zoom.csv")][1:]
    assert [float(r[1]) for r in rows] == zoom.density.tolist()
    for key in ("min_eigenvalue", "max_eigenvalue"):
        assert _header_value(out, key) == _header_value(tmp_path / "eig_zoom.csv", key)


@pytest.mark.parametrize("argv", [
    ["ie-hist", "--frame", "dss", "--p", "7", "--k", "2", "--trials", "0"],
    ["ie-hist", "--frame", "dss", "--p", "7", "--k", "2", "--bins", "0"],
    ["eig-hist", "--frame", "dss", "--p", "7", "--k", "2", "--trials", "-1"],
    ["coder", "--frame", "dss", "--p", "7", "--k", "2", "--trials", "0"],
    ["optimize", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5", "--budget", "0"],
    ["ie-hist", "--frame", "dss", "--p", "7", "--k", "2", "--trials", "many"],
])
def test_counts_below_one_exit_config(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "error: argument --" in capsys.readouterr().err
    assert not out.exists()


def test_eig_hist_outside_manova_domain_has_no_reference(tmp_path):
    # m/k = 2 exceeds n/m = 4/3 (and k + m > n): no MANOVA law, zero density
    out = tmp_path / "e.csv"
    rc = cli.main(["eig-hist", "--frame", "spectrum", "--n", "8",
                   "--spectrum", "0,1,2,3,4,5", "--k", "3", "--trials", "5",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    for path in (out, tmp_path / "e_zoom.csv"):
        assert _header_value(path, "reference") == "none"
        rows = [ln.strip().split(",") for ln in _rows(path)][1:]
        assert len(rows) == 100 and all(r[2] == "0.0" for r in rows)


@pytest.mark.parametrize("argv", [
    ["coder", "--frame", "dss", "--p", "7", "--k", "2", "--trials", "3", "--bins", "7"],
    ["optimize", "--frame", "dss", "--p", "7", "--k", "2", "--bins", "7"],
    ["construct", "dss", "--p", "7", "--format", "json"],
], ids=["coder-bins", "optimize-bins", "construct-format"])
def test_options_nothing_reads_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_eig_hist_iid_uses_mp_reference(tmp_path):
    out = tmp_path / "mp.csv"
    rc = cli.main(["eig-hist", "--frame", "iid", "--n", "40", "--m", "20",
                   "--k", "10", "--trials", "30", "--out", str(out)])
    assert rc == 0
    assert _header_value(out, "reference") == "marchenko_pastur"


def test_rate_loss_header_and_rows(tmp_path):
    out = tmp_path / "loss.csv"
    rc = cli.main(["rate-loss", "--p", "0.5", "--sdr-grid", "0:10:5",
                   "--out", str(out)])
    assert rc == 0
    assert _header_value(out, "si_bits") == "1.0"
    assert _header_value(out, "crossover_count") == "0"
    assert _header_value(out, "crossover_db") == "none"
    rows = _rows(out)
    assert len(rows) == 1 + 3  # header row + 0, 5, 10 dB


def test_rate_loss_rejects_bad_grid(tmp_path):
    assert cli.main(["rate-loss", "--p", "0.5", "--sdr-grid", "5:1:1",
                     "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert cli.main(["rate-loss", "--sdr-grid", "0:10:5",
                     "--out", str(tmp_path / "y.csv")]) == cli.EXIT_CONFIG


def test_mlie_full_dft_is_zero(tmp_path):
    out = tmp_path / "mlie.csv"
    rc = cli.main(["mlie", "--frame", "bl", "--n", "8", "--m", "8", "--k", "8",
                   "--mode", "exhaustive", "--out", str(out)])
    assert rc == 0
    assert abs(float(_header_value(out, "mlie_bits"))) < 1e-12


def test_coder_runs_and_reports(tmp_path):
    out = tmp_path / "coder.csv"
    rc = cli.main(["coder", "--frame", "bl", "--n", "16", "--m", "16",
                   "--k", "16", "--trials", "200", "--out", str(out)])
    assert rc == 0
    rows = dict(ln.strip().split(",") for ln in _rows(out) if "," in ln)
    assert rows["model_distortion"] == "0.5"
    assert float(rows["empirical_distortion"]) == pytest.approx(0.5, abs=0.1)


def test_coder_singular_fixed_pattern_is_numerical_failure(tmp_path):
    rc = cli.main(["coder", "--frame", "spectrum", "--n", "8",
                   "--spectrum", "0,2,4,6", "--k", "2", "--pattern", "0,4",
                   "--trials", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_NUMERICAL


def test_optimize_rank_deficient_start_is_numerical_failure(tmp_path):
    # the aliased spectrum makes some evaluation patterns exactly singular,
    # so the sampled objective is infinite at the start
    rc = cli.main(["optimize", "--frame", "spectrum", "--n", "8",
                   "--spectrum", "0,2,4,6", "--k", "2",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_NUMERICAL


def test_optimize_descends_and_saves_frame(tmp_path):
    out = tmp_path / "opt.csv"
    saved = tmp_path / "final.frame"
    rc = cli.main(["optimize", "--frame", "bl", "--n", "13", "--m", "7",
                   "--k", "5", "--iters", "5", "--budget", "100",
                   "--save-frame", str(saved), "--out", str(out)])
    assert rc == 0
    final = float(_header_value(out, "final_mlie_bits"))
    initial = float(_header_value(out, "initial_mlie_bits"))
    assert final <= initial
    loaded = frames.load_frame(str(saved))
    assert loaded.n == 13 and loaded.m == 7
    rows = _rows(out)
    assert rows[1].startswith("0,")  # trajectory starts at iteration 0


def test_optimize_verify_mode(tmp_path):
    out = tmp_path / "verify.csv"
    rc = cli.main(["optimize", "--frame", "dss", "--p", "7", "--k", "2",
                   "--verify", "--epsilons", "1e-3", "--trials", "20",
                   "--out", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert rows[0].strip() == "epsilon,trials,fraction_decreased,max_decrease_bits"
    eps, trials, frac, _ = rows[1].strip().split(",")
    assert trials == "20" and float(frac) == 0.0


def test_json_format(tmp_path):
    out = tmp_path / "loss.json"
    rc = cli.main(["rate-loss", "--p", "0.2", "--sdr-grid", "10:20:10",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["subcommand"] == "rate-loss"
    assert payload["columns"][0] == "sdr_db"
    assert len(payload["rows"]) == 2


_DSS7 = ["--frame", "dss", "--p", "7", "--k", "2"]


@pytest.mark.parametrize("argv", [
    ["coder", *_DSS7, "--sigma-x2", "-1", "--trials", "10", "--out", "x.csv"],
    ["ie-hist", "--frame", "spectrum", "--n", "8", "--spectrum", "1,x", "--k", "1",
     "--out", "x.csv"],
    ["coder", *_DSS7, "--pattern", "a,b", "--trials", "10", "--out", "x.csv"],
    ["coder", *_DSS7, "--pattern", "1,9", "--trials", "10", "--out", "x.csv"],
    ["coder", *_DSS7, "--pattern", "1,1", "--trials", "10", "--out", "x.csv"],
    ["optimize", *_DSS7, "--verify", "--epsilons", "abc", "--out", "x.csv"],
    ["ie-hist", "--frame", "bl", "--n", "40", "--m", "30", "--k", "20",
     "--mode", "exhaustive", "--out", "x.csv"],
    ["mlie", "--frame", "bl", "--n", "40", "--m", "30", "--k", "20",
     "--mode", "exhaustive", "--out", "x.csv"],
    ["construct", "dss", "--p", "7", "--out", "nodir/x.frame"],
    ["ie-hist", "--frame", "dss", "--p", "inf", "--k", "2", "--out", "x.csv"],
    ["optimize", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5", "--seed", "-1",
     "--iters", "1", "--out", "x.csv"],
], ids=["sigma-x2", "spectrum", "pattern-text", "pattern-range", "pattern-repeat",
        "epsilons", "ie-hist-guard", "mlie-guard", "construct-out", "p-inf",
        "optimize-seed"])
def test_bad_input_exits_config(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [
    ["ie-hist", *_DSS7],
    ["mlie", *_DSS7],
    ["eig-hist", *_DSS7, "--trials", "3"],
    ["rate-loss", "--p", "0.2", "--sdr-grid", "0:10:10"],
    ["coder", *_DSS7, "--trials", "10"],
    ["optimize", *_DSS7, "--iters", "1"],
], ids=lambda argv: argv[0])
def test_missing_output_directory_exits_config(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "nodir" / "x.csv")]) == cli.EXIT_CONFIG
    assert "No such file or directory" in capsys.readouterr().err


def test_mlie_all_singular_is_numerical_failure(tmp_path):
    # seed 9 draws the one pattern (2, 6), whose rows coincide in the aliased
    # spectrum; ie-hist still reports it, mlie has no finite eta to average
    argv = ["--frame", "spectrum", "--n", "8", "--spectrum", "0,2,4,6", "--k", "2",
            "--mode", "monte_carlo", "--trials", "1", "--seed", "9", "--out"]
    assert cli.main(["ie-hist", *argv, str(tmp_path / "ie.csv")]) == cli.EXIT_OK
    assert _header_value(tmp_path / "ie.csv", "fraction_singular") == "1.0"
    assert cli.main(["mlie", *argv, str(tmp_path / "mlie.csv")]) == cli.EXIT_NUMERICAL


_FRAMES = [
    ["--frame", "bl", "--n", "13", "--m", "7"],
    ["--frame", "bl", "--n", "8", "--m", "8"],
    ["--frame", "iid", "--n", "16", "--m", "6", "--field", "complex"],
    ["--frame", "iid", "--n", "6", "--m", "4", "--frame-seed", "3"],
    ["--frame", "dss", "--p", "7"],
    ["--frame", "dss", "--p", "11"],
    ["--frame", "spectrum", "--n", "8", "--spectrum", "0,2,4,6"],
    ["--frame", "spectrum", "--n", "12", "--m", "4", "--spectrum", "random"],
    ["--frame", "paley", "--n", "14"],
]
_COMMON = {"--k": ["1", "2", "3", "4"], "--trials": ["1", "3"], "--seed": ["0", "9"],
           "--format": ["csv", "json"]}
_HIST = {**_COMMON, "--bins": ["1", "4"]}
_MODE = {"--mode": ["auto", "exhaustive", "monte_carlo"]}
_OPTIONS = {
    "ie-hist": {**_HIST, **_MODE},
    "mlie": {**_HIST, **_MODE},
    "eig-hist": _HIST,
    "coder": {**_COMMON, "--sigma-x2": ["1", "2"], "--sigma-q2": ["0", "0.5"],
              "--pattern": ["0,1", "2,0,1", "0,4"]},
    "optimize": {**_COMMON, "--budget": ["5", "40"], "--iters": ["0", "2"],
                 "--step": ["1e-2"], "--epsilons": ["1e-3", "1e-3,1e-2"],
                 "--pattern-mode": ["exhaustive", "mc"], "--save-frame": ["final.frame"]},
    "rate-loss": {"--p": ["0.2", "0.5"], "--sdr-grid": ["0:20:10"],
                  "--format": ["csv", "json"]},
    "construct": {},
}
_BAD_VALUES = ["-1", "0", "1.5", "inf", "x", "1,1", "1,9", "0:x:1", "20", "random",
               "nodir/out.csv", "other"]


@st.composite
def _argv(draw):
    """A command line of the option grammar at small sizes (n <= 16), with at
    most one fault: an option dropped or given a bad value."""
    sub = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [sub]
    if sub == "construct":
        frame = draw(st.sampled_from(_FRAMES))
        argv += [frame[1], *frame[2:]]
    elif sub != "rate-loss":
        argv += draw(st.sampled_from(_FRAMES))
    for name, values in _OPTIONS[sub].items():
        # the default trial counts and grid take seconds; only a fault drops them
        optional = name not in ("--trials", "--sdr-grid")
        value = draw(st.sampled_from([None, *values] if optional else values))
        if value is not None:
            argv += [name, value]
    if sub == "optimize" and draw(st.booleans()):
        argv.append("--verify")
    argv += ["--out", "out.frame" if sub == "construct" else "out.csv"]
    fault = draw(st.sampled_from(["none", "drop", "value"]))
    options = [i for i, tok in enumerate(argv) if tok.startswith("--")
               and i + 1 < len(argv) and not argv[i + 1].startswith("--")]
    if fault != "none" and options:
        i = draw(st.sampled_from(options))
        if fault == "drop":
            del argv[i:i + 2]
        else:
            argv[i + 1] = draw(st.sampled_from(_BAD_VALUES))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_cli_exits_cleanly_on_any_argv(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        finally:
            os.chdir(cwd)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), argv
