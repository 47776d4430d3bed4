"""CLI behavior: exit codes, reproducible data products, and file formats."""

import contextlib
import io
import json
import math
import os
import tempfile
import time

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


_RANDOM_SPECTRUM = ["ie-hist", "--frame", "spectrum", "--spectrum", "random",
                    "--n", "8"]


@pytest.mark.parametrize("m", ["9", "0", "-1"])
def test_random_spectrum_needs_m_within_n(tmp_path, capsys, m):
    argv = [*_RANDOM_SPECTRUM, "--m", m, "--k", "1", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--spectrum random needs 1 <= m <= n" in capsys.readouterr().err


def test_random_spectrum_reproducible_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [*_RANDOM_SPECTRUM, "--m", "4", "--k", "2", "--spectrum-seed", "5", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    assert _lines_without_timestamp(a) == _lines_without_timestamp(b)
    assert _header_value(a, "spectrum_seed") == "5"


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
    zoom = spectral.eigen_histogram(f, 10, trials=7, bins=100, seed=4).rebin((0.0, 0.2))
    rows = [ln.strip().split(",") for ln in _rows(tmp_path / "eig_zoom.csv")][1:]
    assert [float(r[1]) for r in rows] == zoom.density.tolist()
    for key in ("min_eigenvalue", "max_eigenvalue"):
        assert _header_value(out, key) == _header_value(tmp_path / "eig_zoom.csv", key)


@pytest.mark.parametrize("path, zoom", [
    ("eig.csv", "eig_zoom.csv"),
    ("eig", "eig_zoom"),
    ("a.b/eig", "a.b/eig_zoom"),
])
def test_zoom_path_splits_only_the_file_name(path, zoom):
    assert cli.zoom_path(path) == zoom


def test_eig_hist_out_without_extension(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["eig-hist", "--frame", "dss", "--p", "7", "--k", "2",
                   "--trials", "3", "--out", "./eig"])
    assert rc == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eig", "eig_zoom"]
    assert _header_value(tmp_path / "eig_zoom", "value_hi") == "0.2"


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


@pytest.mark.parametrize("option, argv", [
    ("--spectrum-seed", ["ie-hist", "--frame", "spectrum", "--n", "8", "--spectrum", "random",
                         "--m", "2", "--k", "1", "--spectrum-seed=-1"]),
    ("--frame-seed", ["ie-hist", "--frame", "iid", "--n", "8", "--m", "2", "--k", "1",
                      "--frame-seed=-1"]),
    ("--seed", ["optimize", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5",
                "--seed", "-1", "--iters", "1"]),
    ("--seed", ["ie-hist", "--frame", "bl", "--n", "13", "--m", "7", "--k", "5",
                "--seed", "-1"]),  # exhaustive: the seed is never used, still refused
], ids=["spectrum-seed", "frame-seed", "optimize-seed", "ie-hist-exhaustive-seed"])
def test_negative_seed_names_the_option(tmp_path, capsys, option, argv):
    # numpy's generators refuse a negative seed without naming the option;
    # argparse refuses it first, with the option's name and no traceback
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be at least 0, got -1" in err
    assert "Traceback" not in err
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
    ["construct", "dss", "--p", "7", "--frame", "iid", "--n", "3"],
], ids=["coder-bins", "optimize-bins", "construct-format", "construct-frame"])
def test_options_nothing_reads_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _law_outputs(tmp_path, frame_args):
    """ie-hist and eig-hist outputs for one frame."""
    ie, eig = tmp_path / "ie.csv", tmp_path / "eig.csv"
    for sub, out in (("ie-hist", ie), ("eig-hist", eig)):
        assert cli.main([sub, *frame_args, "--trials", "5", "--out", str(out)]) == cli.EXIT_OK
    return ie, eig


def test_paley_frames_get_the_manova_law(tmp_path):
    # m/k = 19/12 lies inside the MANOVA domain m/k <= n/m = 2
    ie, eig = _law_outputs(tmp_path, ["--frame", "paley", "--n", "38", "--k", "12"])
    assert _header_value(ie, "manova_limit") == repr(spectral.manova_eta_limit(19 / 12, 0.5))
    assert _header_value(ie, "iid_limit") == repr(spectral.mp_eta_limit(19 / 12))
    assert _header_value(eig, "reference") == "manova"
    assert any(float(r.split(",")[2]) > 0.0 for r in _rows(eig)[1:])


def test_bandlimited_frames_have_no_law(tmp_path):
    # a band-limited frame's eta reaches no finite limit, so none is quoted
    ie, eig = _law_outputs(tmp_path, ["--frame", "bl", "--n", "13", "--m", "7", "--k", "5"])
    with pytest.raises(KeyError):
        _header_value(ie, "manova_limit")
    assert _header_value(ie, "iid_limit") == repr(spectral.mp_eta_limit(7 / 5))
    assert _header_value(eig, "reference") == "none"
    assert all(r.strip().split(",")[2] == "0.0" for r in _rows(eig)[1:])


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


def test_rate_loss_takes_a_p_whose_top_grid_point_rounds_above_one_over_p(tmp_path):
    # at p = 0.03 the beta grid's last point rounds to just above 1/p
    out = tmp_path / "loss.csv"
    assert cli.main(["rate-loss", "--p", "0.03", "--sdr-grid", "0:20:10",
                     "--out", str(out)]) == cli.EXIT_OK
    betas = [float(row.split(",")[2]) for row in _rows(out)[1:]]
    assert len(betas) == 3 and all(1.0 < b <= 1.0 / 0.03 for b in betas)


@pytest.mark.parametrize("spec", ["3090:3090:1", "3080:3090:5", "0:4000:1000",
                                  "3082.5000001:3082.6:1"])
def test_rate_loss_refuses_a_grid_that_overflows_gamma(tmp_path, capsys, spec):
    # gamma = 10^(dB/10) overflows a double just above 3082.5 dB, the
    # largest point a grid may hold; it is refused before any point is
    # computed or the output is opened
    out = tmp_path / "x.csv"
    assert cli.main(["rate-loss", "--p", "0.2", "--sdr-grid", spec,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "lies above 3082.5" in err
    assert not out.exists()


def test_rate_loss_keeps_the_largest_grid_points_that_fit(tmp_path):
    out = tmp_path / "loss.csv"
    assert cli.main(["rate-loss", "--p", "0.2", "--sdr-grid", "3000:3000:1",
                     "--out", str(out)]) == cli.EXIT_OK
    assert _rows(out)[1] == ("3000.0,1e+300,1.0014361217690562,1.088837634804952,"
                             "0.7219280948873623,0.9432073163195602,0.3669095399175897\n")
    # 3082.5 dB, the largest point a grid may hold, still has a finite gamma
    assert 1.7e308 < cli.rd.gamma_from_db(3082.5) < math.inf
    assert cli.parse_grid("3082:3082.5:0.5") == [3082.0, 3082.5]


def test_rate_loss_past_the_eta_gamma_overflow_continues_the_trend(tmp_path):
    # at 3080 dB eta * gamma overflows on part of the beta range; the point
    # stays finite, warns nothing (the suite turns warnings into errors) and
    # rises by about as much as from 3000 to 3040 dB
    out = tmp_path / "loss.csv"
    assert cli.main(["rate-loss", "--p", "0.2", "--sdr-grid", "3000:3080:40",
                     "--out", str(out)]) == cli.EXIT_OK
    deltas = [float(row.split(",")[3]) for row in _rows(out)[1:]]
    assert len(deltas) == 3 and all(math.isfinite(d) for d in deltas)
    assert deltas[0] == 1.088837634804952 and deltas[1] == 1.0907333797948469
    rise, last_rise = deltas[1] - deltas[0], deltas[2] - deltas[1]
    assert 0.0 < last_rise and abs(last_rise - rise) < 0.1 * rise, deltas


def test_out_of_memory_exits_config(tmp_path, monkeypatch, capsys):
    # construct dss --p 1000003 asks numpy for a 1000003 x 500001 complex
    # array (7.28 TiB); the builder raises as numpy would, allocating nothing
    def fail(p):
        raise MemoryError(f"Unable to allocate 7.28 TiB for the dss frame of p={p}")

    monkeypatch.setattr(cli.frames, "build_dss", fail)
    out = tmp_path / "x.frame"
    assert cli.main(["construct", "dss", "--p", "1000003", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: Unable to allocate 7.28 TiB for the dss frame of p=1000003\n")
    assert not out.exists()


@pytest.mark.parametrize("family, argv, size", [
    ("dss", ["--p", "10000019"], "728. TiB"),
    ("paley", ["--n", "10000122"], "364. TiB"),  # q = 10000121, a prime = 1 mod 4
])
def test_huge_structured_frame_is_refused_before_its_residues(tmp_path, monkeypatch,
                                                              capsys, family, argv, size):
    # the n x m buffer is asked for right after the prime checks, so numpy's
    # refusal comes before the O(p) residue set, its check and the spectrum
    calls = []
    monkeypatch.setattr(frames, "_quadratic_residues", lambda *args: calls.append(args))
    out = tmp_path / "big.frame"
    assert cli.main(["construct", family, *argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"config error: Unable to allocate {size}"), err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0:inf:1", "nan:3:1", "0:3:nan", "-inf:3:1", "0:3:inf"])
def test_parse_grid_refuses_non_finite(spec):
    # an unbounded grid (0:inf:1, -inf:3:1) would grow until memory runs out
    with pytest.raises(cli.ConfigError, match="finite"):
        cli.parse_grid(spec)


def test_parse_grid_bounds_the_point_count():
    # the count comes from lo, hi and step before any point is built
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError, match="more than 1000000 points"):
        cli.parse_grid("0:1e6:1")  # 1,000,001 points
    assert time.perf_counter() - start < 0.1
    with pytest.raises(cli.ConfigError, match="more than 1000000 points"):
        cli.parse_grid("0:1e9:1")
    assert len(cli.parse_grid("0:300:1")) == 301


@pytest.mark.parametrize("spec", ["1e20:1e20:1", "-1e300:1e300:1"])
def test_parse_grid_refuses_a_step_below_the_bounds_resolution(spec):
    # v += step would leave v where it is, and the grid would never reach hi
    with pytest.raises(cli.ConfigError, match="vanishes"):
        cli.parse_grid(spec)


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


def test_optimize_verify_rank_deficient_start_is_numerical_failure(tmp_path, capsys):
    # once an inf base MLIE passed as a local minimum with inf decreases
    rc = cli.main(["optimize", "--frame", "spectrum", "--n", "8",
                   "--spectrum", "0,2,4,6", "--k", "2", "--verify", "--trials", "5",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_NUMERICAL
    assert "rank deficient" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_any_linalg_error_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # main alone maps LinAlgError, a ValueError subclass, to exit 3
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(cli.patterns, "ie_statistics", fail)
    assert cli.main(["ie-hist", *_DSS7, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: no convergence\n"


def test_eigen_failure_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # a nonzero evd info raises LinAlgError, as eigh's non-convergence did
    monkeypatch.setitem(spectral.routines(np.dtype(float)), "evd",
                        lambda g, *flags: (g.diagonal().real, None, 1))
    out = tmp_path / "x.csv"
    rc = cli.main(["eig-hist", "--frame", "iid", "--n", "12", "--m", "6", "--k", "4",
                   "--trials", "3", "--out", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: evd failed with info=1\n"
    assert not out.exists()


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


def test_optimize_verify_huge_epsilon_stays_finite(tmp_path):
    # at epsilon 1e300 the perturbed rows' norms overflow; the projection
    # still gives the tangent directions, so the verdict is the one every
    # epsilon far past the rows' size gives, with no warning
    verdicts = []
    for eps in ("1e200", "1e300"):
        out = tmp_path / f"verify{eps}.csv"
        assert cli.main(["optimize", "--verify", "--epsilons", eps, "--frame", "bl", "--n", "9",
                         "--m", "3", "--k", "3", "--out", str(out)]) == 0
        verdicts.append(_rows(out)[1].strip().split(","))
    (_, _, frac_200, dec_200), (_, _, frac_300, dec_300) = verdicts
    assert frac_300 == frac_200
    assert float(dec_300) == pytest.approx(float(dec_200), abs=1e-12)


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
    ["coder", *_DSS7, "--sigma-x2", "nan", "--trials", "10", "--out", "x.csv"],
    ["coder", *_DSS7, "--sigma-q2", "inf", "--trials", "10", "--out", "x.csv"],
    ["optimize", *_DSS7, "--step", "nan", "--out", "x.csv"],
    ["optimize", *_DSS7, "--step", "inf", "--out", "x.csv"],
    ["optimize", *_DSS7, "--step", "-1", "--out", "x.csv"],
    ["optimize", *_DSS7, "--iters", "-2", "--out", "x.csv"],
    ["optimize", *_DSS7, "--verify", "--epsilons", "nan", "--out", "x.csv"],
    ["optimize", *_DSS7, "--verify", "--epsilons=-1e-3", "--out", "x.csv"],
], ids=["sigma-x2", "spectrum", "pattern-text", "pattern-range", "pattern-repeat",
        "epsilons", "ie-hist-guard", "mlie-guard", "construct-out", "p-inf",
        "sigma-x2-nan", "sigma-q2-inf", "step-nan", "step-inf",
        "step-negative", "iters-negative", "epsilons-nan", "epsilons-negative"])
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


@pytest.mark.parametrize("argv, dest, mode", [
    (["ie-hist", "--mode", "monte_carlo"], "mode", "sampled"),
    (["mlie", "--mode", "monte_carlo"], "mode", "sampled"),
    (["mlie", "--mode", "exhaustive"], "mode", "exhaustive"),
    (["ie-hist"], "mode", "auto"),
    (["optimize", "--pattern-mode", "mc"], "pattern_mode", "sampled"),
    (["optimize"], "pattern_mode", "exhaustive"),
], ids=["ie-hist-monte_carlo", "mlie-monte_carlo", "mlie-exhaustive", "ie-hist-default",
        "optimize-mc", "optimize-default"])
def test_cli_spellings_map_to_the_library_modes(argv, dest, mode):
    # the header still writes mode=monte_carlo (see the sampled goldens)
    assert getattr(cli.build_parser().parse_args(argv + ["--out", "x.csv"]), dest) == mode


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
_BAD_VALUES = ["-1", "0", "1.5", "inf", "-inf", "nan", "x", "1,1", "1,9", "0:x:1", "20",
               "random", "nodir/out.csv", "other"]


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
