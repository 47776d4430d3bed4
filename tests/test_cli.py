"""CLI behavior: exit codes, reproducible data products, and file formats."""

import json

import numpy as np
import pytest

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
    rows = [ln for ln in open(out) if not ln.startswith("#")]
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
    rows = [ln.strip().split(",") for ln in open(tmp_path / "eig_zoom.csv")
            if not ln.startswith("#")][1:]
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
    rows = [ln for ln in open(out) if not ln.startswith("#")]
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
    rows = dict(ln.strip().split(",") for ln in open(out)
                if not ln.startswith("#") and "," in ln)
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
    rows = [ln for ln in open(out) if not ln.startswith("#")]
    assert rows[1].startswith("0,")  # trajectory starts at iteration 0


def test_optimize_verify_mode(tmp_path):
    out = tmp_path / "verify.csv"
    rc = cli.main(["optimize", "--frame", "dss", "--p", "7", "--k", "2",
                   "--verify", "--epsilons", "1e-3", "--trials", "20",
                   "--out", str(out)])
    assert rc == 0
    rows = [ln for ln in open(out) if not ln.startswith("#")]
    assert rows[0].strip() == "epsilon,trials,fraction_decreased,max_decrease_bits"
    eps, trials, frac, _ = rows[1].strip().split(",")
    assert trials == "20" and float(frac) == 0.0


def test_json_format(tmp_path):
    out = tmp_path / "loss.json"
    rc = cli.main(["rate-loss", "--p", "0.2", "--sdr-grid", "10:20:10",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["subcommand"] == "rate-loss"
    assert payload["columns"][0] == "sdr_db"
    assert len(payload["rows"]) == 2
