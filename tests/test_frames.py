import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from framelab import frames, spectral


def test_bandlimited_single_column_is_constant():
    f = frames.build_bandlimited_dft(4, 1)
    assert np.allclose(f.data, 1.0)
    assert np.allclose(np.linalg.norm(f.data, axis=1), 1.0)


def test_full_dft_is_unitary():
    f = frames.build_bandlimited_dft(8, 8)
    gram = f.data @ f.data.conj().T
    assert np.abs(gram - np.eye(8)).max() < 1e-12


def test_bandlimited_rows_unit_norm():
    f = frames.build_bandlimited_dft(101, 50)
    assert np.abs(np.linalg.norm(f.data, axis=1) - 1.0).max() < 1e-12


def test_bandlimited_rejects_m_above_n():
    with pytest.raises(frames.FrameError):
        frames.build_bandlimited_dft(4, 5)


def test_dft_spectrum_consecutive_matches_bandlimited():
    a = frames.build_dft_spectrum(8, {0, 1, 2})
    b = frames.build_bandlimited_dft(8, 3)
    assert np.array_equal(a.data, b.data)


def test_dft_spectrum_validation():
    with pytest.raises(frames.FrameError):
        frames.build_dft_spectrum(8, [0, 0, 1])
    with pytest.raises(frames.FrameError):
        frames.build_dft_spectrum(8, [0, 8])
    with pytest.raises(frames.FrameError, match="m=0"):
        frames.build_dft_spectrum(8, [])


def test_random_iid_row_norms_near_one():
    f = frames.build_random_iid(1000, 500, seed=1)
    mean_sq = float(np.mean(np.linalg.norm(f.data, axis=1) ** 2))
    assert abs(mean_sq - 1.0) < 0.01


def test_random_iid_deterministic():
    a = frames.build_random_iid(50, 20, seed=1)
    b = frames.build_random_iid(50, 20, seed=1)
    assert np.array_equal(a.data, b.data)
    c = frames.build_random_iid(50, 20, seed=2)
    assert not np.array_equal(a.data, c.data)


def test_random_iid_complex_variance():
    f = frames.build_random_iid(2000, 100, field="complex", seed=3)
    # entry variance 1/m, split evenly between parts
    assert abs(np.var(f.data.real) - 1 / 200) < 5e-4
    assert abs(np.var(f.data.imag) - 1 / 200) < 5e-4


def test_quadratic_difference_set_p7():
    ds = frames.quadratic_difference_set(7)
    assert ds.elements == (1, 2, 4)
    assert (ds.n, ds.m, ds.lam) == (7, 3, 1)
    counts = ds.difference_counts()
    assert list(counts[1:]) == [1] * 6


def test_quadratic_difference_set_p11():
    ds = frames.quadratic_difference_set(11)
    assert ds.elements == (1, 3, 4, 5, 9)
    assert ds.lam == 2


def test_quadratic_difference_set_p947():
    ds = frames.quadratic_difference_set(947)
    assert (ds.m, ds.lam) == (473, 236)
    assert ds.lam * (ds.n - 1) == ds.m * (ds.m - 1)


def _pairwise_counts(elements, n):
    e = np.array(elements)
    return np.bincount(((e[:, None] - e[None, :]) % n).ravel(), minlength=n)


def test_difference_counts_match_pairwise_for_every_qr_prime():
    primes = [p for p in range(3, 2000, 4) if frames._is_prime(p)]
    assert len(primes) == 155 and primes[-1] == 1999
    for p in primes:
        ds = frames.quadratic_difference_set(p)
        counts = ds.difference_counts()
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _pairwise_counts(ds.elements, p))


@pytest.mark.parametrize("n, elements", [
    (7, (0, 1, 2)),
    (13, (1, 3, 4, 9, 10, 12)),  # the quadratic residues mod 13 = 1 (mod 4)
    (13, (0, 1, 2, 3)),
    (10, (0, 0, 3, 17, -4)),  # repeats and residues outside [0, n)
])
def test_difference_counts_match_pairwise_off_difference_sets(n, elements):
    # not difference sets, so no DifferenceSet holds them; the method reads
    # only n and elements
    counts = frames.DifferenceSet.difference_counts(SimpleNamespace(n=n, elements=elements))
    assert np.array_equal(counts, _pairwise_counts(elements, n))


@pytest.mark.parametrize("n, m, lam, elements", [
    (7, 3, 1, (0, 1, 2)),
    (13, 4, 1, (0, 1, 2, 3)),
])
def test_difference_set_rejects_unequal_counts(n, m, lam, elements):
    assert lam * (n - 1) == m * (m - 1)  # the lambda identity holds
    with pytest.raises(frames.FrameError, match="not a difference set"):
        frames.DifferenceSet(n=n, m=m, lam=lam, elements=elements)


def test_quadratic_difference_set_rejects_bad_p():
    with pytest.raises(frames.FrameError, match="prime"):
        frames.quadratic_difference_set(9)
    with pytest.raises(frames.FrameError, match="3 mod 4"):
        frames.quadratic_difference_set(13)


def test_dss_equals_spectrum_frame():
    a = frames.build_dss(7)
    b = frames.build_dft_spectrum(7, [1, 2, 4])
    assert np.array_equal(a.data, b.data)
    assert a.kind == "dss"


def test_paley_etf_n6():
    f = frames.build_paley_etf(6)
    assert (f.n, f.m, f.field) == (6, 3, "real")
    rep = frames.verify_etf(f)
    assert rep.is_tight and rep.is_equiangular
    assert abs(rep.welch_bound - np.sqrt(3 / 15)) < 1e-15
    assert rep.max_welch_deviation < 1e-10


def test_paley_etf_n14_tight():
    f = frames.build_paley_etf(14)
    gram_cols = f.data.T @ f.data
    assert np.abs(gram_cols - 2.0 * np.eye(7)).max() < 1e-10


def test_paley_gram_structure():
    f = frames.build_paley_etf(14)
    gram = f.data @ f.data.T
    assert np.abs(np.diag(gram) - 1.0).max() < 1e-10
    off = np.abs(gram[~np.eye(14, dtype=bool)])
    assert off.max() - off.min() < 1e-10


def test_paley_rejects_unsupported_orders():
    with pytest.raises(frames.FrameError):
        frames.build_paley_etf(10)  # q=9 not prime
    with pytest.raises(frames.FrameError):
        frames.build_paley_etf(8)  # q=7 is 3 mod 4


def test_conference_matrix_identity():
    c = frames.conference_matrix(14)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 0)
    assert np.abs(c @ c.T - 13 * np.eye(14)).max() == 0


def test_verify_etf_dss7():
    rep = frames.verify_etf(frames.build_dss(7))
    assert rep.is_tight and rep.is_equiangular
    assert abs(rep.welch_bound - np.sqrt(4 / 18)) < 1e-15


def test_verify_etf_bandlimited_tight_not_equiangular():
    rep = frames.verify_etf(frames.build_bandlimited_dft(8, 3))
    assert rep.is_tight
    assert not rep.is_equiangular


def test_verify_etf_random_not_tight():
    f = frames.build_random_iid(12, 6, seed=0)
    norm = frames.Frame(f.data / np.linalg.norm(f.data, axis=1, keepdims=True))
    rep = frames.verify_etf(norm, tol=1e-6)
    assert not rep.is_tight


def test_full_spark_unitary():
    f = frames.build_bandlimited_dft(5, 5)
    [(_, smin, flagged)] = frames.full_spark_check(f, [tuple(range(5))])
    assert abs(smin - 1.0) < 1e-12 and not flagged


def test_full_spark_dss7_all_k3():
    from itertools import combinations

    f = frames.build_dss(7)
    out = frames.full_spark_check(f, combinations(range(7), 3))
    assert len(out) == 35
    assert all(smin > 1e-6 for _, smin, _ in out)
    assert not any(flag for _, _, flag in out)


def test_full_spark_detects_aliasing():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    [(_, smin, flagged)] = frames.full_spark_check(f, [(0, 2, 4, 6)])
    assert flagged and smin < 1e-12


def test_full_spark_flags_what_inverse_energy_calls_singular():
    # sigma_min is about 7e-9: above a 1e-10 sigma ratio, but its square is
    # under the 1e-12 eigenvalue ratio at which inverse_energy gives inf
    e = 1e-8
    c = math.sqrt(1.0 - e * e) / math.sqrt(2.0)
    f = frames.Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [c, c, e]]))
    [(_, smin, flagged)] = frames.full_spark_check(f, [(0, 1, 2)])
    assert 1e-9 < smin < 1e-8
    assert flagged
    assert spectral.inverse_energy(f, (0, 1, 2)) == math.inf


def test_frame_rejects_non_unit_rows():
    with pytest.raises(frames.FrameError, match="unit norm"):
        frames.Frame(np.ones((3, 2)))
    a = frames.build_dss(7).data.copy()
    a[4] *= 2.0
    a[5] *= 1.5
    with pytest.raises(frames.FrameError,
                       match=re.escape("rows must be unit norm (max deviation 1.00e+00)")):
        frames.Frame(a)


@pytest.mark.parametrize("kind", ["custom", "random_iid", "dss"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_rejects_non_finite_data(kind, bad):
    message = re.escape("frame data must be finite (no nan or inf)")
    a = frames.build_random_iid(6, 3, seed=0).data.copy()
    b = a.astype(complex)
    b[4, 0] = complex(b[4, 0].real, bad)  # only the imaginary part
    a[2, 1] = bad
    with pytest.raises(frames.FrameError, match=message):
        frames.Frame(a, kind=kind)
    with pytest.raises(frames.FrameError, match=message):
        frames.Frame(a.astype(complex), kind=kind)
    with pytest.raises(frames.FrameError, match=message):
        frames.Frame(b, kind=kind)


def _row_check_verdict(a):
    """What the unit-row gate has always said: numpy's row norm, in the
    data's own precision (float64 for integer data)."""
    bad = np.abs(np.linalg.norm(a, axis=1) - 1.0).max()
    return f"rows must be unit norm (max deviation {bad:.2e})" if bad > 1e-9 else None


def _frame_verdict(a):
    try:
        f = frames.Frame(a)
    except frames.FrameError as e:
        return str(e)
    assert f.data.dtype == a.dtype and np.array_equal(f.data, a)
    return None


@pytest.mark.parametrize("a, accepted", [
    (np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1], [1, 0, 0]]), True),
    (np.eye(3, dtype=np.int8) * 2, False),
    (np.array([[2 ** 32, 1], [1, 0], [0, 1]]), False),  # squares wrap in int64
    (frames.build_bandlimited_dft(8, 4).data.astype(np.complex64), True),
    (frames.build_bandlimited_dft(31, 24).data.astype(np.complex64), True),
    (frames.build_dss(7).data.astype(np.complex64), False),
    (frames.build_paley_etf(38).data.astype(np.float32), False),
    (np.asfortranarray(frames.build_dss(11).data), True),
])
def test_frame_row_check_other_dtypes(a, accepted):
    assert (_row_check_verdict(a) is None) == accepted
    assert _frame_verdict(a) == _row_check_verdict(a)


def test_frame_row_check_complex64_family():
    # float32 rounding decides these verdicts (some bl frames land on
    # exactly 1.0); the gate must keep deciding them as numpy's norm does
    verdicts = set()
    for n in range(2, 40):
        for m in range(1, n + 1, 3):
            a = frames.build_bandlimited_dft(n, m).data.astype(np.complex64)
            expected = _row_check_verdict(a)
            verdicts.add(expected is None)
            assert _frame_verdict(a) == expected
    assert verdicts == {True, False}


def test_dft_entries_are_roots_of_unity():
    # entries are exactly the n-th roots of unity at t f mod n, scaled
    n, spec = 13, (1, 4, 12)
    f = frames.build_dft_spectrum(n, spec)
    t = np.arange(n)[:, None]
    reference = np.exp(2j * np.pi * ((t * np.array(spec)) % n) / n) / np.sqrt(len(spec))
    assert np.array_equal(f.data, reference)
    assert np.abs(f.data - np.exp(2j * np.pi * t * np.array(spec) / n)
                  / np.sqrt(len(spec))).max() < 1e-14


def test_dss947_certifies_to_rounding():
    report = frames.verify_etf(frames.build_dss(947))
    assert report.is_tight and report.is_equiangular
    assert report.max_welch_deviation < 1e-15
    assert report.tightness_error < 1e-14


def test_frame_data_immutable():
    f = frames.build_bandlimited_dft(6, 3)
    with pytest.raises(ValueError):
        f.data[0, 0] = 0.0


def test_roundtrip_real_exact(tmp_path):
    f = frames.build_paley_etf(6)
    path = tmp_path / "paley.frame"
    frames.save_frame(f, path)
    g = frames.load_frame(path)
    assert np.array_equal(f.data, g.data)
    assert g.kind == "paley_etf"


def test_roundtrip_complex(tmp_path):
    f = frames.build_dss(11)
    path = tmp_path / "dss.frame"
    frames.save_frame(f, path)
    g = frames.load_frame(path)
    assert np.abs(f.data - g.data).max() < 1e-15
    assert g.spectrum == f.spectrum


def test_roundtrip_iid_preserves_seed(tmp_path):
    f = frames.build_random_iid(10, 5, seed=7)
    path = tmp_path / "iid.frame"
    frames.save_frame(f, path)
    g = frames.load_frame(path)
    assert g.seed == 7 and g.kind == "random_iid"
    assert np.array_equal(f.data, g.data)


@pytest.mark.parametrize("key, value, message", [
    ("n", 7, "n=7 m=5 field=complex wants 7 rows of 10 values, the file holds 11 of 10"),
    ("m", 4, "n=11 m=4 field=complex wants 11 rows of 8 values, the file holds 11 of 10"),
    ("field", "real", "n=11 m=5 field=real wants 11 rows of 5 values, the file holds 11 of 10"),
    ("field", "quaternion", "unknown field 'quaternion'"),
])
def test_load_frame_checks_header_against_array(tmp_path, key, value, message):
    path = tmp_path / "dss.frame"
    frames.save_frame(frames.build_dss(11), path)
    header, body = path.read_text().split("\n", 1)
    fields = json.loads(header)
    fields[key] = value
    path.write_text(json.dumps(fields) + "\n" + body)
    with pytest.raises(frames.FrameError, match=re.escape(message)):
        frames.load_frame(path)
