import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from framelab import frames, patterns, spectral


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


@pytest.mark.parametrize("n", [6, 14, 38, 998])
def test_paley_gram_structure(n):
    # G = I + C/sqrt(q) for the independent conference matrix, and A'A = 2I
    f = frames.build_paley_etf(n)
    c = frames.conference_matrix(n)
    assert np.abs(f.data @ f.data.T - (np.eye(n) + c / np.sqrt(n - 1))).max() < 1e-14
    assert np.abs(f.data.T @ f.data - 2.0 * np.eye(n // 2)).max() < 1e-12
    rep = frames.verify_etf(f)
    assert rep.is_tight and rep.is_equiangular


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


@pytest.mark.parametrize("q, r", [(7, 3), (13, 1), (31, 3), (101, 1), (947, 3)])
def test_legendre_symbol_is_eulers_criterion(q, r):
    chi = frames.legendre_symbol(q, r)
    assert chi.tolist() == [0.0] + [1.0 if pow(x, (q - 1) // 2, q) == 1 else -1.0
                                    for x in range(1, q)]
    with pytest.raises(frames.FrameError, match="mod 4"):
        frames.legendre_symbol(q, 4 - r)


@pytest.mark.parametrize("p", [7, 31, 47])
def test_dss_gram_is_the_gauss_sum_structure(p):
    # the structure `spectral.dss_eta` reads eta off: with m = (p - 1) / 2,
    # A A' = (pI - J + i sqrt(p) Q) / (2m) for Q[a, b] = chi(a - b)
    f = frames.build_dss(p)
    t = np.arange(p)
    q = frames.legendre_symbol(p, 3)[(t[:, None] - t[None, :]) % p]
    want = (p * np.eye(p) - 1.0 + 1j * np.sqrt(p) * q) / (2 * f.m)
    assert np.abs(f.data @ f.data.conj().T - want).max() < 1e-14


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


def test_frame_rejects_non_unit_rows():
    with pytest.raises(frames.FrameError, match="unit norm"):
        frames.Frame(np.ones((3, 2)))
    a = frames.build_dss(7).data.copy()
    a[4] *= 2.0
    a[5] *= 1.5
    with pytest.raises(frames.FrameError,
                       match=re.escape("rows must be unit norm (max deviation 1.00e+00)")):
        frames.Frame(a)


@pytest.mark.parametrize("make, message", [
    (lambda: frames.Frame(np.ones(4)), "frame data must be a 2-d matrix"),
    (lambda: frames.Frame(np.eye(3)[:2]), "need n >= m >= 1, got n=2, m=3"),
    (lambda: frames.Frame(np.eye(3), spectrum=(0, 0, 1)),
     "spectrum must be m distinct indices in [0, n)"),
    (lambda: frames.Frame(np.eye(3), spectrum=(0, 1, 3)),
     "spectrum must be m distinct indices in [0, n)"),
    (lambda: frames.build_random_iid(3, 4), "m=4 exceeds n=3"),
    (lambda: frames.build_random_iid(4, 2, field="quaternion"), "unknown field 'quaternion'"),
    (lambda: frames.DifferenceSet(n=7, m=3, lam=2, elements=(1, 2, 4)),
     "lam*(n-1) != m*(m-1)"),
], ids=["1-d", "n-below-m", "spectrum-repeat", "spectrum-out-of-range", "iid-m-above-n",
        "iid-field", "difference-set-identity"])
def test_frame_constructors_refuse_malformed_input(make, message):
    with pytest.raises(frames.FrameError, match=re.escape(message)):
        make()


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


@pytest.mark.parametrize("kind", ["custom", "dss", "paley_etf"])
def test_frame_rejects_finite_rows_whose_squares_overflow(kind):
    # every entry is finite, so the finiteness message would be wrong; the
    # row's sum of squares overflows, and no warning rises from it
    a = frames.build_dss(7).data.copy()
    a[3] = 1e200
    for b in (a, a.real.copy()):
        with pytest.raises(frames.FrameError,
                           match=re.escape("rows must be unit norm (max deviation inf)")):
            frames.Frame(b, kind=kind)


def _row_check_verdict(a):
    """The unit-row gate's verdict: the float64 row norm of the data cast to
    float64 (complex128 when complex)."""
    x = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    bad = np.abs(np.linalg.norm(x, axis=1) - 1.0).max()
    return f"rows must be unit norm (max deviation {bad:.2e})" if bad > 1e-9 else None


def _frame_verdict(a):
    try:
        f = frames.Frame(a)
    except frames.FrameError as e:
        return str(e)
    assert f.data.dtype == (np.complex128 if np.iscomplexobj(a) else np.float64)
    assert np.array_equal(f.data, a.astype(f.data.dtype))
    return None


@pytest.mark.parametrize("a, accepted", [
    (np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1], [1, 0, 0]]), True),  # int64, kept as float64
    (np.eye(3, dtype=np.int8) * 2, False),
    (np.array([[2 ** 32, 1], [1, 0], [0, 1]]), False),  # squares wrap in int64
    (frames.build_bandlimited_dft(8, 4).data.astype(np.complex64), False),
    (frames.build_bandlimited_dft(31, 24).data.astype(np.complex64), False),
    (frames.build_dss(7).data.astype(np.complex64), False),
    (frames.build_paley_etf(38).data.astype(np.float32), False),
    (np.asfortranarray(frames.build_dss(11).data), True),
    # unit in complex64's own norm, 9.0e-9 off in double, where its etas fall below k/m
    (frames.build_bandlimited_dft(59, 59).data.astype(np.complex64), False),
])
def test_frame_row_check_other_dtypes(a, accepted):
    assert (_row_check_verdict(a) is None) == accepted
    assert _frame_verdict(a) == _row_check_verdict(a)


def test_frame_row_check_complex64_family():
    # complex64 rounding of the entries decides these verdicts in double
    # (bl frames with exact entries, such as bl4/4, still pass)
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


_C_ORDER_BUILDS = {
    "bandlimited": lambda: frames.build_bandlimited_dft(13, 7),
    "iid_real": lambda: frames.build_random_iid(13, 7, seed=2),
    "iid_complex": lambda: frames.build_random_iid(13, 7, field="complex", seed=2),
    "dft_spectrum": lambda: frames.build_dft_spectrum(13, [0, 2, 3, 7, 11]),
    "dss": lambda: frames.build_dss(31),
    "paley38": lambda: frames.build_paley_etf(38),
    "paley998": lambda: frames.build_paley_etf(998),
}


@pytest.mark.parametrize("label", sorted(_C_ORDER_BUILDS))
def test_frames_store_c_ordered_rows(label, tmp_path):
    # a frame stored in Fortran order made every canonical-order pass copy it
    f = _C_ORDER_BUILDS[label]()
    assert not f.data.flags.writeable and f.data.base is None
    path = tmp_path / "f.frame"
    frames.save_frame(f, path)
    fortran = frames.Frame(np.asfortranarray(f.data), kind=f.kind, spectrum=f.spectrum,
                           seed=f.seed)
    pats = patterns.pattern_set(f.n, 5, "sampled", 10, seed=1)[0]
    etas = [spectral.inverse_energy(f, s) for s in pats]
    for g in (f, frames.load_frame(path), fortran):
        assert g.data.flags.c_contiguous
        assert np.array_equal(g.data, f.data)
        assert [spectral.inverse_energy(g, s) for s in pats] == etas


def test_frame_copies_writeable_input():
    a = np.array(frames.build_dss(7).data)
    f = frames.Frame(a)
    kept = f.data.copy()
    a[0, 0] = 0.5
    assert f.data is not a and f.data.base is None
    assert np.array_equal(f.data, kept)


def test_frame_copies_read_only_view_of_writeable_base():
    base = np.array(frames.build_dss(7).data)
    view = base[:]
    view.setflags(write=False)
    f = frames.Frame(view)
    kept = f.data.copy()
    base[0, 0] = 0.5
    assert f.data.base is None
    assert np.array_equal(f.data, kept)


def test_frame_keeps_frozen_owned_input():
    a = np.array(frames.build_dss(7).data)
    a.setflags(write=False)
    assert frames.Frame(a).data is a
    f = frames.build_dss(7)
    assert frames.Frame(f.data, kind=f.kind, spectrum=f.spectrum).data is f.data


def _roots_formula(n, spec, norm=None):
    """The DFT-family frame as one gather from two n x m index tables."""
    t = np.arange(n)[:, None]
    f = np.array(spec, dtype=np.int64)[None, :]
    roots = np.exp(2j * np.pi * np.arange(n) / n) / (np.sqrt(len(spec)) if norm is None else norm)
    return roots[t * f % n]


def _iid_formula(n, m, field, seed):
    rng = np.random.default_rng(seed)
    if field == "real":
        return rng.standard_normal((n, m)) / np.sqrt(m)
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2 * m)


def _paley_formula(n):
    """The Paley frame in closed form from one full t*f % q table: row 0 is
    e_0, row t+1 is 1/sqrt(q), then the real and imaginary parts of
    exp(2 pi i t f / q) / (sqrt(q)/2) for each quadratic residue f < q/2."""
    q = n - 1
    residues = sorted({x * x % q for x in range(1, q)})
    z = _roots_formula(q, [f for f in residues if 2 * f < q], np.sqrt(q) / 2)
    a = np.zeros((n, n // 2))
    a[0, 0] = 1.0
    a[1:, 0] = 1.0 / np.sqrt(q)
    a[1:, 1::2] = z.real
    a[1:, 2::2] = z.imag
    return a


_SPEC = {n: sorted(np.random.default_rng(n).choice(n, n // 2, replace=False).tolist())
         for n in (13, 947)}

# holds both ends of the frequency range, out of order
_UNSORTED_130 = [129, *np.random.default_rng(130).permutation(np.arange(1, 129))[:40].tolist(), 0]

_FORMULA_CASES = {
    "bl13_7": (lambda: frames.build_bandlimited_dft(13, 7), lambda: _roots_formula(13, range(7))),
    "bl947_473": (lambda: frames.build_bandlimited_dft(947, 473),
                  lambda: _roots_formula(947, range(473))),
    "spectrum13": (lambda: frames.build_dft_spectrum(13, _SPEC[13]),
                   lambda: _roots_formula(13, _SPEC[13])),
    "spectrum947": (lambda: frames.build_dft_spectrum(947, _SPEC[947]),
                    lambda: _roots_formula(947, _SPEC[947])),
    "dss31": (lambda: frames.build_dss(31),
              lambda: _roots_formula(31, frames.quadratic_difference_set(31).elements)),
    "dss947": (lambda: frames.build_dss(947),
               lambda: _roots_formula(947, frames.quadratic_difference_set(947).elements)),
    # the gather's 64-row blocks: fewer rows than one block, one block, one
    # row past it, and two blocks plus a row; then a square frame (m = n)
    **{f"bl{n}_{m}": (lambda n=n, m=m: frames.build_bandlimited_dft(n, m),
                      lambda n=n, m=m: _roots_formula(n, range(m)))
       for n, m in ((1, 1), (63, 31), (64, 32), (65, 33), (129, 64), (130, 130))},
    "spectrum130_unsorted": (lambda: frames.build_dft_spectrum(130, _UNSORTED_130),
                             lambda: _roots_formula(130, _UNSORTED_130)),
    "paley38": (lambda: frames.build_paley_etf(38), lambda: _paley_formula(38)),
    # several blocks written through a strided complex view of a real buffer
    "paley998": (lambda: frames.build_paley_etf(998), lambda: _paley_formula(998)),
    **{f"iid_{field}_{n}x{m}_seed{seed}": (
        lambda n=n, m=m, field=field, seed=seed: frames.build_random_iid(n, m, field, seed),
        lambda n=n, m=m, field=field, seed=seed: _iid_formula(n, m, field, seed))
       for field in ("real", "complex") for (n, m) in ((13, 7), (947, 473))
       for seed in (0, 1, 2)},
}


@pytest.mark.parametrize("label", sorted(_FORMULA_CASES))
def test_builder_equals_its_formula_byte_for_byte(label):
    build, formula = _FORMULA_CASES[label]
    got, want = build().data, formula()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


def test_load_frame_reads_a_mislabelled_dss_file_as_its_rows(tmp_path, monkeypatch):
    # a "dss" header over rows other than build_dss(n)'s loads as it is and
    # gets its rows' etas; the exact file keeps build_dss's etas
    f = frames.build_dss(31)
    path = tmp_path / "dss.frame"
    frames.save_frame(f, path)
    exact = frames.load_frame(path)
    header, *rows = path.read_text().splitlines()
    values = rows[5].split()
    values[2] = "%.17g" % (float(values[2]) * (1 + 1e-12))  # unit norm to 1e-12
    rows[5] = " ".join(values)
    path.write_text("\n".join([header, *rows]) + "\n")
    g = frames.load_frame(path)
    assert g.kind == "dss" and exact.has_dss_rows and not g.has_dss_rows
    pats = [(0, 5, 9), (1, 2, 3, 5, 8, 13)]
    assert [spectral.inverse_energy(exact, s) for s in pats] == [
        spectral.inverse_energy(f, s) for s in pats]
    monkeypatch.setattr(spectral, "dss_eta", None)  # g never takes the route
    assert [spectral.inverse_energy(g, s) for s in pats] == [
        spectral.inverse_energy(g.data, s) for s in pats]


def _mislabelled():
    """Both ways a "dss" label can sit on rows other than build_dss(31)'s."""
    perm = np.random.default_rng(0).permutation(31)
    return {
        "permuted_rows": frames.Frame(frames.build_dss(31).data[perm], kind="dss"),
        "other_spectrum": frames.Frame(frames.build_dft_spectrum(31, range(15)).data,
                                       kind="dss"),
    }


@pytest.mark.parametrize("label, eta", [("permuted_rows", 0.2995391705069126),
                                        ("other_spectrum", 0.9596292058139092)])
def test_a_dss_label_on_other_rows_gets_its_rows_etas(label, eta, monkeypatch):
    g = _mislabelled()[label]
    monkeypatch.setattr(spectral, "dss_eta", None)
    assert g.kind == "dss" and not g.has_dss_rows
    assert spectral.inverse_energy(g, (0, 1, 2, 5)) == spectral.inverse_energy(
        g.data, (0, 1, 2, 5)) == pytest.approx(eta, rel=1e-13)  # BLAS kernels differ in bits
    stats = patterns.ie_statistics(g, 4, "sampled", trials=20, seed=3)
    rows = patterns.ie_statistics(frames.Frame(g.data), 4, "sampled", trials=20, seed=3)
    assert stats.samples.tolist() == rows.samples.tolist()


@pytest.mark.parametrize("n, m", [(15, 7), (13, 6), (1, 1)])  # no prime, 1 mod 4, no prime
def test_a_dss_label_at_n_without_a_dss_frame_takes_the_rows(n, m, monkeypatch):
    g = frames.Frame(frames.build_dft_spectrum(n, range(m)).data, kind="dss")
    monkeypatch.setattr(spectral, "dss_eta", None)
    assert not g.has_dss_rows
    assert spectral.inverse_energy(g, [0]) == spectral.inverse_energy(g.data, [0])
    if n == 15:
        assert spectral.inverse_energy(g, (0, 1, 2, 5)) == pytest.approx(2.457189409632599,
                                                                        rel=1e-13)


def test_dss_rows_are_checked_once_per_frame_and_never_for_build_dss(monkeypatch):
    f = frames.build_dss(31)
    copy = frames.Frame(np.array(f.data), kind="dss")
    calls = []
    build_dss, array_equal = frames.build_dss, np.array_equal
    monkeypatch.setattr(frames, "build_dss", lambda p: calls.append("build") or build_dss(p))
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append("equal") or
                        array_equal(a, b))
    pats = patterns.pattern_set(31, 5, "sampled", 10, seed=1)[0]
    etas = [spectral.inverse_energy(f, s) for s in pats]
    assert f.has_dss_rows and calls == []
    assert [spectral.inverse_energy(copy, s) for s in pats] == etas
    assert copy.has_dss_rows and calls == ["build", "equal"]


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
