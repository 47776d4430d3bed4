import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from framelab import coder, frames, optimize, spectral

# frozen values of the limiting inverse energy, from a quadrature of the MANOVA
# law (see also the closed-form cross-check below)
MANOVA_LIMIT_HALF_125 = 2.4
MANOVA_LIMIT_947 = 2.3907297282276407  # beta = 473/378, m/n = 473/947


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_unit_frame(n, m, seed, complex_field=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    if complex_field:
        a = a + 1j * rng.standard_normal((n, m))
    return frames.Frame(_unit_rows(a))


def test_full_dft_rows_orthonormal():
    f = frames.build_bandlimited_dft(8, 8)
    s = spectral.gram_eigenvalues(f, (1, 4, 6))
    assert np.abs(s.eigenvalues - 1.0).max() < 1e-12
    assert abs(s.eta - 3 / 8) < 1e-12


def test_single_row_pattern():
    f = frames.build_dss(11)
    s = spectral.gram_eigenvalues(f, (3,))
    assert abs(s.eigenvalues[0] - 1.0) < 1e-12
    assert abs(s.eta - 1 / 5) < 1e-12


def test_dss7_pattern_matches_bruteforce():
    f = frames.build_dss(7)
    idx = [0, 1, 3]
    g = f.data[idx] @ f.data[idx].conj().T
    off = np.abs(g[~np.eye(3, dtype=bool)])
    assert np.allclose(off, np.sqrt(4 / 18), atol=1e-12)
    oracle = np.trace(np.linalg.inv(g)).real / 3
    assert abs(spectral.inverse_energy(f, idx) - oracle) < 1e-9


def test_inverse_energy_agrees_with_eigen_route():
    for seed in range(5):
        f = random_unit_frame(12, 6, seed, complex_field=seed % 2)
        for k in (2, 4, 6):
            s = tuple(np.random.default_rng((seed, k)).choice(12, k, replace=False))
            a = spectral.inverse_energy(f, s)
            b = spectral.gram_eigenvalues(f, s).eta
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_inverse_energy_explicit_inverse_oracle():
    # mid-size dense check against a plain matrix inverse
    f = random_unit_frame(60, 50, seed=11)
    idx = tuple(range(0, 60, 2))  # k=30
    g = f.data[list(idx)] @ f.data[list(idx)].T
    oracle = float(np.trace(np.linalg.inv(g))) / 50
    assert abs(spectral.inverse_energy(f, idx) - oracle) < 1e-8 * oracle


def test_singular_pattern_reports_inf():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    assert spectral.inverse_energy(f, (0, 4)) == math.inf  # identical rows
    s = spectral.gram_eigenvalues(f, (0, 4))
    assert s.eta == math.inf
    for s in [(1, 5), (0, 1, 4), (2, 3, 6, 7)]:  # rows t and t+4 coincide
        assert spectral.inverse_energy(f, s) == math.inf
    # three rows in one plane, two of them e apart: after the small second
    # pivot, the third comes out as rounding noise (near 3e-4), not zero
    for e in (2e-5, 1e-5):
        plane = frames.Frame(np.array([[0.0, 1.0, 0.0], [math.sin(e), math.cos(e), 0.0],
                                       [1.0, 0.0, 0.0]]))
        assert spectral.inverse_energy(plane, (0, 1, 2)) == math.inf


def test_pattern_validation():
    f = frames.build_bandlimited_dft(8, 4)
    with pytest.raises(IndexError):
        spectral.inverse_energy(f, (0, 8))
    with pytest.raises(ValueError):
        spectral.inverse_energy(f, (1, 1))
    with pytest.raises(ValueError):
        spectral.inverse_energy(f, ())


def test_eta_bitwise_invariant_under_row_relabeling():
    # permuting frame rows and relabeling patterns must not move eta by a bit
    f = frames.build_dss(11)
    perm = np.random.default_rng(5).permutation(11)
    g = frames.Frame(f.data[perm])
    inv = np.argsort(perm)
    for s in [(0, 1, 2), (2, 5, 7, 9), (0, 4, 10)]:
        mapped = tuple(sorted(int(inv[i]) for i in s))
        assert spectral.inverse_energy(f, s) == spectral.inverse_energy(g, mapped)


def _family_frames():
    """One small frame per family, real and complex, keyed by a label."""
    return {
        "bandlimited": frames.build_bandlimited_dft(31, 24),
        "iid_real": frames.build_random_iid(31, 12, seed=4),
        "iid_complex": frames.build_random_iid(31, 12, field="complex", seed=4),
        "dft_spectrum": frames.build_dft_spectrum(31, [1, 3, 4, 8, 11, 17, 20, 21, 25, 27]),
        "dss": frames.build_dss(31),
        "paley": frames.build_paley_etf(30),
        "custom_real": random_unit_frame(31, 12, seed=6),
        "custom_complex": random_unit_frame(31, 12, seed=6, complex_field=True),
    }


def _full_lexsort(frame, pattern):
    a_s = frame.data[sorted(pattern)]
    key = a_s.view(np.float64).reshape(len(pattern), -1)
    return a_s[np.lexsort(key.T[::-1])]


@pytest.mark.parametrize("label", sorted(_family_frames()))
def test_canonical_order_matches_full_lexsort(label):
    f = _family_frames()[label]
    rng = np.random.default_rng(8)
    for k in (1, 2, 5, f.m):
        s = tuple(rng.choice(f.n, k, replace=False).tolist())
        assert np.array_equal(spectral._canonical_submatrix(f, s), _full_lexsort(f, s))


def test_canonical_order_falls_back_on_leading_key_ties():
    # rows 0-2 share their first four entries, so only the last two order
    # them; rows 3 and 4 are the same vector twice
    head = [0.3, 0.2, 0.1, 0.4]  # squared norm 0.3
    r = math.sqrt(0.7)
    tied = [head + [r * math.cos(phi), r * math.sin(phi)] for phi in (2.0, 0.5, 1.0)]
    others = _unit_rows(np.random.default_rng(2).standard_normal((4, 6)))
    f = frames.Frame(np.vstack([tied, others[0], others[0], others[1:]]))
    for s in [(0, 1, 2), (2, 0, 1, 5), (3, 4), (0, 1, 2, 3, 4, 6)]:
        assert np.array_equal(spectral._canonical_submatrix(f, s), _full_lexsort(f, s))


@pytest.mark.parametrize("label", sorted(_family_frames()))
def test_inverse_energy_matches_eigen_route_per_family(label):
    f = _family_frames()[label]
    rng = np.random.default_rng(9)
    for k in (1, f.m // 2, f.m - 1):
        s = tuple(sorted(rng.choice(f.n, k, replace=False).tolist()))
        a = spectral.inverse_energy(f, s)
        b = spectral.gram_eigenvalues(f, s).eta
        assert abs(a - b) <= 1e-12 * b


def test_inverse_energy_matches_eigen_route_dss947():
    f = frames.build_dss(947)
    for t in range(2):
        s = tuple(sorted(np.random.default_rng((1, t)).choice(947, 378, replace=False)
                         .tolist()))
        a = spectral.inverse_energy(f, s)
        b = spectral.gram_eigenvalues(f, s).eta
        assert math.isfinite(a)
        assert abs(a - b) <= 1e-12 * b


def _vdot_eta(frame, pattern):
    """eta from the kernel's own canonical submatrix, Gram and factor, with
    the last step as numpy's vdot: the formula the BLAS dot must reproduce."""
    a_s = spectral._canonical_submatrix(frame, pattern)
    gram_k = get_blas_funcs("herk" if np.iscomplexobj(a_s) else "syrk", (a_s,))
    low = spectral.cholesky(gram_k(1.0, a_s.T, trans=2, lower=1))
    assert low is not None  # a pattern the eigen route would own proves nothing
    trtri, = get_lapack_funcs(("trtri",), (low,))
    inv_low, info = trtri(low, lower=1, overwrite_c=1)
    assert info == 0
    low_inv = np.tril(inv_low)
    return float(np.real(np.vdot(low_inv, low_inv))) / frame.m


def _vdot_frames():
    spectrum = np.random.default_rng(12).choice(101, 40, replace=False)
    return {
        "bandlimited_31x24": frames.build_bandlimited_dft(31, 24),
        "dss127": frames.build_dss(127),
        "iid_real": frames.build_random_iid(60, 30, seed=13),
        "iid_complex60": frames.build_random_iid(60, 30, field="complex", seed=13),
        "paley38": frames.build_paley_etf(38),
        "random_spectrum": frames.build_dft_spectrum(101, spectrum),
    }


@pytest.mark.parametrize("label", sorted(_vdot_frames()))
def test_inverse_energy_bitwise_equals_vdot_formula(label):
    f = _vdot_frames()[label]
    rng = np.random.default_rng(14)
    for t in range(25):
        k = 1 + t % (f.m // 2)
        s = tuple(sorted(rng.choice(f.n, k, replace=False).tolist()))
        assert spectral.inverse_energy(f, s) == _vdot_eta(f, s)


def test_inverse_energy_bitwise_equals_vdot_formula_dss947():
    f = frames.build_dss(947)
    for t in range(3):
        s = tuple(sorted(np.random.default_rng((15, t)).choice(947, 378, replace=False)
                         .tolist()))
        assert spectral.inverse_energy(f, s) == _vdot_eta(f, s)


def test_inverse_energy_calls_blas_only_through_scipy():
    # numpy's BLAS is a second library with its own thread pool; handing a
    # pattern's work to it costs more than the arithmetic
    source = inspect.getsource(spectral.inverse_energy)
    for token in ("np.vdot", "np.dot", "np.linalg", " @ "):
        assert token not in source


def _count_eigen_fallbacks(monkeypatch):
    calls = []
    route = spectral.gram_eigenvalues

    def counted(frame, pattern):
        calls.append(pattern)
        return route(frame, pattern)

    monkeypatch.setattr(spectral, "gram_eigenvalues", counted)
    return calls


def _two_rows_at_angle(theta):
    a = np.zeros((3, 2))
    a[0] = (1.0, 0.0)
    a[1] = (math.cos(theta), math.sin(theta))
    a[2] = (0.0, 1.0)
    return frames.Frame(a)


def test_inverse_energy_cholesky_exit(monkeypatch):
    calls = _count_eigen_fallbacks(monkeypatch)
    f = _two_rows_at_angle(0.3)
    eta = spectral.inverse_energy(f, (0, 1))
    lam = np.array([1.0 - math.cos(0.3), 1.0 + math.cos(0.3)])
    assert abs(eta - float(np.sum(1.0 / lam)) / 2) < 1e-12
    assert calls == []


def test_inverse_energy_failed_cholesky_exit(monkeypatch):
    # identical rows: the second pivot is exactly zero and potrf refuses
    calls = _count_eigen_fallbacks(monkeypatch)
    f = _two_rows_at_angle(0.0)
    assert spectral.inverse_energy(f, (0, 1)) == math.inf
    assert len(calls) == 1


@pytest.mark.parametrize("theta, finite", [(5e-6, True), (1e-7, False)])
def test_inverse_energy_pivot_threshold_exit(monkeypatch, theta, finite):
    # pivot^2 = sin^2(theta) <= 2.5e-11 trips the pivot test; the eigen route
    # then keeps lambda_min = 1 - cos(theta) finite above 2e-12 and inf below
    calls = _count_eigen_fallbacks(monkeypatch)
    f = _two_rows_at_angle(theta)
    eta = spectral.inverse_energy(f, (0, 1))
    assert len(calls) == 1
    assert not math.isnan(eta)
    assert math.isfinite(eta) == finite
    assert eta == spectral.gram_eigenvalues(f, (0, 1)).eta


@pytest.mark.parametrize("theta", [0.0, 5e-6, 0.3])
def test_cholesky_factor_or_none(theta):
    # theta = 0: identical rows, potrf refuses; 5e-6: potrf factors, but
    # pivot^2 = 2.5e-11 trips the screen; 0.3: the factor of G
    a = _two_rows_at_angle(theta).data[:2]
    g = a @ a.T
    low = spectral.cholesky(np.array(g, order="F"))
    if theta == 0.0:
        assert low is None
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
    elif theta == 5e-6:
        assert low is None
        assert np.linalg.cholesky(g)[1, 1] ** 2 <= 2.6e-11
    else:
        low = np.tril(low)
        assert np.allclose(low @ low.T, g, rtol=0.0, atol=1e-15)


@given(st.integers(0, 10 ** 6), st.integers(2, 9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_eta_floor_property(seed, m, complex_field):
    rng = np.random.default_rng(seed)
    n = m + int(rng.integers(0, 6))
    f = random_unit_frame(n, m, seed, complex_field)
    k = int(rng.integers(1, m + 1))
    s = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
    eta = spectral.inverse_energy(f, s)
    assert not math.isnan(eta)
    if math.isfinite(eta):
        assert eta >= k / m - 1e-9


@given(st.integers(0, 10 ** 6), st.integers(2, 9), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_eta_never_nan_on_rank_deficient_patterns(seed, m, complex_field, repeat):
    # repeat: the pattern holds a row twice over (a repeated frame row);
    # otherwise the frame's rows span only r < m dimensions and the pattern
    # takes more than r of them.  Either way the Gram is singular.
    rng = np.random.default_rng(seed)
    if repeat:
        base = random_unit_frame(m + 2, m, seed, complex_field).data
        f = frames.Frame(np.vstack([base, base[:1]]))  # row m + 2 is row 0
        others = rng.choice(np.arange(1, m + 2), int(rng.integers(0, m + 1)), replace=False)
        s = tuple(sorted([0, m + 2] + others.tolist()))
    else:
        r = int(rng.integers(1, m))
        b = rng.standard_normal((m + 4, r))
        c = rng.standard_normal((r, m))
        if complex_field:
            b = b + 1j * rng.standard_normal((m + 4, r))
        f = frames.Frame(_unit_rows(b @ c))
        k = int(rng.integers(r + 1, m + 5))
        s = tuple(sorted(rng.choice(m + 4, k, replace=False).tolist()))
    eta = spectral.inverse_energy(f, s)
    assert not math.isnan(eta)
    assert eta == math.inf or eta >= len(s) / m - 1e-9
    # the other consumers of the singularity policy see the same patterns
    assert optimize.sampled_mlie(f, [s]) == math.inf
    with pytest.raises(coder.SingularPatternError):
        coder.encoder_matrix(f, s)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_trace_identity_and_harmonic_bound(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    n = m + int(rng.integers(0, 5))
    k = int(rng.integers(1, m + 1))
    f = random_unit_frame(n, m, seed + 1)
    s = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
    es = spectral.gram_eigenvalues(f, s)
    assert abs(float(np.mean(es.eigenvalues)) - 1.0) <= 1e-9
    if math.isfinite(es.eta):
        beta = m / k
        assert es.eta * beta >= 1.0 - 1e-9
        if es.eta * beta - 1.0 < 1e-9:
            assert es.eigenvalues[-1] - es.eigenvalues[0] < 1e-4


def test_mp_eta_limits():
    assert spectral.mp_eta_limit(2.0) == 1.0
    assert spectral.mp_eta_limit(1.25) == 4.0
    assert spectral.mp_eta_limit(1.0) == math.inf
    assert spectral.mp_eta_limit(0.5) == math.inf


@pytest.mark.parametrize("beta", [1.25, 2.0, 5.0])
def test_mp_density_normalized(beta):
    lo, hi = spectral.mp_edges(beta)
    val, _ = integrate.quad(lambda x: spectral.mp_density(x, beta), lo, hi, limit=200)
    assert abs(val - 1.0) < 1e-6


def test_mp_density_inverse_moment_matches_limit():
    beta = 1.6
    lo, hi = spectral.mp_edges(beta)
    val, _ = integrate.quad(lambda x: spectral.mp_density(x, beta) / (beta * x),
                            lo, hi, limit=200)
    assert abs(val - spectral.mp_eta_limit(beta)) < 1e-6


def test_manova_edges_half():
    lo, hi = spectral.manova_edges(0.5, 1.25)
    assert abs(lo - (math.sqrt(0.6) - math.sqrt(0.4)) ** 2) < 1e-15
    assert abs(hi - (math.sqrt(0.6) + math.sqrt(0.4)) ** 2) < 1e-15
    assert abs(lo - 0.0202) < 5e-5 and abs(hi - 1.9798) < 5e-5


def test_manova_density_support_and_mass():
    lo, hi = spectral.manova_edges(0.5, 1.25)
    assert spectral.manova_density(lo - 1e-6, 0.5, 1.25) == 0.0
    assert spectral.manova_density(hi + 1e-6, 0.5, 1.25) == 0.0
    for beta in (1.25, 2.0):
        lo, hi = spectral.manova_edges(0.5, beta)
        val, _ = integrate.quad(lambda x: spectral.manova_density(x, 0.5, beta),
                                lo, hi, limit=200)
        assert abs(val - 1.0) < 1e-6


def test_manova_eta_limit_frozen_values():
    assert abs(spectral.manova_eta_limit(1.25) - MANOVA_LIMIT_HALF_125) < 1e-8
    assert abs(spectral.manova_eta_limit(473 / 378, 473 / 947) - MANOVA_LIMIT_947) < 1e-8


def test_manova_eta_limit_closed_form_cross_check():
    # the closed form against the 1/x moment of the density, scaled by 1/beta
    for beta, w in [(1.25, 0.5), (4 / 3, 0.5), (2.0, 0.25), (1.6, 0.4), (473 / 378, 473 / 947)]:
        lo, hi = spectral.manova_edges(w, beta)
        val, _ = integrate.quad(lambda x: spectral.manova_density(x, w, beta) / (beta * x),
                                lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)
        assert abs(spectral.manova_eta_limit(beta, w) - val) < 1e-8


@st.composite
def _manova_domain(draw):
    """Valid (beta, w) for the continuous law: 1 < beta <= 1/w and
    beta >= w/(1 - w).  The gap to the low end of the beta range is drawn on a
    log scale, down to 1e-5 of the range."""
    w = draw(st.floats(0.01, 0.6))
    lo = max(1.0, w / (1.0 - w))
    beta = lo + (1.0 / w - lo) * 10.0 ** draw(st.floats(-5.0, 0.0))
    return min(beta, 1.0 / w), w


@settings(max_examples=200, deadline=None)
@given(_manova_domain())
@example((473 / 472, 473 / 947))  # k = m - 1 rows of dss947
def test_manova_eta_limit_between_floor_and_iid(point):
    beta, w = point
    v = spectral.manova_eta_limit(beta, w)
    assert math.isfinite(v)
    assert 1.0 / beta <= v <= spectral.mp_eta_limit(beta)


def test_manova_eta_limit_large_beta():
    v = spectral.manova_eta_limit(100.0, 0.005)
    assert abs(v - 0.01) < 0.0002  # within 2% of 1/beta


def test_manova_eta_limit_divergence_and_domain():
    assert spectral.manova_eta_limit(1.0) == math.inf
    with pytest.raises(ValueError):
        spectral.manova_eta_limit(1.25, 1.5)
    with pytest.raises(ValueError):
        spectral.manova_density(1.0, 0.5, 0.9)
    with pytest.raises(ValueError):
        spectral.manova_density(1.0, 0.5, 2.5)  # beta above n/m
    with pytest.raises(ValueError, match="point mass"):
        spectral.manova_eta_limit(1.2, 0.7)  # k + m > n
    assert spectral.manova_eta_limit(0.8) == math.inf  # sub-unit beta still signals


def test_manova_eta_limit_monotone_in_beta():
    vals = [spectral.manova_eta_limit(b) for b in (1.1, 1.25, 1.5, 1.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_eigen_histogram_full_dft_point_mass():
    f = frames.build_bandlimited_dft(8, 8)
    h = spectral.eigen_histogram(f, 8, trials=5, bins=50, seed=0)
    assert abs(h.min_eigenvalue - 1.0) < 1e-9
    assert abs(h.max_eigenvalue - 1.0) < 1e-9
    assert h.n_samples == 40


def test_eigen_histogram_deterministic():
    f = frames.build_random_iid(40, 20, seed=0)
    a = spectral.eigen_histogram(f, 16, trials=20, seed=3)
    b = spectral.eigen_histogram(f, 16, trials=20, seed=3)
    assert np.array_equal(a.counts, b.counts)
    assert a.min_eigenvalue == b.min_eigenvalue


def test_eigen_histogram_rebin_matches_fresh_sweep():
    f = frames.build_random_iid(40, 20, seed=0)
    a = spectral.eigen_histogram(f, 16, trials=20, bins=30, seed=3)
    b = a.rebin((0.0, 0.2))
    c = spectral.eigen_histogram(f, 16, trials=20, bins=30, seed=3, value_range=(0.0, 0.2))
    for x, y in ((b.bin_edges, c.bin_edges), (b.counts, c.counts), (b.density, c.density),
                 (b.eigenvalues, c.eigenvalues)):
        assert np.array_equal(x, y)
    assert (b.min_eigenvalue, b.max_eigenvalue, b.n_samples) == (
        c.min_eigenvalue, c.max_eigenvalue, c.n_samples)


def test_eigen_histogram_area_one():
    f = frames.build_random_iid(60, 30, seed=1)
    h = spectral.eigen_histogram(f, 24, trials=40, seed=0,
                                 value_range=(0.0, 1.02 * spectral.mp_edges(30 / 24)[1]))
    area = float(np.sum(h.density * np.diff(h.bin_edges)))
    assert abs(area - 1.0) < 1e-12


def test_l1_distance_detects_fit_quality():
    f = frames.build_random_iid(300, 150, seed=2)
    beta = 150 / 120
    h = spectral.eigen_histogram(f, 120, trials=60, bins=60, seed=0,
                                 value_range=(0.0, 1.02 * spectral.mp_edges(beta)[1]))
    good = spectral.l1_density_distance(h, lambda x: spectral.mp_density(x, beta))
    bad = spectral.l1_density_distance(h, lambda x: spectral.mp_density(x, 4.0))
    assert good < 0.25
    assert bad > good
