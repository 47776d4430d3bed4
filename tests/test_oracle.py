"""An extended-precision reference for eta and the encoder.

The reference factors G = A_s A_s' by Cholesky and inverts the factor row by
row in np.longdouble / np.clongdouble, from the double-precision rows the
code reads.  Where long double has an eps under 1e-18 (x87 extended: 1.1e-19)
the reference is three decades finer than the code, so the bounds below
measure the code's own error; where it is no wider than double the module
skips.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from framelab import coder, frames, patterns, spectral
from test_spectral import (_SCREEN_EDGE, _complex_rows_at_angle, _tilted_case,
                           _two_rows_at_angle)

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                reason="long double is no wider than double")

EPS = np.finfo(float).eps
# A finite eta lies within C eps max(1, eta) of the reference, relative: the
# rounding of a Cholesky eta grows with the conditioning, which eta measures.
# The worst fitted C over the sets below is 60 (contiguous bl101/50, k = 12);
# for an encoder's residual ||A_s B_s - I|| it is 18 (dss47, k = 20).
C = 1e3


def _wide(a):
    return np.asarray(a).astype(np.clongdouble if np.iscomplexobj(a) else np.longdouble)


def _inverse_factor(a_s):
    """L^{-1} for G = L L^H, G = A_s A_s', in extended precision: a Cholesky
    by columns, then the triangular inverse one row at a time,
    row i = (e_i - L[i, :i] L^{-1}[:i]) / L[i, i]."""
    a = _wide(a_s)
    g = a @ a.conj().T
    k = len(g)
    low = np.zeros_like(g)
    for j in range(k):
        d = g[j, j].real - np.sum(np.abs(low[j, :j]) ** 2)
        assert d > 0, "reference Gram not positive definite"
        low[j, j] = np.sqrt(d)
        low[j + 1:, j] = (g[j + 1:, j] - low[j + 1:, :j] @ low[j, :j].conj()) / low[j, j]
    inv = np.zeros_like(g)
    for i in range(k):
        row = -(low[i, :i] @ inv[:i])
        row[i] += 1
        inv[i] = row / low[i, i]
    return inv


def reference_eta(a_s):
    inv = _inverse_factor(a_s)
    return np.sum(np.abs(inv) ** 2) / a_s.shape[1]


def _sampled(frame, k, count, seed):
    return frame, [patterns.pattern_set(frame.n, k, "sampled", count, seed)[0]]


def _contiguous(n, m, ks, starts):
    """Runs of k consecutive rows (mod n), one (len(starts), k) set per k."""
    frame = frames.build_bandlimited_dft(n, m)
    return frame, [np.add.outer(starts, np.arange(k)) % n for k in ks]


_ETA_SETS = {
    "bl13": lambda: _sampled(frames.build_bandlimited_dft(13, 7), 5, 200, 1),
    "dss47": lambda: _sampled(frames.build_dss(47), 20, 60, 2),
    "iid_complex": lambda: _sampled(frames.build_random_iid(40, 16, field="complex", seed=3),
                                    8, 100, 3),
    "bl101_contiguous": lambda: _contiguous(101, 50, range(1, 13), np.array([0, 17, 50, 95])),
    "paley38": lambda: _sampled(frames.build_paley_etf(38), 10, 100, 4),
    "paley102": lambda: _sampled(frames.build_paley_etf(102), 40, 40, 5),
    "spectrum61": lambda: _sampled(
        frames.build_dft_spectrum(61, np.random.default_rng(4).choice(61, 30, replace=False)),
        20, 60, 6),
}


@pytest.mark.parametrize("label", sorted(_ETA_SETS))
def test_eta_within_the_extended_precision_reference(label):
    frame, sets = _ETA_SETS[label]()
    for pats in sets:
        for rows, _, eta in spectral.factored(frame.data, pats):
            assert math.isfinite(eta)
            ref = reference_eta(frame.data[rows])
            assert abs(eta - ref) <= C * EPS * max(1.0, eta) * ref, (rows, eta, float(ref))


def _tilted_sweep(count, seed):
    """`count` frames with a pattern each, k = 2..9, real and complex, whose
    row 1 lies at an angle log-uniform from 1e-7 to the Cholesky screen's
    edge from row 0: every pattern is screened, and about half are finite."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, complex_field = int(rng.integers(2, 10)), bool(rng.integers(0, 2))
        theta = 10.0 ** rng.uniform(-7.0, math.log10(_SCREEN_EDGE))
        yield _tilted_case(int(rng.integers(0, 10 ** 6)), m, theta, complex_field)


def test_screened_eta_within_the_extended_precision_reference():
    # the pivoted factor's eta: 192 of these 400 patterns are finite, with a
    # fitted worst C of 12.7 (the eigenvalues' eta it replaced reached 52)
    finite = 0
    for frame, pattern in _tilted_sweep(400, 11):
        assert spectral.cholesky(spectral.gram(frame.submatrix(pattern))) is None
        (rows, y, eta), = spectral.factored(frame.data, [pattern])
        assert (y is None) == math.isinf(eta)
        if y is not None:
            finite += 1
            ref = reference_eta(frame.data[rows])
            assert abs(eta - ref) <= C * EPS * max(1.0, eta) * ref, (rows, eta, float(ref))
    assert 120 <= finite <= 280


def test_singular_verdict_follows_the_reference_eta():
    # The singularity policy in terms of eta.  Unit rows give
    # 1 <= lambda_max <= tr G = k and 1/lambda_min <= m eta <= k/lambda_min,
    # and `eta_from_eigenvalues` calls inf at lambda_min <= 1e-12 lambda_max:
    # so eta is finite below m eta_ref = 0.5e12 / k and inf above 2e12 k,
    # each a factor 2 clear of the threshold.  Between the two the policy
    # may go either way (163 of these 600 patterns; 260 lie below, 177 above).
    decided = {True: 0, False: 0}
    for frame, pattern in _tilted_sweep(600, 12):
        k = len(pattern)
        eta = spectral.inverse_energy(frame, pattern)
        m_eta_ref = frame.m * reference_eta(frame.submatrix(pattern))
        if m_eta_ref < 0.5e12 / k:
            assert math.isfinite(eta), (pattern, float(m_eta_ref))
            decided[True] += 1
        elif m_eta_ref > 2e12 * k:
            assert eta == math.inf, (pattern, float(m_eta_ref))
            decided[False] += 1
    assert min(decided.values()) >= 100, decided


# A difference-set frame's eta two ways: the kernel on its rows and
# `spectral.dss_eta` on the Frame, at the paper's size and at k = m, where
# eta reaches into the thousands.  Worst fitted C: 44 for the kernel (dss251,
# k = 125) and 6 for the route.
_DSS_SETS = {
    "dss947_k378": lambda: _sampled(frames.build_dss(947), 378, 2, 10),
    "dss47_k23": lambda: _sampled(frames.build_dss(47), 23, 40, 1),
    "dss127_k63": lambda: _sampled(frames.build_dss(127), 63, 20, 1),
    "dss251_k125": lambda: _sampled(frames.build_dss(251), 125, 6, 1),
}


@pytest.mark.parametrize("label", sorted(_DSS_SETS))
def test_dss_kernel_and_route_within_the_extended_precision_reference(label):
    frame, (pats,) = _DSS_SETS[label]()
    for s, (rows, _, eta) in zip(pats, spectral.factored(frame.data, pats)):
        route = spectral.inverse_energy(frame, s)
        ref = reference_eta(frame.data[rows])
        for got in (eta, route):
            assert math.isfinite(got)
            assert abs(got - ref) <= C * EPS * max(1.0, got) * ref, (rows, got, float(ref))


def _exact_eta(a_s):
    """eta of real rows in rational arithmetic: tr(G^{-1}) / m by
    Gauss-Jordan elimination on [G | I], exact for the rows' double values."""
    rows = [[Fraction(x) for x in r] for r in a_s.tolist()]
    k = len(rows)
    aug = [[sum(x * y for x, y in zip(ri, rj)) for rj in rows]
           + [Fraction(i == j) for j in range(k)] for i, ri in enumerate(rows)]
    for j in range(k):
        pivot = aug[j][j]  # G is positive definite: no pivoting needed
        aug[j] = [x / pivot for x in aug[j]]
        for i in range(k):
            if i != j:
                aug[i] = [x - aug[i][j] * y for x, y in zip(aug[i], aug[j])]
    return sum(aug[i][k + i] for i in range(k)) / a_s.shape[1]


@pytest.mark.parametrize("frame, pattern", [
    (frames.build_random_iid(12, 6, seed=4), (0, 3, 5, 8, 11)),
    (_two_rows_at_angle(0.3), (0, 1)),
    (_two_rows_at_angle(5e-6), (0, 1)),
], ids=["iid-k5", "angle-0.3", "angle-5e-6"])
def test_reference_matches_exact_rationals(frame, pattern):
    # the reference's relative error, like the code's, grows with eta, but
    # from its own eps: here at most 7.6e-5 eps max(1, eta), so it sits
    # under C / 1e6 of the bound it checks the code against
    a_s = frame.data[list(pattern)]
    exact = _exact_eta(a_s)
    error = abs(Fraction(*reference_eta(a_s).as_integer_ratio()) - exact)
    assert error <= 1e-3 * EPS * max(1, exact) * exact


def _encoder_within_the_reference(frame, pattern):
    a_s = frame.submatrix(pattern)
    b, eta = coder.encoder_matrix(a_s)
    ref = reference_eta(a_s)
    residual = _wide(a_s) @ _wide(b) - np.eye(len(pattern))
    assert np.sqrt(np.sum(np.abs(residual) ** 2)) <= C * EPS * max(1.0, ref)
    energy = np.sum(np.abs(_wide(b)) ** 2) / frame.m
    assert abs(energy - ref) <= C * EPS * max(1.0, ref) * ref
    assert abs(eta - ref) <= C * EPS * max(1.0, ref) * ref


@pytest.mark.parametrize("frame, pattern", [
    (_two_rows_at_angle(5e-6), (0, 1)), (_two_rows_at_angle(2e-6), (0, 1)),
    (_complex_rows_at_angle(4e-6, math.pi / 5), (0, 1)),
    _tilted_case(0, 4, 5e-6, True),
], ids=["real-5e-6", "real-2e-6", "complex-4e-6", "complex-k4-5e-6"])
def test_screened_encoder_within_the_reference(frame, pattern):
    # no Cholesky factor here: the encoder reads B_s off pstrf's pivoted Y
    assert spectral.cholesky(spectral.gram(frame.submatrix(pattern))) is None
    _encoder_within_the_reference(frame, pattern)


@pytest.mark.parametrize("frame, k, count, seed", [
    (frames.build_bandlimited_dft(13, 7), 5, 40, 7),
    (frames.build_dss(47), 20, 20, 8),
    (frames.build_paley_etf(38), 10, 40, 9),
], ids=["bl13", "dss47", "paley38"])
def test_cholesky_route_encoder_out_of_canonical_order_within_the_reference(
        frame, k, count, seed):
    # the kernel factors the rows in canonical order; B_s's columns follow
    # the pattern's order all the same
    rng = np.random.default_rng(seed)
    pats = [rng.permutation(p) for p in patterns.pattern_set(frame.n, k, "sampled", count,
                                                             seed)[0]]
    shuffled = 0
    for p, (rows, _, _) in zip(pats, spectral.factored(frame, pats)):
        assert spectral.cholesky(spectral.gram(frame.submatrix(p))) is not None
        shuffled += not np.array_equal(p, rows)
        _encoder_within_the_reference(frame, tuple(p.tolist()))
    assert shuffled == count
