import functools
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.linalg import get_blas_funcs, get_lapack_funcs

import framelab
from framelab import cli, coder, frames, optimize, patterns, rd, spectral

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
    for s in [(1, 5), (0, 1, 4), (2, 3, 6, 7), (0, 2, 4, 6)]:  # rows t and t+4 coincide
        assert spectral.inverse_energy(f, s) == math.inf
    # sigma_min is about 7e-9: above a 1e-10 sigma ratio, but its square is
    # under the 1e-12 eigenvalue ratio at which inverse_energy gives inf
    e = 1e-8
    c = math.sqrt(1.0 - e * e) / math.sqrt(2.0)
    tilted = frames.Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [c, c, e]]))
    assert 1e-9 < np.linalg.svd(tilted.data, compute_uv=False)[-1] < 1e-8
    assert spectral.inverse_energy(tilted, (0, 1, 2)) == math.inf
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


def _canonical(frame, patterns):
    """The submatrices of a pattern set in the kernel's canonical row order."""
    return [frame.data[rows] for rows in spectral.canonical_rows(frame.data, patterns)]


@pytest.mark.parametrize("label", sorted(_family_frames()))
def test_canonical_order_matches_full_lexsort(label):
    f = _family_frames()[label]
    rng = np.random.default_rng(8)
    for k in (1, 2, 5, f.m):
        pats = [tuple(rng.choice(f.n, k, replace=False).tolist()) for _ in range(4)]
        for a_s, s in zip(_canonical(f, pats), pats):
            assert np.array_equal(a_s, _full_lexsort(f, s))


def test_canonical_order_falls_back_on_leading_key_ties():
    # rows 0-2 share their first four entries, so only the last two order
    # them; rows 3 and 4 are the same vector twice
    head = [0.3, 0.2, 0.1, 0.4]  # squared norm 0.3
    r = math.sqrt(0.7)
    tied = [head + [r * math.cos(phi), r * math.sin(phi)] for phi in (2.0, 0.5, 1.0)]
    others = _unit_rows(np.random.default_rng(2).standard_normal((4, 6)))
    f = frames.Frame(np.vstack([tied, others[0], others[0], others[1:]]))
    for s in [(0, 1, 2), (2, 0, 1, 5), (3, 4), (0, 1, 2, 3, 4, 6)]:
        assert np.array_equal(_canonical(f, [s])[0], _full_lexsort(f, s))
    # one set mixing tied and untied patterns: only the tied ones take the full sort
    pats = [(0, 1, 2), (4, 5, 6), (3, 4, 5), (1, 5, 6), (2, 0, 6)]
    for a_s, s in zip(_canonical(f, pats), pats):
        assert np.array_equal(a_s, _full_lexsort(f, s))


def test_canonical_rows_checks_the_whole_set():
    data = frames.build_bandlimited_dft(8, 4).data
    rows = spectral.canonical_rows(data, [(3, 1), (7, 0)])
    assert rows.shape == (2, 2) and sorted(rows[1].tolist()) == [0, 7]
    with pytest.raises(IndexError, match="out of range"):
        spectral.canonical_rows(data, [(0, 1), (2, 8)])
    with pytest.raises(IndexError, match="out of range"):
        spectral.canonical_rows(data, [(0, 1), (-1, 2)])
    with pytest.raises(ValueError, match="repeated"):
        spectral.canonical_rows(data, [(0, 1), (5, 5)])
    with pytest.raises(ValueError, match="empty"):
        spectral.canonical_rows(data, np.zeros((0, 2), dtype=int))


def test_check_patterns_keeps_order_and_names_the_fault():
    idx = frames.check_patterns(8, [(3, 1), (7, 0)])
    assert idx.dtype == np.intp and idx.tolist() == [[3, 1], [7, 0]]
    assert frames.check_patterns(8, np.array([[5]], dtype=np.uint8)).dtype == np.intp
    assert issubclass(frames.PatternError, IndexError)
    assert issubclass(frames.PatternError, ValueError)
    for bad, match in [([(0, 9)], "out of range for n=8"), ([(2, 2)], "repeated"),
                       ([(1.0, 2.0)], "dtype float64"), ([(True, False)], "dtype bool"),
                       ([("1", "2")], "dtype <U1"), ([], "empty pattern"),
                       ([()], "empty pattern"), ((1, 2), r"\(T, k\) pattern set")]:
        with pytest.raises(frames.PatternError, match=match):
            frames.check_patterns(8, bad)


# every route into a pattern's rows, called on one pattern s of dss7
_PATTERN_ROUTES = {
    "inverse_energy": spectral.inverse_energy,
    "gram_eigenvalues": spectral.gram_eigenvalues,
    "sampled_mlie": lambda f, s: optimize.sampled_mlie(f, [s]),
    "mlie_gradient": lambda f, s: optimize.mlie_gradient(f, [s]),
    "submatrix": lambda f, s: f.submatrix(s),
    "encoder_matrix": coder.encoder_matrix,
    "simulate": lambda f, s: coder.simulate(f, 2, 1.0, 1.0, 3, pattern=s),
}


@pytest.mark.parametrize("route", sorted(_PATTERN_ROUTES))
@pytest.mark.parametrize("pattern, match", [
    ((1.7, 2), "integers, got dtype float64"),  # not to be read as (1, 2)
    (np.arange(7) < 2, "integers, got dtype bool"),  # a mask, not the indices 1 and 0
    ((1, 7), "out of range"),
    ((4, 4), "repeated"),
])
def test_every_route_refuses_what_check_patterns_refuses(route, pattern, match):
    f = frames.build_dss(7)
    with pytest.raises(frames.PatternError, match=match):
        _PATTERN_ROUTES[route](f, pattern)


@pytest.mark.parametrize("label", sorted(_family_frames()))
def test_inverse_energy_takes_a_frame_its_array_or_its_nested_list(label):
    # like every eta route, inverse_energy reads rows through frame_rows
    f = _family_frames()[label]
    s = (0, 2, 3)
    want = spectral.inverse_energy(f, s)
    assert math.isfinite(want)
    for rows in (f.data, f.data.tolist()):
        assert spectral.inverse_energy(rows, s) == want


def test_empty_patterns_are_named():
    f = frames.build_dss(7)
    with pytest.raises(frames.PatternError, match="empty pattern"):
        coder.encoder_matrix(f, [])
    with pytest.raises(ValueError, match="empty pattern"):
        optimize.mlie_gradient(f, [])  # checked before it scales by 1/len


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


def _old_inverse_factor(a_s):
    """L^{-1} for the Cholesky factor L of conj(A_s A_s'), formed as the
    kernel formed it before the routine table: each routine looked up for
    this pattern, potrf with clean=0, and np.tril on trtri's result."""
    gram_k = get_blas_funcs("herk" if np.iscomplexobj(a_s) else "syrk", (a_s,))
    g = gram_k(1.0, a_s.T, trans=2, lower=1)
    potrf, trtri = get_lapack_funcs(("potrf", "trtri"), (g,))
    low, info = potrf(g, lower=1, clean=0, overwrite_a=1)
    d = np.abs(np.diag(low))
    # a pattern the eigen route would own proves nothing
    assert info == 0 and d.min() ** 2 > math.sqrt(np.finfo(float).eps) * d.max() ** 2
    inv_low, info = trtri(low, lower=1, overwrite_c=1)
    assert info == 0
    return np.tril(inv_low)


def _vdot_eta(frame, pattern):
    """eta from the kernel's canonical submatrix, the old-style inverse
    factor and numpy's vdot: the formula the BLAS dot must reproduce."""
    a_s, = _canonical(frame, [pattern])
    low_inv = _old_inverse_factor(a_s)
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
    for fn in (spectral.inverse_energy, spectral.factored, spectral.factor_rows,
               spectral.gram, spectral.gram_eigenvalues, spectral.eigen_factor,
               spectral.eigen_histogram, patterns.square_random_divergence):
        source = inspect.getsource(fn)
        for token in ("np.vdot", "np.dot", "np.linalg", " @ "):
            assert token not in source, (fn.__name__, token)


def test_frame_builders_call_no_eigensolver():
    # every structured frame is read off the DFT in closed form
    builders = [fn for name, fn in inspect.getmembers(frames, inspect.isfunction)
                if name.startswith("build_")]
    assert frames.build_paley_etf in builders
    for fn in builders:
        source = inspect.getsource(fn)
        for token in ("np.linalg", "eigh"):
            assert token not in source, (fn.__name__, token)


def test_mlie_kernel_calls_blas_only_through_scipy():
    # the descent shares inverse_energy's factor: no Gram or eigensolver of its own
    for fn in (optimize.sampled_mlie, optimize.mlie_gradient, optimize._add_block):
        source = inspect.getsource(fn)
        for token in ("np.linalg", " @ ", "np.dot", "np.vdot"):
            assert token not in source, (fn.__name__, token)


def _old_factored(data, pats):
    """(rows, A_s, L^{-1}, eta) per pattern with the old-style factor and a
    per-pattern BLAS dot lookup: the reference for `spectral.factored`."""
    for rows in spectral.canonical_rows(data, pats):
        a_s = data[rows]
        inv_low = _old_inverse_factor(a_s)
        x = inv_low.ravel()
        dot = get_blas_funcs("dotc" if np.iscomplexobj(x) else "dot", (x,))
        yield rows, a_s, inv_low, float(dot(x, x).real) / data.shape[1]


def _old_gradient(a, pats):
    """`optimize.mlie_gradient` as four trmm on the old-style, tril'd factor."""
    n, m = a.shape
    scale = 0.5 * (m / n) / len(pats)
    grad = np.zeros_like(a)
    for rows, a_s, inv_low, eta in _old_factored(a, pats):
        trmm = get_blas_funcs("trmm", (inv_low,))
        core = a_s.T
        for trans in (2, 0, 2, 0):
            core = trmm(1.0, inv_low, core, side=1, lower=1, trans_a=trans, overwrite_b=1)
        grad[rows] += scale / (eta * math.log(2.0)) * (-2.0 / m) * core.T
    return grad


def _zero_upper_cases():
    return {
        "bl13_k5_exhaustive": (frames.build_bandlimited_dft(13, 7),
                               patterns.pattern_set(13, 5, "exhaustive")[0]),
        "dss47_k20_sampled": (frames.build_dss(47),
                              patterns.pattern_set(47, 20, "sampled", 200, 16)[0]),
        "iid_real_12x6": (frames.build_random_iid(12, 6, seed=17),
                          patterns.pattern_set(12, 4, "exhaustive")[0]),
        "paley6": (frames.build_paley_etf(6), patterns.pattern_set(6, 3, "exhaustive")[0]),
    }


@pytest.mark.parametrize("label", sorted(_zero_upper_cases()))
def test_factored_zero_upper_bitwise_equals_old_factor(label):
    f, pats = _zero_upper_cases()[label]
    a = np.array(f.data)
    for new, old in zip(spectral.factored(a, pats), _old_factored(a, pats), strict=True):
        assert np.array_equal(new[0], old[0])
        assert not np.triu(new[1], 1).any()
        assert np.array_equal(new[1], old[2])
        assert new[2] == old[3]
    assert np.array_equal(optimize.mlie_gradient(a, pats)[1], _old_gradient(a, pats))


def _chunk_case(complex_field):
    """12 x 6 unit rows and 10 patterns of 3.  Row 7 copies row 2, so pattern
    4 is singular; row 9 lies 5e-6 from row 4, so pattern 7 trips the pivot
    screen and is finite, with the eigen route's factor.  Both take the eigen
    route, mid-chunk at 3 patterns to a chunk."""
    a = np.array(random_unit_frame(12, 6, 21, complex_field).data)
    a[7] = a[2]
    v = a[0] - np.vdot(a[4], a[0]) * a[4]
    a[9] = math.cos(5e-6) * a[4] + math.sin(5e-6) * v / np.linalg.norm(v)
    rng = np.random.default_rng(22)
    free = np.setdiff1d(np.arange(12), (2, 4, 7, 9))
    pats = np.array([rng.choice(free, 3, replace=False) for _ in range(10)])
    pats[4], pats[7] = (7, 0, 2), (1, 9, 4)
    return a, pats


def _chunk_bytes(a, k, step):
    """The `_CHUNK_BYTES` that puts `step` k-patterns of the rows `a` in a chunk."""
    return step * k * (a.shape[1] + k) * a.itemsize


@pytest.mark.parametrize("complex_field", [False, True])
def test_chunking_never_shows_in_the_bits(complex_field, monkeypatch):
    a, pats = _chunk_case(complex_field)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", _chunk_bytes(a, 3, 3))
    assert [len(c) for c in spectral.chunks(a, pats)] == [3, 3, 3, 1]
    got = list(spectral.factored(a, pats))
    assert [(y is None, math.isinf(eta)) for _, y, eta in got[3:9]] == [
        (False, False), (True, True), (False, False),
        (False, False), (False, False), (False, False)]
    for p, (rows, y, eta) in zip(pats, got, strict=True):
        want_rows, want_y, want_eta = next(spectral.factored(a, [p]))
        assert np.array_equal(rows, want_rows)
        assert (y is None) == (want_y is None)
        assert y is None or y.tobytes(order="A") == want_y.tobytes(order="A")
        assert eta == want_eta
    # the gradient adds one block at a time; its sums must not see the blocks,
    # and the rho it returns is sampled_mlie's
    finite = np.delete(pats, 4, axis=0)
    assert len(spectral.chunks(a, finite)) == 3
    rho, chunked = optimize.mlie_gradient(a, finite)
    assert rho == optimize.sampled_mlie(a, finite)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", _chunk_bytes(a, 3, len(finite)))
    assert len(spectral.chunks(a, finite)) == 1
    one_rho, one_grad = optimize.mlie_gradient(a, finite)
    assert one_rho == rho and np.array_equal(chunked, one_grad)
    factorable = np.delete(pats, (4, 7), axis=0)
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", _chunk_bytes(a, 3, 3))
    assert [len(c) for c in spectral.chunks(a, factorable)] == [3, 3, 2]
    rho, grad = optimize.mlie_gradient(a, factorable)
    assert rho == optimize.sampled_mlie(a, factorable)
    assert np.array_equal(grad, _old_gradient(a, factorable))


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("layout", ["C", "F", "k1"])
def test_cholesky_factor_has_zero_upper_triangle(complex_field, layout):
    # C: the encoder's symmetrized numpy Gram; F: a full Fortran-ordered Gram.
    # potrf runs with clean=0: the lower triangle is clean=1's bit for bit,
    # and only the factor of `gram`'s own output has a zero upper triangle.
    f = random_unit_frame(9, 6, 18, complex_field)
    a_s = f.data[:1] if layout == "k1" else f.data[:5]
    g = a_s @ a_s.conj().T
    g = (g + g.conj().T) / 2.0 if layout == "C" else np.asfortranarray(g)
    potrf = get_lapack_funcs(("potrf",), (g,))[0]
    clean, info = potrf(g.copy(order="F"), lower=1, clean=1)
    assert info == 0
    assert np.array_equal(np.tril(spectral.cholesky(g)), clean)
    g = spectral.gram(a_s)
    clean, info = potrf(g.copy(order="F"), lower=1, clean=1)
    assert info == 0
    low = spectral.cholesky(g)
    assert not np.triu(low, 1).any() and np.array_equal(low, clean)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("k", [1, 5])
def test_gram_has_zero_strict_upper_triangle(complex_field, k):
    # `factored` takes `dot` over all of L^{-1}, so nothing may reach the
    # strict upper triangle; potrf without `clean` would keep the Gram's
    a_s = random_unit_frame(9, 6, 19, complex_field).data[:k]
    g = spectral.gram(a_s)
    assert g.shape == (k, k) and g.dtype == a_s.dtype
    assert not np.triu(g, 1).any()
    assert np.allclose(np.tril(g), np.tril(np.conj(a_s @ a_s.conj().T)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_routine_table_matches_scipy_getters(dtype):
    probe = np.ones((2, 2), dtype)
    herm = np.iscomplexobj(probe)
    expected = {
        "gram": get_blas_funcs("herk" if herm else "syrk", (probe,)),
        "dot": get_blas_funcs("dotc" if herm else "dot", (probe,)),
        "trmm": get_blas_funcs("trmm", (probe,)),
        "potrf": get_lapack_funcs(("potrf",), (probe,))[0],
        "trtri": get_lapack_funcs(("trtri",), (probe,))[0],
    }
    table = spectral.routines(probe.dtype)
    assert sorted(table) == sorted(expected)
    for role, fn in expected.items():
        assert (table[role].typecode, repr(table[role])) == (fn.typecode, repr(fn)), role


def _route_outputs(route, data, pats):
    """Every array and float a route returns for the pattern set, flattened."""
    if route == "gram_eigenvalues":
        return [x for s in pats for x in vars(spectral.gram_eigenvalues(data, s)).values()]
    if route == "factored":
        return [x for out in spectral.factored(data, pats) for x in out]
    out = getattr(optimize, route)(data, pats)
    return list(out) if route == "mlie_gradient" else [out]


@pytest.mark.parametrize("route", ["gram_eigenvalues", "factored", "sampled_mlie",
                                   "mlie_gradient"])
def test_float32_rows_compute_in_float64(route):
    # m = 5 is odd, so float32 rows cannot be viewed as float64 pairs: each
    # entry point casts them first and then matches the float64 call bitwise
    a = frames.build_random_iid(9, 5, seed=1).data
    pats, _ = patterns.pattern_set(9, 3, "exhaustive")
    got = _route_outputs(route, a.astype(np.float32), pats)
    want = _route_outputs(route, a.astype(np.float32).astype(np.float64), pats)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y)


@pytest.mark.parametrize("frame, k", [(frames.build_dss(47), 20),
                                      (frames.build_random_iid(30, 12, seed=19), 6)])
def test_warm_routine_table_makes_no_lookups(frame, k, monkeypatch):
    a = np.array(frame.data)
    pats, _ = patterns.pattern_set(frame.n, k, "sampled", 200, 20)
    optimize.mlie_gradient(a, pats[:1])  # warms the table for this dtype
    calls = []

    def counted(getter):
        def lookup(*args, **kwargs):
            calls.append(args[0])
            return getter(*args, **kwargs)
        return lookup

    for module in (spectral, optimize):
        for name in ("get_blas_funcs", "get_lapack_funcs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert all(math.isfinite(eta) for *_, eta in spectral.factored(a, pats))
    optimize.mlie_gradient(a, pats)
    assert calls == []


def test_routine_table_is_the_only_scipy_lookup():
    table = inspect.getsource(spectral.routines)
    for module in (spectral, optimize, coder, patterns, frames, rd, cli):
        source = inspect.getsource(module).replace(table, "")
        for token in ("get_blas_funcs(", "get_lapack_funcs("):
            assert token not in source, (module.__name__, token)


def test_no_module_tunes_the_allocator():
    # memory per op is kept down by allocating less, not by glibc settings
    package = Path(framelab.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        text = path.read_text()
        for token in ("ctypes", "mallopt", "MALLOC_"):
            assert token not in text, (path.name, token)


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


def _complex_rows_at_angle(theta, phase):
    a = np.zeros((3, 2), dtype=complex)
    a[0] = (1.0, 0.0)
    a[1] = np.exp(1j * phase) * np.array([math.cos(theta), 1j * math.sin(theta)])
    a[2] = (0.0, 1.0)
    return frames.Frame(a)


@pytest.mark.parametrize("frame", [
    _two_rows_at_angle(5e-6), _two_rows_at_angle(2e-6),
    _complex_rows_at_angle(4e-6, math.pi / 5),
], ids=["real-5e-6", "real-2e-6", "complex-4e-6"])
def test_screened_finite_pattern_takes_the_eigen_factor(monkeypatch, frame):
    # pivot^2 = sin^2(theta) trips the screen, yet lambda_min / lambda_max =
    # tan^2(theta / 2) stays above SINGULARITY_RATIO (6.25e-12, 1.0000056e-12
    # and 4e-12): finite, with no Cholesky factor
    a_s = frame.data[:2]
    assert spectral.cholesky(spectral.gram(a_s)) is None
    eta = spectral.gram_eigenvalues(frame, (0, 1)).eta
    assert math.isfinite(eta)
    calls = []
    factor = spectral.eigen_factor
    monkeypatch.setattr(spectral, "eigen_factor", lambda a, w: calls.append(a) or factor(a, w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b, b_eta = coder.encoder_matrix(frame, (0, 1))
        grad = optimize.mlie_gradient(frame, [(0, 1)])[1]
    assert len(calls) == 2  # one for the encoder, one for the gradient
    assert b_eta == eta
    pinv = np.linalg.pinv(a_s)
    assert np.linalg.norm(b - pinv) <= 1e-4 * np.linalg.norm(pinv)
    # A_s is square: G^{-2} A_s = A_s^{-H} A_s^{-1} A_s^{-H}
    n, m = frame.data.shape
    core = pinv.conj().T @ pinv @ pinv.conj().T
    want = 0.5 * (m / n) / (eta * math.log(2.0)) * (-2.0 / m) * core
    assert np.linalg.norm(grad[:2] - want) <= 1e-4 * np.linalg.norm(want)
    assert not grad[2].any()


def test_one_singular_pattern_exception():
    assert coder.SingularPatternError is spectral.SingularPatternError
    assert framelab.SingularPatternError is spectral.SingularPatternError
    assert issubclass(spectral.SingularPatternError, np.linalg.LinAlgError)
    assert issubclass(spectral.SingularPatternError, ValueError)


# sin^2(theta) = sqrt(eps): two unit rows at this angle sit on the screen's edge
_SCREEN_EDGE = math.asin(np.finfo(float).eps ** 0.25)


def _screened(g):
    """`cholesky`'s decision written out: potrf fails, or the squared pivot
    ratio of the factor, on numpy scalars, is at most sqrt(eps)."""
    clean, info = get_lapack_funcs(("potrf",), (g,))[0](np.array(g, order="F"), clean=1,
                                                        lower=1)
    d = clean.diagonal().real
    return info > 0 or d.min() ** 2 <= math.sqrt(np.finfo(float).eps) * d.max() ** 2, clean


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("theta", [0.0, 5e-6, _SCREEN_EDGE * (1 - 1e-6),
                                   _SCREEN_EDGE * (1 + 1e-6), 0.3])
def test_cholesky_factor_or_none(theta, complex_field):
    # theta = 0: identical rows, potrf refuses (real); 5e-6: potrf factors,
    # but pivot^2 = 2.5e-11 trips the screen; at the edge the squared pivot
    # ratio sin^2(theta) lies 2e-6 under or over sqrt(eps), far past the
    # rounding of 1 - cos^2(theta) (about 1.5e-8 of it); 0.3: the factor of G
    rows = (_complex_rows_at_angle(theta, math.pi / 5) if complex_field
            else _two_rows_at_angle(theta))
    a = rows.data[:2]
    g = a @ a.conj().T
    screened, clean = _screened(g)
    low = spectral.cholesky(np.array(g, order="F"))
    assert (low is None) == screened == (theta < _SCREEN_EDGE)
    if theta == 0.0 and not complex_field:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
    elif theta == 5e-6:
        assert abs(np.linalg.cholesky(g)[1, 1]) ** 2 <= 2.6e-11
    elif abs(theta / _SCREEN_EDGE - 1.0) < 1e-5:
        d = clean.diagonal().real
        assert abs(d.min() ** 2 / d.max() ** 2 / math.sqrt(np.finfo(float).eps) - 1) < 1e-5
        decisions = set()
        for j in range(-20, 21):  # across the edge, in steps under its rounding
            t = _SCREEN_EDGE * (1 + j * 2e-9)
            tilt = (_complex_rows_at_angle(t, math.pi / 5) if complex_field
                    else _two_rows_at_angle(t)).data[:2]
            g_j = tilt @ tilt.conj().T
            screened_j = spectral.cholesky(np.array(g_j, order="F")) is None
            assert screened_j == _screened(g_j)[0]
            decisions.add(screened_j)
        assert decisions == {True, False}
    if low is not None:
        # clean=0 keeps g's upper triangle; the factor is the lower one
        assert np.array_equal(np.tril(low), clean)
        assert np.allclose(np.tril(low) @ np.tril(low).conj().T, g, rtol=0.0, atol=1e-15)


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


def _rank_deficient_case(seed, m, complex_field, repeat):
    """A frame and a pattern of it with a singular Gram.  repeat: the pattern
    holds a row twice over (a repeated frame row); otherwise the frame's rows
    span only r < m dimensions and the pattern takes more than r of them."""
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
    return f, s


_RANK_DEFICIENT = st.builds(_rank_deficient_case, st.integers(0, 10 ** 6), st.integers(2, 9),
                            st.booleans(), st.booleans())


@given(_RANK_DEFICIENT)
@settings(max_examples=60, deadline=None)
def test_eta_never_nan_on_rank_deficient_patterns(case):
    f, s = case
    eta = spectral.inverse_energy(f, s)
    assert not math.isnan(eta)
    assert eta == math.inf or eta >= len(s) / f.m - 1e-9
    # the other consumers of the singularity policy see the same patterns
    assert optimize.sampled_mlie(f, [s]) == math.inf
    with pytest.raises(spectral.SingularPatternError):  # raises rather than return nan
        optimize.mlie_gradient(f, [s])
    with pytest.raises(coder.SingularPatternError):
        coder.encoder_matrix(f, s)


def _tilted_case(seed, m, theta, complex_field):
    """A random unit frame whose row 1 lies at the angle theta from row 0, and
    a pattern of up to m rows that holds both."""
    rng = np.random.default_rng(seed)
    a = np.array(random_unit_frame(m + 3, m, seed, complex_field).data)
    v = a[1] - np.vdot(a[0], a[1]) * a[0]
    a[1] = math.cos(theta) * a[0] + math.sin(theta) * v / np.linalg.norm(v)
    others = rng.choice(np.arange(2, m + 3), int(rng.integers(0, m - 1)), replace=False)
    return frames.Frame(a), (0, 1, *others.tolist())


_SCREENED_ANGLES = st.floats(1e-7, _SCREEN_EDGE, exclude_max=True)


@given(st.one_of(
    st.builds(lambda t, phase, complex_field: (
        _complex_rows_at_angle(t, phase) if complex_field else _two_rows_at_angle(t), (0, 1)),
        _SCREENED_ANGLES, st.floats(0.0, 2.0 * math.pi), st.booleans()),
    st.builds(_tilted_case, st.integers(0, 10 ** 6), st.integers(2, 9), _SCREENED_ANGLES,
              st.booleans()),
    _RANK_DEFICIENT))
@settings(max_examples=150, deadline=None)
def test_factored_gives_a_factor_exactly_for_finite_etas(case):
    # screened angles from 1e-7 (singular) to the screen's edge (finite, no
    # Cholesky factor), and the singular sets: every finite pattern has a
    # lower-triangular Y with ||Y||_F^2 / m = eta, and only inf has none
    f, s = case
    (_, y, eta), = spectral.factored(f.data, [s])
    assert (y is None) == math.isinf(eta)
    if y is not None:
        assert not np.triu(y, 1).any()
        assert abs(float(np.vdot(y, y).real) / f.m - eta) <= 1e-12 * eta


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


def _law_cases():
    """frame, k and the law `reference_law` should name."""
    return {
        "iid_real": (frames.build_random_iid(40, 20, seed=0), 10, "marchenko_pastur"),
        "iid_complex": (frames.build_random_iid(40, 20, field="complex"), 16,
                        "marchenko_pastur"),
        "dss": (frames.build_dss(31), 10, "manova"),
        "dft_spectrum": (frames.build_dft_spectrum(31, [1, 3, 4, 8, 11, 17, 20, 21, 25, 27]),
                         8, "manova"),
        "paley": (frames.build_paley_etf(38), 12, "manova"),
        "paley_full": (frames.build_paley_etf(38), 19, "manova"),
        "paley_m_over_k_above_n_over_m": (frames.build_paley_etf(38), 9, "none"),
        "spectrum_k_plus_m_above_n": (frames.build_dft_spectrum(8, range(6)), 5, "none"),
        "square_dft": (frames.build_dft_spectrum(8, range(8)), 3, "none"),
        "bandlimited": (frames.build_bandlimited_dft(13, 7), 5, "none"),
        "custom": (random_unit_frame(31, 12, seed=6), 8, "none"),
    }


@pytest.mark.parametrize("label", sorted(_law_cases()))
def test_reference_law_by_family(label):
    f, k, name = _law_cases()[label]
    law = spectral.reference_law(f, k)
    beta, w = f.m / k, f.m / f.n
    assert law.name == name
    if name == "marchenko_pastur":
        assert law.eta_limit == spectral.mp_eta_limit(beta)
        assert law.value_range == (0.0, 1.02 * spectral.mp_edges(beta)[1])
    else:
        assert law.value_range == (0.0, f.n / f.m)
    if name == "manova":
        assert law.eta_limit == spectral.manova_eta_limit(beta, w)
    if name == "none":
        assert law.eta_limit is None
        assert not law.density(np.linspace(0.0, 4.0, 9)).any()


@pytest.mark.parametrize("label", ["iid_real", "dss", "paley"])
def test_reference_density_on_all_centres_equals_per_centre_calls(label):
    # eig-hist evaluates the density once on every bin centre; it used to
    # call it once per centre, and the two must give the same bits
    f, k, _ = _law_cases()[label]
    law = spectral.reference_law(f, k)
    beta, w = f.m / k, f.m / f.n
    one = (functools.partial(spectral.mp_density, beta=beta) if label == "iid_real"
           else functools.partial(spectral.manova_density, m_over_n=w, beta=beta))
    edges = np.linspace(*law.value_range, 101)
    centres = (edges[:-1] + edges[1:]) / 2.0
    together = law.density(centres)
    assert together.shape == (100,) and together.any()
    assert together.tolist() == [float(one(np.array([c]))[0]) for c in centres]


def test_reference_law_refuses_k_outside_the_frame():
    f = frames.build_dss(7)
    for k in (0, 4):
        with pytest.raises(ValueError, match="0 < k <= m"):
            spectral.reference_law(f, k)
        with pytest.raises(ValueError, match="0 < k <= m"):
            spectral.eigen_histogram(f, k, trials=2)


def test_eigen_histogram_default_range_is_the_law_range():
    f = frames.build_random_iid(40, 20, seed=0)
    h = spectral.eigen_histogram(f, 10, trials=3, bins=20, seed=1)
    assert (h.bin_edges[0], h.bin_edges[-1]) == spectral.reference_law(f, 10).value_range
    # the old default [0, n/m] = [0, 2] cut the sample short
    assert f.n / f.m < h.max_eigenvalue < h.bin_edges[-1]


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
