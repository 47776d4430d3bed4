"""Coding-chain simulation: pseudo-inverse encoder, Wiener decoding, and the
energy/distortion identities the model predicts."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from framelab import coder, frames, patterns, rd, spectral


def test_encoder_matrix_unitary_is_adjoint():
    # orthonormal rows: (A_s A_s')^{-1} = I, so B_s is just the adjoint
    f = frames.build_bandlimited_dft(8, 8)
    b, eta = coder.encoder_matrix(f, (1, 4, 6))
    assert eta == pytest.approx(3 / 8, rel=1e-15)
    assert b.shape == (8, 3)
    assert np.allclose(b, f.submatrix((1, 4, 6)).conj().T, atol=1e-12)


def test_encoder_matrix_interpolates_exactly():
    f = frames.build_dss(7)
    for pat in [(1, 5), (0, 2, 6), (3,)]:
        b, _ = coder.encoder_matrix(f, pat)
        a_s = f.submatrix(pat)
        assert np.allclose(a_s @ b, np.eye(len(pat)), atol=1e-10)


def test_encoder_matrix_energy_is_eta():
    # the encoder's eta is the kernel's, and ||B_s||^2 / m agrees with it;
    # the kernel's, so the bare rows' (a dss Frame takes `spectral.dss_eta`)
    f = frames.build_dss(11)
    for pat in [(0, 3, 7), (1, 2, 4, 8), (5, 9), (8, 4, 2, 1)]:
        b, eta = coder.encoder_matrix(f, pat)
        assert eta == spectral.inverse_energy(f.data, pat)
        assert abs(np.vdot(b, b).real / f.m - eta) < 1e-10


def test_encoder_matrix_singular():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])  # rows t and t+4 coincide
    with pytest.raises(coder.SingularPatternError):
        coder.encoder_matrix(f, (0, 4))


def _cho_solve_encoder(frame, pattern):
    """B_s as the encoder formed it before it read the kernel's factor: a
    numpy Gram in the pattern's order, symmetrized, and a Cholesky solve."""
    a_s = frame.submatrix(pattern)
    g = a_s @ a_s.conj().T
    low = spectral.cholesky((g + g.conj().T) / 2.0)
    assert low is not None  # a screened pattern took another route
    return cho_solve((low, True), a_s, check_finite=False).conj().T


@pytest.mark.parametrize("build, k", [
    (lambda: frames.build_random_iid(40, 20, seed=0), 12),
    (lambda: frames.build_random_iid(30, 16, field="complex", seed=1), 9),
    (lambda: frames.build_paley_etf(38), 10),
    (lambda: frames.build_dss(127), 50),
], ids=["iid-real", "iid-complex", "paley38", "dss127"])
def test_encoder_matrix_matches_the_cho_solve_encoder(build, k):
    # the factor's canonical order maps back to the pattern's: sorted and
    # shuffled patterns alike give the old solve's B_s to rounding
    f = build()
    rng = np.random.default_rng(k)
    for t in range(20):
        pat = rng.choice(f.n, k, replace=False)
        pat = tuple((np.sort(pat) if t % 2 else pat).tolist())
        b, eta = coder.encoder_matrix(f, pat)
        want = _cho_solve_encoder(f, pat)
        assert np.linalg.norm(b - want) <= 1e-12 * np.linalg.norm(want), pat
        assert eta == spectral.inverse_energy(f.data, pat)


def test_encoder_matrix_reads_the_kernel_factor_only():
    # no Gram, solve or singularity decision of the coder's own: every
    # consumer reads one factor, one singular decision and one eta
    source = inspect.getsource(coder)
    for token in ("cho_solve", "scipy", "np.linalg", "vdot", "cholesky", "gram_eigenvalues",
                  "eigen_factor", "spectral.gram", "a_s.conj().T"):
        assert token not in source, token
    assert "spectral.factored" in inspect.getsource(coder.encoder_matrix)


def test_simulate_unitary_distortion():
    # square unitary at sigma_x = sigma_q: Wiener distortion 1/2
    f = frames.build_bandlimited_dft(16, 16)
    r = coder.simulate(f, 16, 1.0, 1.0, trials=20000, seed=0)
    assert abs(r.empirical_distortion - 0.5) < 0.02
    assert r.alpha == 0.5
    assert r.model_distortion == 0.5
    assert r.singular_skipped == 0


def test_simulate_noiseless_recovers_exactly():
    f = frames.build_dss(7)
    r = coder.simulate(f, 3, 1.0, 0.0, trials=500, seed=1)
    assert r.alpha == 1.0
    assert r.max_interp_error < 1e-9
    assert r.empirical_distortion < 1e-18
    assert r.empirical_rate == math.inf


def test_simulate_energy_identity():
    # (1/m) E||f||^2 = eta_s sigma_x^2, per pattern and in aggregate
    f = frames.build_dss(7)
    r = coder.simulate(f, 3, 1.0, 1.0, trials=3000, seed=2)
    used = r.trials - r.singular_skipped
    for tally in r.per_pattern.values():
        if tally.count >= 50:
            assert abs(tally.f_energy_mean - tally.eta) < 4.0 * tally.f_energy_se
    total_sq = sum(t.f_energy_sqsum for t in r.per_pattern.values())
    se = math.sqrt((total_sq / used - r.empirical_f_energy ** 2) / used)
    assert abs(r.empirical_f_energy - r.model_f_energy) < 3.0 * se


def test_simulate_fixed_pattern():
    f = frames.build_dss(7)
    r = coder.simulate(f, 2, 1.0, 0.5, trials=2000, seed=3, pattern=(1, 5))
    assert set(r.per_pattern) == {(1, 5)}
    assert r.per_pattern[(1, 5)].count == 2000
    eta = spectral.inverse_energy(f, (1, 5))
    assert abs(r.model_f_energy - eta) < 1e-12
    with pytest.raises(ValueError):
        coder.simulate(f, 3, 1.0, 0.5, trials=10, pattern=(1, 5))  # size mismatch
    with pytest.raises(ValueError):
        coder.simulate(f, 2, 1.0, 0.5, trials=10, pattern=(1, 1, 5))  # two distinct of three


def _reference_simulate(frame, k, sigma_x2, sigma_q2, trials, seed=0, pattern=None):
    """The two-path loop that `simulate`'s one trial path replaced: a block of
    all trials for a fixed pattern, scaled by alpha before the decoder matmul,
    and otherwise one matrix-vector trial at a time."""
    n, m = frame.n, frame.m
    cplx = frame.field == "complex"
    alpha = rd.wiener_alpha(sigma_x2, sigma_q2)
    cache, tallies = {}, {}
    sq_err_sum = f_energy_sum = max_interp = 0.0
    used = skipped = 0

    def lookup(idx):
        if idx not in cache:
            try:
                b, eta = coder.encoder_matrix(frame, idx)
            except coder.SingularPatternError:
                cache[idx] = None
            else:
                cache[idx] = (frame.submatrix(idx), b, eta)
        return cache[idx]

    if pattern is not None:
        fixed = tuple(int(i) for i in pattern)
        a_s, b, eta = lookup(fixed)
        rng = np.random.default_rng(seed)
        x = coder._draw(rng, (trials, k), sigma_x2, cplx)
        q = coder._draw(rng, (trials, m), sigma_q2, cplx)
        f = x @ b.T
        err = np.abs(alpha * (f + q) @ a_s.T - x) ** 2
        fe = np.sum(np.abs(f) ** 2, axis=1) / m
        sq_err_sum, f_energy_sum = float(err.sum()), float(fe.sum())
        max_interp = float(np.sqrt(err.sum(axis=1).max()))
        tallies[fixed] = coder.PatternTally(eta, trials, f_energy_sum, float((fe * fe).sum()))
        used = trials
    else:
        for t in range(trials):
            rng = np.random.default_rng((seed, t))
            idx = patterns.sample_pattern(n, k, seed=(seed, t, 1))
            entry = lookup(idx)
            if entry is None:
                skipped += 1
                continue
            a_s, b, eta = entry
            tally = tallies.setdefault(idx, coder.PatternTally(eta=eta))
            x = coder._draw(rng, k, sigma_x2, cplx)
            q = coder._draw(rng, m, sigma_q2, cplx)
            f = b @ x
            err = float(np.sum(np.abs(alpha * (a_s @ (f + q)) - x) ** 2))
            fe = float(np.sum(np.abs(f) ** 2)) / m
            sq_err_sum += err
            f_energy_sum += fe
            max_interp = max(max_interp, math.sqrt(err))
            tally.count += 1
            tally.f_energy_sum += fe
            tally.f_energy_sqsum += fe * fe
            used += 1
    emp_energy = f_energy_sum / used
    return coder.CoderReport(
        empirical_distortion=sq_err_sum / (used * k),
        model_distortion=rd.wiener_distortion(sigma_x2, sigma_q2),
        empirical_f_energy=emp_energy,
        model_f_energy=math.fsum(t.eta * t.count for t in tallies.values()) / used * sigma_x2,
        empirical_rate=(m / n) * 0.5 * math.log2(1.0 + emp_energy / sigma_q2),
        max_interp_error=max_interp, alpha=alpha, sigma_x2=sigma_x2, sigma_q2=sigma_q2,
        trials=trials, seed=seed, n=n, m=m, k=k, singular_skipped=skipped,
        per_pattern=tallies)


def _report_fields(report):
    fields = dataclasses.asdict(report)
    fields["per_pattern"] = {idx: dataclasses.astuple(t)
                             for idx, t in report.per_pattern.items()}
    return fields


@pytest.mark.parametrize("build, k, seed, skipped", [
    (lambda: frames.build_random_iid(40, 20, seed=0), 12, 0, 0),
    (lambda: frames.build_random_iid(30, 16, field="complex", seed=1), 9, 2, 0),
    (lambda: frames.build_paley_etf(38), 10, 3, 0),
    (lambda: frames.build_dss(31), 5, 1, 0),
    (lambda: frames.build_dft_spectrum(8, [0, 2, 4, 6]), 2, 5, 42),
], ids=["iid-real", "iid-complex", "paley38", "dss31", "spectrum-singular"])
def test_simulate_sampled_matches_per_trial_reference(build, k, seed, skipped):
    f = build()
    got = coder.simulate(f, k, 1.0, 0.5, trials=300, seed=seed)
    assert got.singular_skipped == skipped
    for idx, tally in got.per_pattern.items():  # the tally's eta is the kernel's
        assert tally.eta == spectral.inverse_energy(f.data, idx)
    assert _report_fields(got) == _report_fields(
        _reference_simulate(f, k, 1.0, 0.5, trials=300, seed=seed))


def test_simulate_fixed_matches_block_reference():
    # alpha = 1/2 scales exactly, so the order of scaling and matmul is moot
    f = frames.build_dss(7)
    got = coder.simulate(f, 3, 1.0, 1.0, trials=200, pattern=(5, 1, 3))
    assert got.alpha == 0.5
    assert _report_fields(got) == _report_fields(
        _reference_simulate(f, 3, 1.0, 1.0, trials=200, pattern=(5, 1, 3)))
    # alpha = 1/1.3 rounds, so scaling after the matmul moves the last digits:
    # on this block the two orders differ in some entry, and the reports agree
    # to 1e-15 (whether a rounded sum moves is the BLAS kernel's accident)
    f, pattern = frames.build_paley_etf(14), (2, 5, 6, 11)
    alpha = rd.wiener_alpha(1.0, 0.3)
    rng = np.random.default_rng(0)
    x = coder._draw(rng, (10000, 4), 1.0, False)
    y = x @ coder.encoder_matrix(f, pattern)[0].T + coder._draw(rng, (10000, f.m), 0.3, False)
    a_s = f.submatrix(pattern)
    assert np.any(alpha * (y @ a_s.T) != (alpha * y) @ a_s.T)
    got = _report_fields(coder.simulate(f, 4, 1.0, 0.3, trials=10000, pattern=pattern))
    want = _report_fields(_reference_simulate(f, 4, 1.0, 0.3, trials=10000, pattern=pattern))
    for key, value in want.items():
        if key == "per_pattern":
            for idx, tally in value.items():
                assert got[key][idx] == pytest.approx(tally, rel=1e-15, abs=0.0)
        else:
            assert got[key] == pytest.approx(value, rel=1e-15, abs=0.0), key


def test_simulate_fixed_singular_pattern():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    with pytest.raises(coder.SingularPatternError, match="fixed pattern"):
        coder.simulate(f, 2, 1.0, 0.5, trials=10, pattern=(0, 4))


def test_simulate_every_sampled_pattern_singular():
    # four equal rows: every 2-pattern has rank 1
    f = frames.Frame(np.ones((4, 3)) / math.sqrt(3.0))
    with pytest.raises(coder.SingularPatternError, match="every sampled pattern"):
        coder.simulate(f, 2, 1.0, 0.5, trials=10, seed=0)


def test_simulate_full_pattern_shortcut():
    # k = n has exactly one pattern; the sampler is bypassed
    f = frames.build_bandlimited_dft(16, 16)
    r = coder.simulate(f, 16, 1.0, 0.5, trials=1000, seed=5)
    assert abs(r.empirical_distortion - r.model_distortion) < 0.03
    assert set(r.per_pattern) == {tuple(range(16))}


def test_simulate_real_field():
    f = frames.build_paley_etf(6)
    r = coder.simulate(f, 2, 1.0, 1.0, trials=5000, seed=3)
    assert abs(r.empirical_distortion - 0.5) < 0.05


def test_simulate_quantizer_grid_monotone():
    # finer quantizer: lower distortion, higher rate
    f = frames.build_dss(7)
    ds, rates = [], []
    for sq in (1.0, 0.25, 0.05):
        r = coder.simulate(f, 3, 1.0, sq, trials=2000, seed=4)
        ds.append(r.empirical_distortion)
        rates.append(r.empirical_rate)
    assert ds[0] > ds[1] > ds[2]
    assert rates[0] < rates[1] < rates[2]


def test_simulate_deterministic():
    f = frames.build_dss(7)
    a = coder.simulate(f, 3, 1.0, 1.0, trials=200, seed=9)
    b = coder.simulate(f, 3, 1.0, 1.0, trials=200, seed=9)
    assert a.empirical_distortion == b.empirical_distortion
    assert a.empirical_f_energy == b.empirical_f_energy
    c = coder.simulate(f, 3, 1.0, 1.0, trials=200, seed=10)
    assert c.empirical_distortion != a.empirical_distortion


def test_simulate_validation():
    f = frames.build_dss(7)
    with pytest.raises(ValueError):
        coder.simulate(f, 4, 1.0, 1.0, trials=10)  # k > m


def _epsilon_frame(eps):
    # rows 0 and 1 are eps apart in angle, so patterns holding both come
    # close to singular as eps shrinks
    return frames.Frame(np.array([[1.0, 0.0, 0.0],
                                  [math.cos(eps), math.sin(eps), 0.0],
                                  [0.0, 0.0, 1.0],
                                  [0.0, 1.0, 0.0]]))


def _family_cases():
    yield frames.build_bandlimited_dft(13, 7), (0, 3, 4, 9, 12)
    yield frames.build_random_iid(12, 6, field="complex", seed=2), (1, 2, 5, 7)
    yield frames.build_dss(11), (0, 3, 7)
    yield frames.build_paley_etf(14), (2, 5, 6, 11, 13)


def _agreement_cases():
    for eps in (1e-5, 5e-6, 1e-6):
        f = _epsilon_frame(eps)
        for k in (2, 3):
            for pat in itertools.combinations(range(4), k):
                yield f, pat
    aliased = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    for pat in itertools.combinations(range(8), 2):
        yield aliased, pat
    yield from _family_cases()


def test_encoder_matrix_and_inverse_energy_agree_on_singularity():
    singular = finite = 0
    for f, pat in _agreement_cases():
        eta = spectral.inverse_energy(f, pat)
        if math.isinf(eta):
            singular += 1
            with pytest.raises(coder.SingularPatternError):
                coder.encoder_matrix(f, pat)
        else:
            finite += 1
            b, b_eta = coder.encoder_matrix(f, pat)
            # the encoder's eta is the kernel's; a dss Frame's (`dss_eta`)
            # may differ from it in the last bits on another BLAS kernel
            assert b_eta == spectral.inverse_energy(f.data, pat)
            assert b_eta == pytest.approx(eta, rel=1e-13)
            assert np.vdot(b, b).real / f.m == pytest.approx(eta, rel=1e-4), (f.data, pat)
    assert singular >= 5 and finite >= 20
    # the eps = 5e-6 pattern the eigenvalue test keeps, just above the threshold
    assert math.isfinite(spectral.inverse_energy(_epsilon_frame(5e-6), (0, 1, 2)))


def test_encoder_matrix_failed_cholesky_falls_back(monkeypatch):
    f = frames.build_dss(11)
    want, _ = coder.encoder_matrix(f, (0, 3, 7))
    monkeypatch.setattr(spectral, "cholesky", lambda g: None)
    assert np.allclose(coder.encoder_matrix(f, (0, 3, 7))[0], want, atol=1e-12)
    with pytest.raises(coder.SingularPatternError):
        coder.encoder_matrix(frames.build_dft_spectrum(8, [0, 2, 4, 6]), (0, 4))
