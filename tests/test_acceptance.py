"""Acceptance suite: thirteen end-to-end checks, one per shipped claim.

Each test prints a single `[C##] PASS/FAIL` line with the measured numbers
(visible with `pytest tests/test_acceptance.py -v -s`) and then asserts.
Heavy shared computations (the n=947 frames and their pattern sweeps) live in
module-scoped fixtures so later criteria reuse them.
"""

import math
import time

import numpy as np
import pytest

from framelab import coder, frames, optimize, patterns, rd, spectral

BETA_947 = 473 / 378


def _report(cid, ok, detail):
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    return detail


def _etas(frame, k, n_patterns, seed):
    start = time.monotonic()
    vals = [
        spectral.inverse_energy(frame, patterns.sample_pattern(frame.n, k, seed=(seed, t)))
        for t in range(n_patterns)
    ]
    return np.array(vals), time.monotonic() - start


@pytest.fixture(scope="module")
def dss947():
    return frames.build_dss(947)


@pytest.fixture(scope="module")
def dss947_etas(dss947):
    return _etas(dss947, 378, 500, seed=0)


@pytest.fixture(scope="module")
def spec947_etas():
    rng = np.random.default_rng(1)
    spec = sorted(rng.choice(947, size=473, replace=False).tolist())
    frame = frames.build_dft_spectrum(947, spec)
    return _etas(frame, 378, 500, seed=0)


@pytest.fixture(scope="module")
def iid500_etas():
    frame = frames.build_random_iid(500, 400, seed=0)
    return _etas(frame, 320, 500, seed=0)


@pytest.fixture(scope="module")
def bl_medians():
    small = frames.build_bandlimited_dft(101, 50)
    big = frames.build_bandlimited_dft(499, 249)
    es, _ = _etas(small, 40, 200, seed=5)
    eb, _ = _etas(big, 199, 200, seed=5)
    return (float(np.median(np.log10(es[np.isfinite(es)]))),
            float(np.median(np.log10(eb[np.isfinite(eb)]))))


def test_c01_inverse_energy_floor():
    # >= 1e4 (frame, pattern) draws over all five families: eta never dips
    # below k/m - 1e-9, and the 1e-9 equality window coincides with
    # orthonormal-row submatrices (both implications, with a guaranteed
    # numerical gap so the classification cannot flake)
    start = time.monotonic()
    pools = [
        ("bandlimited", [frames.build_bandlimited_dft(24, 12),
                         frames.build_bandlimited_dft(16, 16),
                         frames.build_bandlimited_dft(31, 17)], 1500),
        ("iid", [frames.Frame(optimize.project_rows(
            np.array(frames.build_random_iid(20, 10, seed=s).data)), kind="custom")
            for s in range(3)], 2000),
        ("spectrum", [frames.build_dft_spectrum(
            31, sorted(np.random.default_rng(s).choice(31, 16, replace=False).tolist()))
            for s in range(3)], 2000),
        ("dss", [frames.build_dss(p) for p in (7, 11, 19, 23, 31)], 2500),
        ("paley", [frames.build_paley_etf(n) for n in (6, 14, 38)], 2000),
    ]
    draws = equalities = orthonormals = 0
    for kind_i, (kind, pool, n_draws) in enumerate(pools):
        rng = np.random.default_rng(kind_i)
        for t in range(n_draws):
            frame = pool[t % len(pool)]
            k = int(rng.integers(1, frame.m + 1))
            pat = patterns.sample_pattern(frame.n, k, seed=(kind_i, t))
            eta = spectral.inverse_energy(frame, pat)
            if not math.isfinite(eta):
                continue
            draws += 1
            floor = k / frame.m
            assert eta >= floor - 1e-9, f"{kind}: eta={eta} below k/m={floor}"
            a_s = frame.submatrix(pat)
            resid = float(np.abs(a_s @ a_s.conj().T - np.eye(k)).max())
            if abs(eta - floor) <= 1e-9:
                equalities += 1
                assert resid <= 1e-3, f"{kind}: equality without orthonormal rows"
            if resid <= 1e-9:
                orthonormals += 1
                assert abs(eta - floor) <= 1e-9, f"{kind}: orthonormal rows, eta off floor"
    elapsed = time.monotonic() - start
    ok = draws >= 10_000 and equalities > 0 and orthonormals > 0 and elapsed < 60.0
    detail = _report("C01", ok, f"{draws} draws, {equalities} equality cases, "
                                f"{orthonormals} orthonormal, {elapsed:.1f}s")
    assert ok, detail


def test_c02_iid_concentration(iid500_etas):
    etas, elapsed = iid500_etas
    q1, med, q3 = np.percentile(etas, [25, 50, 75])
    iqr = q3 - q1
    ok = 3.6 <= med <= 4.4 and iqr < 0.15 * med and elapsed < 120.0
    detail = _report("C02", ok, f"median={med:.4f} (target [3.6, 4.4]), "
                                f"IQR={iqr:.4f} ({iqr / med:.1%} of median), {elapsed:.1f}s")
    assert ok, detail


def test_c03_manova_limit(dss947_etas, spec947_etas):
    limit = spectral.manova_eta_limit(BETA_947, 473 / 947)
    etas_d, t_d = dss947_etas
    etas_s, t_s = spec947_etas
    dev_d = abs(etas_d.mean() - limit) / limit
    dev_s = abs(etas_s.mean() - limit) / limit
    elapsed = t_d + t_s
    ok = dev_d < 0.05 and dev_s < 0.05 and elapsed < 600.0
    detail = _report("C03", ok, f"closed-form limit={limit:.4f}, dss mean={etas_d.mean():.4f} "
                                f"({dev_d:.2%}), spectrum mean={etas_s.mean():.4f} "
                                f"({dev_s:.2%}), {elapsed:.0f}s")
    assert ok, detail


def test_c04_eigen_density_fits(dss947):
    mp_hi = 1.02 * spectral.mp_edges(BETA_947)[1]
    iid = frames.build_random_iid(947, 473, seed=0)
    assert spectral.reference_law(iid, 378).value_range == (0.0, mp_hi)
    h_iid = spectral.eigen_histogram(iid, 378, trials=200, bins=100, seed=0)
    l1_iid = spectral.l1_density_distance(h_iid, lambda x: spectral.mp_density(x, BETA_947))
    h_dss = spectral.eigen_histogram(dss947, 378, trials=200, bins=100, seed=0)
    l1_dss = spectral.l1_density_distance(
        h_dss, lambda x: spectral.manova_density(x, 473 / 947, BETA_947))
    # the deterministic-spectrum ensemble keeps its smallest eigenvalue
    # farther from zero than the i.i.d. one, seed after seed
    wins = 0
    seed_pairs = [(h_dss.min_eigenvalue, h_iid.min_eigenvalue)]
    for seed in range(1, 5):
        hd = spectral.eigen_histogram(dss947, 378, trials=100, bins=10, seed=seed)
        hi = spectral.eigen_histogram(frames.build_random_iid(947, 473, seed=seed),
                                      378, trials=100, bins=10, seed=seed)
        seed_pairs.append((hd.min_eigenvalue, hi.min_eigenvalue))
    wins = sum(d > i for d, i in seed_pairs)
    ok = l1_iid < 0.1 and l1_dss < 0.1 and wins == 5
    detail = _report("C04", ok, f"L1 iid-vs-MP={l1_iid:.4f}, dss-vs-MANOVA={l1_dss:.4f} "
                                f"(both < 0.1), min-eig contrast {wins}/5 seeds")
    assert ok, detail


def test_c05_bandlimited_divergence(bl_medians):
    small, big = bl_medians
    gap = big - small
    ok = gap >= 1.0
    detail = _report("C05", ok, f"median log10 eta {small:.3f} (n=101) -> {big:.3f} "
                                f"(n=499): +{gap:.2f} decades")
    assert ok, detail


def test_c06_etf_certification(dss947):
    worst = ("", 0.0)
    ok = True
    for name, frame in (
        [(f"dss{p}", frames.build_dss(p)) for p in (7, 11, 19)]
        + [("dss947", dss947)]
        + [(f"paley{n}", frames.build_paley_etf(n)) for n in (6, 14, 38)]
    ):
        rep = frames.verify_etf(frame)
        ok = ok and rep.is_tight and rep.is_equiangular and rep.max_welch_deviation < 1e-10
        if rep.max_welch_deviation > worst[1]:
            worst = (name, rep.max_welch_deviation)
    detail = _report("C06", ok, f"7 frames tight+equiangular, worst Welch deviation "
                                f"{worst[1]:.2e} ({worst[0]})")
    assert ok, detail


def test_c07_difference_set_exactness():
    ps = [p for p in range(3, 200)
          if p % 4 == 3 and all(p % d for d in range(2, int(p ** 0.5) + 1))]
    ok = len(ps) == 24
    for p in ps:
        ds = frames.quadratic_difference_set(p)  # construction re-validates
        counts = ds.difference_counts()
        ok = ok and ds.m == (p - 1) // 2 and ds.lam == (p - 3) // 4
        ok = ok and int(counts[0]) == ds.m and bool(np.all(counts[1:] == ds.lam))
        ok = ok and ds.lam * (ds.n - 1) == ds.m * (ds.m - 1)
    detail = _report("C07", ok, f"{len(ps)} primes = 3 mod 4 below 200, all "
                                f"difference counts integer-exact")
    assert ok, detail


def test_c08_coder_model():
    u = frames.build_bandlimited_dft(16, 16)
    r = coder.simulate(u, 16, 1.0, 1.0, trials=100_000, seed=0)
    d_err = abs(r.empirical_distortion - 0.5)
    f31 = frames.build_dss(31)
    worst_z = 0.0
    for j in range(3):
        pat = patterns.sample_pattern(31, 12, seed=(8, j))
        rr = coder.simulate(f31, 12, 1.0, 1.0, trials=2000, seed=j, pattern=pat)
        tally = rr.per_pattern[pat]
        worst_z = max(worst_z, abs(tally.f_energy_mean - tally.eta) / tally.f_energy_se)
    r0 = coder.simulate(f31, 12, 1.0, 0.0, trials=500, seed=3)
    ok = d_err < 0.01 and worst_z < 3.0 and r0.max_interp_error < 1e-9 and r0.alpha == 1.0
    detail = _report("C08", ok, f"|D - 0.5|={d_err:.4f} (1e5 trials), worst energy "
                                f"z={worst_z:.2f} (<3), q=0 error={r0.max_interp_error:.1e}")
    assert ok, detail


def test_c09_excess_rate_identities():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10_000):
        p = rng.uniform(0.05, 0.95)
        beta = rng.uniform(1.0, 4.0)
        gamma = 10.0 ** rng.uniform(1e-6, 6.0)
        eta = (1.0 / beta) * (1.0 + 10.0 ** rng.uniform(-3.0, 2.0))
        direct = rd.excess_rate(p, beta, gamma, eta)
        via = rd.scheme_rate(1.0, beta * p, eta, gamma) - rd.rdf(p, gamma)
        worst = max(worst, abs(direct - via))
    exact_zero = rd.excess_rate(0.3, 1.0, 50.0, 1.0) == 0.0
    eta125 = spectral.manova_eta_limit(1.25)
    gap = abs(rd.excess_rate(0.5, 1.25, 1e3, eta125)
              - rd.excess_rate_highres(0.5, 1.25, 1e3, eta125))
    ok = worst < 1e-12 and exact_zero and gap < 0.01
    detail = _report("C09", ok, f"identity worst |err|={worst:.1e} over 1e4 draws, "
                                f"delta(1,1)=0 exact, high-res gap={gap:.4f} bits")
    assert ok, detail


def test_c10_random_transform_vs_side_information():
    # Clauses 1-2: the optimal-beta excess delta*(gamma) at p = 0.2 is 0 at
    # 0 dB and grows without bound, while side information costs a fixed
    # H_b(0.2).  On the integer 0-300 dB grid the curve crosses H_b exactly
    # once, bracketed at 220..221 dB: the random transform wins below the
    # crossover and side information above it, so 0-60 dB holds no crossover.
    # Clause 3: delta(beta*) / ((p/2) log2 ln gamma) -> 1 monotonically.
    p = 0.2
    hb = rd.si_benchmark(p)
    grid = range(301)
    deltas = []
    for db in grid:
        gamma = rd.gamma_from_db(db)
        if gamma <= 1.0:
            gamma = 1.0 + 1e-12
        deltas.append(rd.optimize_beta(p, gamma)[1])
    signs = [d - hb for d in deltas]
    crossings = [
        (grid[i], grid[i + 1]) for i in range(len(signs) - 1)
        if signs[i] == 0.0 or (signs[i] < 0.0) != (signs[i + 1] < 0.0)
    ]
    bracket_ok = crossings == [(220, 221)]
    transform_wins_below = all(s < 0.0 for s in signs[:221])
    si_wins_above = all(s > 0.0 for s in signs[221:])
    none_by_60 = signs[60] < 0.0
    ratios = [rd.optimize_beta(p, g)[1] / rd.high_sdr_asymptote(p, g)
              for g in (1e4, 1e8, 1e12)]
    gaps = [abs(r - 1.0) for r in ratios]
    ratio_ok = gaps[0] > gaps[1] > gaps[2]
    ok = bracket_ok and transform_wins_below and si_wins_above and none_by_60 and ratio_ok
    measured = ";".join(f"{a}..{b}" for a, b in crossings) or "none"
    detail = _report(
        "C10", ok,
        f"crossover_db={measured} on 0-300 dB (expected 220..221), H_b={hb:.4f}, "
        f"delta*(60 dB)={deltas[60]:.4f}, delta*(220 dB)={deltas[220]:.6f}, "
        f"delta*(221 dB)={deltas[221]:.6f}; random transform wins on 0..220 dB: "
        f"{transform_wins_below}, side information on 221..300 dB: {si_wins_above}; "
        f"asymptote ratios {ratios[0]:.5f} -> {ratios[1]:.5f} -> {ratios[2]:.5f} "
        f"(monotone toward 1: {ratio_ok})")
    assert ok, detail


def test_c11_square_matrix_divergence():
    rows = patterns.square_random_divergence([16, 32, 64], trials=100, seed=0)
    medians = [r.median for r in rows]
    frac64 = rows[-1].fraction_above
    ok = medians[0] < medians[1] < medians[2] and frac64 > 0.99
    detail = _report("C11", ok, f"medians {medians[0]:.1f} < {medians[1]:.1f} < "
                                f"{medians[2]:.1f}, P[eta >= 2] at k=64: {frac64:.2f}")
    assert ok, detail


def test_c12_local_minimizer_verification():
    results = {}
    for name, frame in (("dss7", frames.build_dss(7)),
                        ("paley6", frames.build_paley_etf(6))):
        v = optimize.verify_local_min(frame, 2, epsilons=(1e-3,), trials=200, seed=0)
        results[name] = v.perturbation_verdicts[0][3]  # max decrease
    vi = optimize.verify_local_min(frames.build_random_iid(12, 6, seed=0), 4,
                                   epsilons=(1e-3,), trials=200, seed=0,
                                   decrease_threshold=1e-4)
    frac_iid = vi.perturbation_verdicts[0][2]
    # gradient oracle: analytic vs central differences, relative error
    a = np.array(frames.build_dss(7).data)
    pats = [tuple(row) for row in patterns.pattern_set(7, 2, "exhaustive")[0].tolist()]
    g = optimize.mlie_gradient(a, pats)[1]
    h = 1e-6
    fd = np.zeros_like(g)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for unit in (1.0, 1j):
                ap, am = a.copy(), a.copy()
                ap[i, j] += h * unit
                am[i, j] -= h * unit
                fd[i, j] += unit * (optimize.sampled_mlie(ap, pats)
                                    - optimize.sampled_mlie(am, pats)) / (2 * h)
    rel = float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
    ok = (results["dss7"] <= 1e-9 and results["paley6"] <= 1e-9
          and frac_iid >= 0.10 and rel < 1e-5)
    detail = _report("C12", ok, f"max decrease dss7={results['dss7']:.1e}, "
                                f"paley6={results['paley6']:.1e} (<=1e-9); iid frame: "
                                f"{frac_iid:.0%} of perturbations improve by >1e-4; "
                                f"gradient rel err={rel:.1e}")
    assert ok, detail


def test_c13_excess_rate_strictly_positive(iid500_etas, dss947_etas,
                                           spec947_etas, bl_medians):
    families = {
        "iid500": (iid500_etas[0].mean(), 320 / 500, 400 / 320),
        "dss947": (dss947_etas[0].mean(), 378 / 947, BETA_947),
        "spectrum947": (spec947_etas[0].mean(), 378 / 947, BETA_947),
        "bandlimited499": (10.0 ** bl_medians[1], 199 / 499, 249 / 199),
    }
    ok = True
    margins, excesses = {}, {}
    for name, (eta, p, beta) in families.items():
        margin = eta / (1.0 / beta) - 1.0
        margins[name] = margin
        delta = rd.excess_rate(p, beta, 1000.0, eta)
        excesses[name] = delta
        ok = ok and margin > 0.0 and delta > 0.01
        if name in ("dss947", "spectrum947"):
            ok = ok and margin >= 0.05
    worst = min(margins, key=margins.get)
    ok = ok and min(excesses.values()) > 0.01
    detail = _report("C13", ok, f"eta margins over 1/beta: " +
                     ", ".join(f"{k}={v:.0%}" for k, v in margins.items()) +
                     f"; min excess at 30 dB = {min(excesses.values()):.3f} bits "
                     f"({worst} closest to the floor)")
    assert ok, detail
