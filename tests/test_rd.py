"""Rate-distortion formula tests: closed-form anchors, identities, and the
beta optimizer against a dense-grid oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framelab import rd, spectral

# Frozen anchors, computed once with mpmath at 50 digits and rounded to double.
RDF_02_1000 = 0.9965784284662087
EXCESS_02_2_100 = 0.6643856189774725
HB_02 = 0.7219280948873623
SI_FINITE_10_2 = 0.5491853096329674
ASYMPTOTE_02_1E6 = 0.3788216973420878


def test_gamma_db_roundtrip():
    assert rd.gamma_from_db(20.0) == 100.0
    assert abs(rd.db_from_gamma(100.0) - 20.0) < 1e-12
    for db in (-3.0, 0.0, 17.5, 60.0):
        assert abs(rd.db_from_gamma(rd.gamma_from_db(db)) - db) < 1e-10


def test_rdf_values():
    assert rd.rdf(1.0, 4.0) == 1.0
    assert rd.rdf(0.5, 1.0) == 0.0
    assert abs(rd.rdf(0.2, 1000.0) - RDF_02_1000) < 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: rd.rdf(0.0, 4.0), "p must lie in (0, 1]"),
    (lambda: rd.rdf(1.5, 4.0), "p must lie in (0, 1]"),
    (lambda: rd.rdf(0.5, 0.0), "gamma must be positive"),
    (lambda: rd.si_benchmark(-0.1), "p must lie in [0, 1]"),
    (lambda: rd.si_benchmark(1.5), "p must lie in [0, 1]"),
], ids=["rdf-p0", "rdf-p-above-1", "rdf-gamma", "si-p-negative", "si-p-above-1"])
def test_rate_formulas_refuse_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: rd.rdf(0.2, math.nan), "gamma must be positive"),
    (lambda: rd.scheme_rate(2, 1, 1.5, math.nan), "gamma > 1 required"),
    (lambda: rd.random_transform_excess(0.2, 2.0, math.nan),
     "eta*gamma + 1 - eta must be positive"),
    (lambda: rd.high_sdr_asymptote(0.2, math.nan), "gamma >= e required"),
], ids=["rdf", "scheme_rate", "random_transform_excess", "high_sdr_asymptote"])
def test_rate_formulas_refuse_nan_gamma(call, message):
    # each domain check is written so that nan fails it: none returns nan
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_wiener_balanced():
    # equal signal and noise variance: distortion and gain both 1/2
    assert abs(rd.wiener_distortion(1.0, 1.0) - 0.5) < 1e-15
    assert abs(rd.wiener_alpha(1.0, 1.0) - 0.5) < 1e-15
    assert abs(rd.wiener_distortion(4.0, 1.0) - 0.8) < 1e-15
    assert abs(rd.wiener_alpha(4.0, 1.0) - 0.8) < 1e-15


def test_wiener_limits_and_domain():
    # overwhelming noise: the estimator collapses to zero, D -> sigma_x^2
    assert abs(rd.wiener_distortion(1.0, 1e12) - 1.0) < 1e-6
    assert rd.wiener_distortion(1.0, 0.0) == 0.0
    assert rd.wiener_alpha(1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        rd.wiener_distortion(0.0, 1.0)
    with pytest.raises(ValueError):
        rd.wiener_alpha(1.0, -0.5)


@pytest.mark.parametrize("sigma_x2, sigma_q2", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_wiener_refuses_non_finite_variances(sigma_x2, sigma_q2):
    for fn in (rd.wiener_distortion, rd.wiener_alpha):
        with pytest.raises(ValueError, match="finite"):
            fn(sigma_x2, sigma_q2)


def test_scheme_rate_value():
    # (m/n)(1/2) log2(1 + eta (gamma-1)) at n=4, m=2, eta=1/2, gamma=101
    assert abs(rd.scheme_rate(4, 2, 0.5, 101.0) - 0.25 * math.log2(51.0)) < 1e-15


def test_scheme_rate_unitary_matches_rdf():
    # square unitary transform, no erasures: eta = 1 and m = n, so the
    # scheme rate collapses to the p = 1 rate-distortion function
    for gamma in (2.0, 10.0, 1e4):
        assert abs(rd.scheme_rate(8, 8, 1.0, gamma) - rd.rdf(1.0, gamma)) < 1e-12


def test_scheme_rate_singular_and_domain():
    assert rd.scheme_rate(4, 2, math.inf, 10.0) == math.inf
    with pytest.raises(ValueError):
        rd.scheme_rate(4, 2, 1.0, 1.0)  # gamma must exceed 1


def test_excess_rate_anchor():
    assert abs(rd.excess_rate(0.2, 2.0, 100.0, 1.0) - EXCESS_02_2_100) < 1e-15


def test_excess_rate_zero_at_unitary_point():
    # beta = 1, eta = 1 is the no-erasure orthonormal case: zero excess, exactly
    for gamma in (1.5, 7.0, 1e5):
        assert rd.excess_rate(0.3, 1.0, gamma, 1.0) == 0.0


def test_excess_rate_domain_guard():
    with pytest.raises(ValueError):
        rd.excess_rate(0.2, 2.0, 0.5, 3.0)  # eta*gamma + 1 - eta <= 0


def test_excess_rate_where_eta_gamma_overflows():
    # eta * gamma passes 1.8e308 here; a float product overflows to inf with
    # no warning (the suite turns warnings into errors)
    gamma = 1e308
    for eta in (4.0, 1e6, 1e300):
        got = rd.excess_rate(0.2, 1.25, gamma, eta)
        want = 0.1 * (1.25 * (math.log2(eta) + math.log2(gamma)) - math.log2(gamma))
        assert math.isfinite(got) and abs(got - want) < 1e-12 * abs(want)
    # just below the overflow the product form is kept
    eta = 1.7
    assert math.isfinite(eta * gamma)
    assert rd.excess_rate(0.2, 1.25, gamma, eta) == \
        0.1 * (1.25 * math.log2(eta * gamma + (1.0 - eta)) - math.log2(gamma))


@given(
    p=st.floats(0.05, 0.95),
    beta=st.floats(1.0, 4.0),
    gamma=st.floats(1.0 + 1e-6, 1e6),
    eta_scale=st.floats(1.0, 50.0),
)
@settings(max_examples=150, deadline=None)
def test_excess_is_rate_minus_rdf(p, beta, gamma, eta_scale):
    # delta = scheme rate - RDF with m/n = beta p, for any admissible eta
    eta = eta_scale / beta
    direct = rd.excess_rate(p, beta, gamma, eta)
    via_rates = rd.scheme_rate(1.0, beta * p, eta, gamma) - rd.rdf(p, gamma)
    assert abs(direct - via_rates) < 1e-10
    # eta at or above the tight-frame floor 1/beta can never beat the RDF
    assert direct >= -1e-12


def test_highres_split_close_at_high_sdr():
    eta = spectral.manova_eta_limit(1.25)
    exact = rd.excess_rate(0.5, 1.25, 1e3, eta)
    split = rd.excess_rate_highres(0.5, 1.25, 1e3, eta)
    assert abs(exact - split) < 0.01
    # and the split overshoots (it drops the +1-eta correction inside the log)
    assert split > exact


def test_si_benchmark_values():
    assert rd.si_benchmark(0.5) == 1.0
    assert abs(rd.si_benchmark(0.2) - HB_02) < 1e-15
    assert rd.si_benchmark(0.0) == 0.0
    assert rd.si_benchmark(1.0) == 0.0
    assert abs(rd.si_benchmark(0.3) - rd.si_benchmark(0.7)) < 1e-15


def test_si_benchmark_finite_value_and_monotone():
    assert abs(rd.si_benchmark_finite(10, 2) - SI_FINITE_10_2) < 1e-12
    # (1/n) log2 C(n, n/2) climbs toward H_b(1/2) = 1 from below
    vals = [rd.si_benchmark_finite(n, n // 2) for n in (10, 20, 40, 80, 160)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0
    with pytest.raises(ValueError):
        rd.si_benchmark_finite(10, 0)


def test_random_transform_excess_domain():
    with pytest.raises(ValueError):
        rd.random_transform_excess(0.2, 1.0, 100.0)  # open at beta = 1
    with pytest.raises(ValueError):
        rd.random_transform_excess(0.2, 5.0 + 1e-9, 100.0)  # beta > 1/p
    # at the endpoint beta = 1/p the formula is still defined
    rd.random_transform_excess(0.2, 5.0, 100.0)


def test_random_transform_excess_matches_mp_limit():
    # the i.i.d. transform sits at eta = 1/(beta-1), the MP inverse moment
    v = rd.random_transform_excess(0.2, 2.0, 100.0)
    assert abs(v - rd.excess_rate(0.2, 2.0, 100.0, spectral.mp_eta_limit(2.0))) < 1e-15


def test_random_transform_excess_blows_up_near_one():
    vals = [rd.random_transform_excess(0.2, 1.0 + h, 100.0)
            for h in (1e-3, 1e-6, 1e-9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 2.0


def test_optimize_beta_against_grid_oracle():
    p, gamma = 0.2, 1000.0
    beta_star, delta_star = rd.optimize_beta(p, gamma)
    assert 1.0 < beta_star <= 1.0 / p
    # a fine independent grid can't find anything meaningfully better
    grid_best = min(
        rd.random_transform_excess(p, 1.0 + 1e-9 + (1.0 / p - 1.0 - 1e-9) * i / 20000, gamma)
        for i in range(1, 20001)
    )
    assert delta_star <= grid_best + 1e-9
    assert abs(delta_star - 0.4619300228786012) < 1e-6


def test_excess_turns_at_most_once():
    # optimize_beta's docstring: f' has at most one zero on (0, 1/p - 1], so
    # the excess falls, then rises, along any beta grid on (1, 1/p]
    rng = np.random.default_rng(10)
    for p, db in zip(rng.uniform(0.05, 0.95, 200), rng.uniform(1.0, 300.0, 200)):
        gamma = rd.gamma_from_db(db)
        betas = np.linspace(1.0, 1.0 / p, 401)[1:]
        steps = np.sign(np.diff([rd.random_transform_excess(p, b, gamma) for b in betas]))
        assert np.count_nonzero(steps[1:] != steps[:-1]) <= 1, (p, db)


def _parent_optimize_beta(p, gamma):
    # optimize_beta as it stood with scipy's refine: the same grid (without
    # the clamp of its top point), then minimize_scalar's bounded method
    from scipy.optimize import minimize_scalar

    hi = 1.0 / p
    lo = 1.0 + 1e-9
    grid = [lo + (hi - lo) * i / 9999 for i in range(10000)]
    vals = [rd.random_transform_excess(p, b, gamma) for b in grid]
    i0 = min(range(len(vals)), key=vals.__getitem__)
    res = minimize_scalar(
        lambda b: rd.random_transform_excess(p, float(b), gamma),
        bounds=(grid[max(i0 - 1, 0)], grid[min(i0 + 1, len(grid) - 1)]),
        method="bounded", options={"xatol": rd.BETA_TOL / 10.0},
    )
    beta_star, delta_star = float(res.x), float(res.fun)
    if vals[i0] < delta_star:
        beta_star, delta_star = grid[i0], vals[i0]
    return beta_star, delta_star


_SWEEP_P = (0.01, 0.05, 0.2, 0.37, 0.5, 0.73, 0.99)
_SWEEP_DB = (0.0, 0.001, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 17.0, 30.0, 50.0, 80.0,
             120.0, 200.0, 300.0, 1000.0, 3054.0, 3080.0, 3082.0)


def test_optimize_beta_matches_the_scipy_refine_bit_for_bit():
    for p in _SWEEP_P:
        for db in _SWEEP_DB:
            gamma = rd.gamma_from_db(db)
            got = rd.optimize_beta(p, gamma)
            assert got == _parent_optimize_beta(p, gamma), (p, db)
            assert all(type(v) is float for v in got)


_SYNTHETIC = {
    # accepted parabolic steps, one pulled back from a bound
    "quadratic": (lambda x: (x - 0.3) ** 2, 0.0, 1.0),
    "quartic": (lambda x: (x - 1.2345) ** 4, 1.0, 2.0),
    "cosine": (lambda x: 0.1 * x ** 3 - math.cos(3.0 * x), -1.0, 2.0),
    # kinks and a jump: parabolas rejected for golden-section steps
    "kink": (lambda x: abs(x - 0.3), 0.0, 1.0),
    "cusp": (lambda x: math.sqrt(abs(x - 0.7123)), 0.0, 1.0),
    "jump": (lambda x: 0.0 if x > 0.42 else 1.0, 0.0, 1.0),
    # the minimum at either bound, and no minimum at all
    "rising": (lambda x: x, 0.0, 1.0),
    "falling": (lambda x: -x, 0.0, 1.0),
    "constant": (lambda x: 2.5, 0.0, 1.0),
    # 500 evaluations run out, through overflowed and nan parabolas
    "wide": (abs, -1e300, 1e300),
}


@pytest.mark.parametrize("name", sorted(_SYNTHETIC))
def test_fminbound_takes_minimize_scalars_steps(name):
    from scipy.optimize import minimize_scalar

    f, a, b = _SYNTHETIC[name]
    calls = []
    x, fun = rd._fminbound(lambda t: calls.append(t) or f(t), a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": rd.BETA_TOL / 10.0})
    assert (x, fun, len(calls)) == (res.x, res.fun, res.nfev)
    assert all(type(t) is float for t in calls)


@pytest.mark.parametrize("p", [0.004, 0.03, 0.2216922228897025, 0.544])
def test_optimize_beta_where_the_top_grid_point_rounds_above_one_over_p(p):
    # lo + (hi - lo) * 9999 / 9999 exceeds hi = 1/p at these p
    lo, hi = 1.0 + 1e-9, 1.0 / p
    assert lo + (hi - lo) * 9999 / 9999 > hi
    for db in (0.0, 20.0, 300.0):
        beta_star, delta_star = rd.optimize_beta(p, rd.gamma_from_db(db))
        assert 1.0 < beta_star <= hi
        assert math.isfinite(delta_star)


def test_optimize_beta_vanishes_at_low_sdr():
    # the optimal excess is tiny near gamma = 1 and grows with gamma
    deltas = [rd.optimize_beta(0.2, g)[1] for g in (1.01, 1.1, 2.0, 10.0, 1000.0)]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert deltas[0] < 0.001


def test_optimize_beta_domain():
    with pytest.raises(ValueError):
        rd.optimize_beta(1.0, 100.0)


@pytest.mark.parametrize("p, gamma", [
    (0.0, 100.0),
    (-0.1, 100.0),
    (math.nan, 100.0),
    (0.2, math.nan),
    (0.2, math.inf),
    (0.2, 0.5),
], ids=["p0", "p_negative", "p_nan", "gamma_nan", "gamma_inf", "gamma_below_1"])
def test_optimize_beta_refuses_outside_its_domain(p, gamma):
    match = re.escape(f"need 0 < p < 1 and finite gamma >= 1, got p={p}, gamma={gamma}")
    with pytest.raises(ValueError, match=match):
        rd.optimize_beta(p, gamma)


def test_high_sdr_asymptote():
    assert rd.high_sdr_asymptote(0.2, math.e) == 0.0
    assert abs(rd.high_sdr_asymptote(0.2, 1e6) - ASYMPTOTE_02_1E6) < 1e-12
    with pytest.raises(ValueError):
        rd.high_sdr_asymptote(0.2, 2.0)
