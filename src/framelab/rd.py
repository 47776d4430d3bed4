"""Rate, distortion, and excess-rate formulas, plus the side-information
benchmark.  All rates are in bits per source sample (log base 2); gamma is the
signal-to-distortion ratio sigma_x^2 / D, and p = k/n is the fraction of
important samples.

The scheme under study quantizes m transformed samples per n source samples
(redundancy beta = m/k in [1, 1/p]); its rate exceeds the erasure
rate-distortion function (p/2) log2(gamma) by an excess delta that depends on
the inverse energy eta of the transform.
"""

from __future__ import annotations

import math

__all__ = [
    "rdf",
    "wiener_distortion",
    "wiener_alpha",
    "scheme_rate",
    "excess_rate",
    "excess_rate_highres",
    "si_benchmark",
    "si_benchmark_finite",
    "random_transform_excess",
    "optimize_beta",
    "high_sdr_asymptote",
    "gamma_from_db",
    "db_from_gamma",
]

BETA_TOL = 1e-6  # optimize_beta refines beta* to BETA_TOL / 10
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # _fminbound's golden-section ratio
_SQRT_EPS = math.sqrt(2.2e-16)
_MAXFUN = 500


def gamma_from_db(sdr_db):
    return 10.0 ** (sdr_db / 10.0)


def db_from_gamma(gamma):
    return 10.0 * math.log10(gamma)


def rdf(p, gamma):
    """Erasure rate-distortion function (p/2) log2(gamma): only the fraction p
    of important samples costs rate."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return 0.5 * p * math.log2(gamma)


def wiener_distortion(sigma_x2, sigma_q2):
    if not (0.0 < sigma_x2 < math.inf and 0.0 <= sigma_q2 < math.inf):  # nan fails too
        raise ValueError("variances must be finite and positive (noise may be zero)")
    return sigma_x2 * sigma_q2 / (sigma_x2 + sigma_q2)


def wiener_alpha(sigma_x2, sigma_q2):
    if not (0.0 < sigma_x2 < math.inf and 0.0 <= sigma_q2 < math.inf):
        raise ValueError("variances must be finite and positive (noise may be zero)")
    return sigma_x2 / (sigma_x2 + sigma_q2)


def scheme_rate(n, m, eta, gamma):
    """(m/n)(1/2) log2(1 + eta (gamma-1)): rate of quantizing m transformed
    samples whose variance is amplified by eta."""
    if gamma <= 1.0:
        raise ValueError("gamma > 1 required (D < sigma_x^2)")
    if math.isinf(eta):
        return math.inf
    return (m / n) * 0.5 * math.log2(1.0 + eta * (gamma - 1.0))


def excess_rate(p, beta, gamma, eta):
    """Exact excess over the RDF:
    (p/2) [beta log2(eta gamma + 1 - eta) - log2 gamma].

    Where eta gamma overflows a double (gamma near 1e308), log2 of the
    argument is taken as log2(eta) + log2(gamma + (1 - eta)/eta).  Python
    floats overflow to inf silently, and optimize_beta's grid and refine
    hand it only Python floats; numpy scalars would also warn."""
    arg = eta * gamma + (1.0 - eta)
    if arg == math.inf:
        log_arg = math.log2(eta) + math.log2(gamma + (1.0 - eta) / eta)
    else:
        if arg <= 0.0:
            raise ValueError("eta*gamma + 1 - eta must be positive")
        log_arg = math.log2(arg)
    return 0.5 * p * (beta * log_arg - math.log2(gamma))


def excess_rate_highres(p, beta, gamma, eta):
    """High-resolution split beta (p/2) log2(eta) + (beta-1)(p/2) log2(gamma);
    a valid approximation only for gamma >> 1."""
    return 0.5 * p * (beta * math.log2(eta) + (beta - 1.0) * math.log2(gamma))


def si_benchmark(p):
    """Binary entropy H_b(p): asymptotic cost of telling the decoder the
    pattern outright."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0  # degenerate pattern set: nothing to describe
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def si_benchmark_finite(n, k):
    """(1/n) log2 C(n, k), the finite-n pattern description cost."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return log_comb / (n * math.log(2.0))


def random_transform_excess(p, beta, gamma):
    """Excess rate of an i.i.d. transform in the concentration limit, i.e.
    excess_rate at eta = 1/(beta-1); defined for beta in (1, 1/p]."""
    if not 1.0 < beta <= 1.0 / p:
        raise ValueError(f"beta must lie in (1, {1.0 / p:g}]")
    return excess_rate(p, beta, gamma, 1.0 / (beta - 1.0))


def _fminbound(func, a, b):
    """Brent's bounded minimization of func on [a, b]: golden-section steps,
    and a parabolic step through the three best points wherever it lands inside
    the bracket.  Returns (xf, fx).

    A transcription, in Python floats, of scipy 1.17's `minimize_scalar`
    bounded method (`_minimize_scalar_bounded`) at xatol = BETA_TOL / 10 and
    500 evaluations: the same trial points in the same order, so the same
    (x, fun) to the bit."""
    xatol = BETA_TOL / 10.0
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # the parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:  # too near a bound
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def optimize_beta(p, gamma):
    """Minimize random_transform_excess over beta in (1, 1/p], for 0 < p < 1
    and finite gamma >= 1 (ValueError otherwise).

    With x = beta - 1 and c = gamma - 1 the excess is (p/2)/ln 2 (f(x) - ln gamma)
    for f(x) = (x + 1) ln(1 + c/x), and f''(x) = c (c + (2 - c) x) / (x (x + c))^2:
    f is convex for c <= 2, and for c > 2 f' rises from -inf to its maximum at
    x = c/(c - 2), then falls toward 0+.  So f' has at most one zero on
    (0, 1/p - 1] and the minimum is unique: a dense grid finds its basin, and
    `_fminbound`, Brent's bounded search, refines it on the grid points either
    side.  The refine lives here rather than in scipy.optimize: importing that
    package would cost every rate-loss process about 19 MB and 0.15 s, and
    rate-loss bytes would hang on the installed scipy's optimizer.  Returns
    (beta_star, delta_star).
    """
    if not (0.0 < p < 1.0 and 1.0 <= gamma < math.inf):  # nan fails too
        raise ValueError(f"need 0 < p < 1 and finite gamma >= 1, got p={p}, gamma={gamma}")
    hi = 1.0 / p
    lo = 1.0 + 1e-9
    grid = [lo + (hi - lo) * i / 9999 for i in range(10000)]
    grid[-1] = min(grid[-1], hi)  # the last point can round above 1/p
    vals = [random_transform_excess(p, b, gamma) for b in grid]
    i0 = min(range(len(vals)), key=vals.__getitem__)
    blo = grid[max(i0 - 1, 0)]
    bhi = grid[min(i0 + 1, len(grid) - 1)]
    beta_star, delta_star = _fminbound(
        lambda b: random_transform_excess(p, b, gamma), blo, bhi)
    if vals[i0] < delta_star:  # guard: refinement must not lose to the grid
        beta_star, delta_star = grid[i0], vals[i0]
    return beta_star, delta_star


def high_sdr_asymptote(p, gamma):
    """(p/2) log2(ln gamma), the optimal-beta excess in the high-SDR limit;
    grows without bound, but very slowly.  Zero at gamma = e, undefined below."""
    if gamma < math.e:
        raise ValueError("gamma >= e required (log log must be nonnegative)")
    return 0.5 * p * math.log2(math.log(gamma))
