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
from dataclasses import dataclass

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
    "RDPoint",
    "gamma_from_db",
    "db_from_gamma",
]

BETA_TOL = 1e-6  # optimize_beta refines beta* to BETA_TOL / 10


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
    floats overflow to inf silently; numpy scalars also warn."""
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


def optimize_beta(p, gamma):
    """Minimize random_transform_excess over beta in (1, 1/p].

    With x = beta - 1 and c = gamma - 1 the excess is (p/2)/ln 2 (f(x) - ln gamma)
    for f(x) = (x + 1) ln(1 + c/x), and f''(x) = c (c + (2 - c) x) / (x (x + c))^2:
    f is convex for c <= 2, and for c > 2 f' rises from -inf to its maximum at
    x = c/(c - 2), then falls toward 0+.  So f' has at most one zero on
    (0, 1/p - 1] and the minimum is unique: a dense grid finds its basin, and a
    bounded scalar search refines it.  Returns (beta_star, delta_star).
    """
    # deferred: the optimizer package adds about 0.3 s and 20 MB to start-up,
    # and only rate-loss reaches this function
    from scipy.optimize import minimize_scalar

    if p >= 1.0:
        raise ValueError("p = 1 leaves no admissible beta")
    hi = 1.0 / p
    lo = 1.0 + 1e-9
    grid = [lo + (hi - lo) * i / 9999 for i in range(10000)]
    vals = [random_transform_excess(p, b, gamma) for b in grid]
    i0 = min(range(len(vals)), key=vals.__getitem__)
    blo = grid[max(i0 - 1, 0)]
    bhi = grid[min(i0 + 1, len(grid) - 1)]
    res = minimize_scalar(  # its trial points are numpy scalars: see excess_rate
        lambda b: random_transform_excess(p, float(b), gamma),
        bounds=(blo, bhi), method="bounded",
        options={"xatol": BETA_TOL / 10.0},
    )
    beta_star = float(res.x)
    delta_star = float(res.fun)
    if vals[i0] < delta_star:  # guard: refinement must not lose to the grid
        beta_star, delta_star = grid[i0], vals[i0]
    return beta_star, delta_star


def high_sdr_asymptote(p, gamma):
    """(p/2) log2(ln gamma), the optimal-beta excess in the high-SDR limit;
    grows without bound, but very slowly.  Zero at gamma = e, undefined below."""
    if gamma < math.e:
        raise ValueError("gamma >= e required (log log must be nonnegative)")
    return 0.5 * p * math.log2(math.log(gamma))


@dataclass(frozen=True)
class RDPoint:
    """One operating point tying the rate formulas together."""

    p: float
    beta: float
    gamma_db: float
    eta: float
    rate_bits: float
    rdf_bits: float
    delta_bits: float
    si_bits: float

    @classmethod
    def at(cls, p, beta, gamma, eta):
        n, m = 1.0, beta * p  # only the ratio m/n = beta p enters the rate
        return cls(
            p=p,
            beta=beta,
            gamma_db=db_from_gamma(gamma),
            eta=eta,
            rate_bits=scheme_rate(n, m, eta, gamma),
            rdf_bits=rdf(p, gamma),
            delta_bits=excess_rate(p, beta, gamma, eta),
            si_bits=si_benchmark(p),
        )
