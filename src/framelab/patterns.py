"""Erasure patterns and aggregate inverse-energy statistics.

A pattern is the set of k row indices declared important, as integers that
`frames.check_patterns` accepts; a pattern set is the (T, k) int array from
`pattern_set`.  Statistics over patterns — exhaustive when C(n, k) is
small, sampled otherwise — drive the inverse-energy histograms and the
mean logarithmic inverse energy

    rho = average over patterns of (m/n)(1/2) log2(eta_s)   [bits/sample],

the pattern-average excess rate attributable to signal amplification.
Singular patterns carry an inf sentinel; they are excluded from rho and
reported as a fraction, since a single one would otherwise wipe out the
average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import spectral

__all__ = [
    "PatternGuardError",
    "ENUMERATION_GUARD",
    "sample_pattern",
    "pattern_set",
    "IEStats",
    "mlie_bits",
    "ie_statistics",
    "SquareDivergence",
    "square_random_divergence",
]

ENUMERATION_GUARD = 10 ** 6


class PatternGuardError(ValueError):
    """Exhaustive enumeration refused: too many patterns."""


def sample_pattern(n, k, seed=0):
    """Uniform k-subset of [0, n) as an increasing tuple of ints; deterministic
    in the seed (which may be an int or a (seed, trial) tuple for per-trial
    substreams)."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    return tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))


def pattern_set(n, k, mode="auto", trials=2000, seed=0):
    """(T, k) int array of k-patterns of [0, n), one increasing row each, and
    its mode: 'exhaustive' (all C(n, k) in lexicographic order, guard applies)
    or 'sampled' (`trials` rows, row t = sample_pattern(n, k, seed=(seed, t))).
    'auto' enumerates when C(n, k) <= ENUMERATION_GUARD."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    count = math.comb(n, k)
    if mode == "auto":
        mode = "exhaustive" if count <= ENUMERATION_GUARD else "sampled"
    if mode == "sampled":
        if trials < 1:
            raise ValueError(f"a sampled pattern set needs trials >= 1, got {trials}")
        rows = [sample_pattern(n, k, seed=(seed, t)) for t in range(trials)]
        return np.array(rows, dtype=np.intp).reshape(trials, k), mode
    if count > ENUMERATION_GUARD:
        raise PatternGuardError(
            f"C({n},{k}) = {count} patterns exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    combos = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(combos, dtype=np.intp, count=count * k).reshape(count, k), mode


@dataclass(frozen=True)
class IEStats:
    """Summary of eta_s over a pattern collection.

    mean/median are over the finite samples; the singular fraction is carried
    separately.  The log-histogram covers log10(eta) from just below the
    floor k/m up to 1e6, with everything larger (including inf) clipped
    into the top "divergent" bin.
    """

    samples: np.ndarray
    mean: float
    median: float
    fraction_singular: float
    mlie: float
    log_bin_edges: np.ndarray
    log_counts: np.ndarray
    mode: str
    trials: int
    seed: int | None
    n: int
    m: int
    k: int


def _log_histogram(samples, k, m, bins):
    lo = math.log10(k / m) - 0.1
    hi = 6.0
    edges = np.linspace(lo, hi, bins + 1)
    finite = samples[np.isfinite(samples)]
    logs = np.log10(finite, where=finite > 0, out=np.full_like(finite, lo))
    clipped = np.clip(logs, lo, np.nextafter(hi, lo))
    counts, _ = np.histogram(clipped, bins=edges)
    counts[-1] += np.count_nonzero(~np.isfinite(samples))  # divergent bin
    return edges, counts


def mlie_bits(etas, n, m):
    """rho = mean of (m/n)(1/2) log2(eta); fsum makes it order-independent."""
    scale = 0.5 * (m / n)
    return math.fsum(scale * math.log2(v) for v in etas) / len(etas)


def ie_statistics(frame, k, mode="auto", trials=2000, seed=0, bins=60) -> IEStats:
    """eta_s statistics for k-patterns of the frame.

    The patterns are `pattern_set(n, k, mode, trials, seed)`, and `mode` is
    the one it resolved to: 'exhaustive' or 'sampled'.
    """
    n, m = frame.n, frame.m
    if k > m:
        raise ValueError(f"k={k} exceeds m={m}")
    idx, mode = pattern_set(n, k, mode, trials, seed)
    samples = np.array([spectral.inverse_energy(frame, s) for s in idx])
    finite = samples[np.isfinite(samples)]
    n_singular = samples.size - finite.size
    if finite.size:
        mean = math.fsum(finite) / finite.size
        median = float(np.median(finite))
        mlie = mlie_bits(finite, n, m)
    else:
        mean = median = mlie = math.inf
    edges, counts = _log_histogram(samples, k, m, bins)
    return IEStats(
        samples=samples,
        mean=mean,
        median=median,
        fraction_singular=n_singular / samples.size,
        mlie=mlie,
        log_bin_edges=edges,
        log_counts=counts,
        mode=mode,
        trials=len(idx),
        seed=None if mode == "exhaustive" else seed,
        n=n,
        m=m,
        k=k,
    )


@dataclass(frozen=True)
class SquareDivergence:
    """eta statistics for square (k x k) i.i.d. matrices at one k."""

    k: int
    mean: float
    median: float
    fraction_above: float  # fraction of trials with eta >= 1 + zeta
    zeta: float
    lower_bound: float  # k^2 / (2 pi e)
    upper_bound: float  # k^3 / (2 pi e)
    mean_within_bounds: bool
    trials: int


def square_random_divergence(k_list, trials=100, seed=0, zeta=1.0):
    """Divergence study of (1/k) tr((A A')^{-1}) for square i.i.d. Gaussian
    matrices (entry variance 1/k), one summary per k.

    The k^2/(2 pi e) <= E[.] <= k^3/(2 pi e) bracket is asymptotic and the
    sample mean is heavy-tailed, so its position is reported, not asserted;
    the threshold zeta feeds the almost-sure divergence check
    P[eta >= 1 + zeta] -> 1.
    """
    if list(k_list) != sorted(k_list):
        raise ValueError("k_list must be ascending")
    out = []
    for j, k in enumerate(k_list):
        vals = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng((seed, j, t))
            a = rng.standard_normal((k, k)) / math.sqrt(k)
            w, = spectral.gram_eigenvalues(a, [range(k)])
            vals[t] = spectral.eta_from_eigenvalues(w, k)
        finite = vals[np.isfinite(vals)]
        lo = k ** 2 / (2.0 * math.pi * math.e)
        hi = k ** 3 / (2.0 * math.pi * math.e)
        mean = float(finite.mean()) if finite.size else math.inf
        out.append(
            SquareDivergence(
                k=int(k),
                mean=mean,
                median=float(np.median(finite)) if finite.size else math.inf,
                fraction_above=float(np.mean(vals >= 1.0 + zeta)),
                zeta=zeta,
                lower_bound=lo,
                upper_bound=hi,
                mean_within_bounds=bool(lo <= mean <= hi),
                trials=trials,
            )
        )
    return out
