"""End-to-end Monte Carlo simulation of the analog coding chain.

Per trial: the k important samples x_s are expanded through the pseudo-inverse
B_s into m transformed samples f, white quantization noise q is added, and the
decoder applies the frame and a scalar Wiener factor:

    x_hat_s = alpha A_s (f + q),  B_s = A_s'(A_s A_s')^{-1},  A_s B_s = I.

Validated model quantities: distortion sigma_x^2 sigma_q^2/(sigma_x^2+sigma_q^2),
transformed-sample energy (1/m)E||f||^2 = eta_s sigma_x^2, and the rate
(m/n)(1/2) log2(1 + energy/sigma_q^2).  Complex frames use circularly-symmetric
complex Gaussians with the same per-sample variances, so the scalar identities
carry over unchanged.

The encoder solves no system of its own: it reads B_s and eta_s off the eta
kernel's inverse factor Y of the pattern Gram (`spectral.factored`), so the
coder, ie-hist, mlie and the MLIE gradient share one factor, one singular
decision and one eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .frames import check_patterns
from .patterns import sample_pattern
from .rd import wiener_alpha, wiener_distortion
from .spectral import SingularPatternError

__all__ = ["SingularPatternError", "encoder_matrix", "PatternTally", "CoderReport", "simulate"]


def encoder_matrix(frame, pattern):
    """The pseudo-inverse B_s = A_s'(A_s A_s')^{-1} (m x k, columns in the
    pattern's order) and eta_s = ||B_s||_F^2 / m, both from `spectral.factored`.

    The kernel gives the pattern's rows in canonical order, a lower-triangular
    Y with Y^H Y = conj(G)^{-1} for their Gram G, and eta; Y is None exactly
    when eta is inf, and then the pattern raises `SingularPatternError`.  With
    z = conj(Y), columns taken in the pattern's order (column i is the
    canonical position of pattern row i), z^H z = (A_s A_s')^{-1} and
    B_s = (z A_s)' z.
    """
    a_s = frame.submatrix(pattern)  # checks the pattern
    rows, y, eta = next(spectral.factored(frame, [pattern]))
    if y is None:
        raise SingularPatternError(f"pattern {pattern} is numerically rank deficient")
    order = np.argsort(rows)
    z = y.conj()[:, order[np.searchsorted(rows, pattern, sorter=order)]]
    return (z @ a_s).conj().T @ z, eta


@dataclass
class PatternTally:
    """Per-pattern accumulator for the energy identity check."""

    eta: float
    count: int = 0
    f_energy_sum: float = 0.0
    f_energy_sqsum: float = 0.0

    @property
    def f_energy_mean(self):
        return self.f_energy_sum / self.count

    @property
    def f_energy_se(self):
        mean = self.f_energy_mean
        var = self.f_energy_sqsum / self.count - mean * mean
        return math.sqrt(max(var, 0.0) / self.count)


@dataclass(frozen=True)
class CoderReport:
    empirical_distortion: float
    model_distortion: float
    empirical_f_energy: float
    model_f_energy: float
    empirical_rate: float
    max_interp_error: float  # largest per-trial reconstruction error (q=0 diagnostics)
    alpha: float
    sigma_x2: float
    sigma_q2: float
    trials: int
    seed: int
    n: int
    m: int
    k: int
    singular_skipped: int
    per_pattern: dict = field(repr=False)


def _draw(rng, size, variance, complex_field):
    if variance == 0.0:
        return np.zeros(size, dtype=complex if complex_field else float)
    if complex_field:
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z * math.sqrt(variance / 2.0)
    return rng.standard_normal(size) * math.sqrt(variance)


def simulate(frame, k, sigma_x2, sigma_q2, trials, seed=0, pattern=None) -> CoderReport:
    """Run the coding chain over `trials` draws and report empirical vs model
    quantities.

    With `pattern` fixed (or k = n), every trial uses that one pattern and one
    encoder, drawn as one block from the stream `seed`; otherwise trial t
    draws a uniform pattern from substream (seed, t, 1) and its samples from
    (seed, t).  Trials whose sampled pattern is singular are counted
    in singular_skipped and excluded from the averages.
    """
    n, m = frame.n, frame.m
    if k > m:
        raise ValueError(f"k={k} exceeds m={m}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    complex_field = frame.field == "complex"
    alpha = wiener_alpha(sigma_x2, sigma_q2)

    if pattern is None and k == n:
        pattern = range(n)  # the one pattern there is
    # (pattern, rng, rows): a block of `rows` trials whose x and q come from rng
    if pattern is not None:
        fixed = tuple(check_patterns(n, [pattern])[0].tolist())  # the tally key
        if len(fixed) != k:
            raise ValueError(f"fixed pattern {fixed} has {len(fixed)} indices, need k={k}")
        blocks = [(fixed, np.random.default_rng(seed), trials)]
    else:
        blocks = ((sample_pattern(n, k, seed=(seed, t, 1)), np.random.default_rng((seed, t)), 1)
                  for t in range(trials))

    tallies = {}
    sq_err_sum = 0.0
    f_energy_sum = 0.0
    max_interp = 0.0
    used = 0
    for idx, rng, rows in blocks:
        try:
            b, eta = encoder_matrix(frame, idx)
        except SingularPatternError:
            if pattern is not None:
                raise SingularPatternError(f"fixed pattern {idx} is singular") from None
            continue
        a_s = frame.submatrix(idx)
        x = _draw(rng, (rows, k), sigma_x2, complex_field)
        q = _draw(rng, (rows, m), sigma_q2, complex_field)
        f = x @ b.T
        err = np.abs(alpha * ((f + q) @ a_s.T) - x) ** 2
        fe = np.sum(np.abs(f) ** 2, axis=1) / m
        fe_sum = float(fe.sum())
        sq_err_sum += float(err.sum())
        f_energy_sum += fe_sum
        max_interp = max(max_interp, math.sqrt(err.sum(axis=1).max()))
        tally = tallies.setdefault(idx, PatternTally(eta=eta))
        tally.count += rows
        tally.f_energy_sum += fe_sum
        tally.f_energy_sqsum += float((fe * fe).sum())
        used += rows

    if used == 0:
        raise SingularPatternError("every sampled pattern was singular")
    emp_d = sq_err_sum / (used * k)
    emp_energy = f_energy_sum / used
    if sigma_q2 > 0.0:
        emp_rate = (m / n) * 0.5 * math.log2(1.0 + emp_energy / sigma_q2)
    else:
        emp_rate = math.inf
    model_energy = math.fsum(t.eta * t.count for t in tallies.values()) / used * sigma_x2
    return CoderReport(
        empirical_distortion=emp_d,
        model_distortion=wiener_distortion(sigma_x2, sigma_q2),
        empirical_f_energy=emp_energy,
        model_f_energy=model_energy,
        empirical_rate=emp_rate,
        max_interp_error=max_interp,
        alpha=alpha,
        sigma_x2=sigma_x2,
        sigma_q2=sigma_q2,
        trials=trials,
        seed=seed,
        n=n,
        m=m,
        k=k,
        singular_skipped=trials - used,
        per_pattern=tallies,
    )
