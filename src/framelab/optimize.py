"""MLIE minimization over unit-row-norm frames, and local-minimum probing.

The objective is the sampled mean logarithmic inverse energy

    rho(A) = (1/|S|) sum_{s in S} (m/n)(1/2) log2 eta_s(A)

over a FIXED pattern collection S (exhaustive below the enumeration guard,
otherwise a common random sample), so descent acts on a deterministic smooth
function with poles at rank drops.  The constraint manifold is "every row on
the unit sphere"; steps are projected-gradient with Armijo backtracking, and
local-minimum verification perturbs rows along random tangent directions.
Each eta_s and the gradient core G^{-2} A_s come from `spectral.factored`,
the factor `spectral.inverse_energy` uses on rows and on every Frame but a
dss one (`spectral.dss_eta`), so rho equals the `mlie` of the same pattern
set bit for bit there and a pattern is singular exactly when
`inverse_energy` gives inf.  Every finite pattern has an inverse factor
there (L^{-1} of its Cholesky factor, or of pstrf's pivoted one for a
screened pattern, whose rows then come in pivot order), so the core is one
chain of triangular products.  `mlie_gradient` returns rho with the gradient,
so each accepted iterate is factored once: the Armijo trial at the step the
previous iteration accepted goes through `mlie_gradient` and, once accepted,
hands the next iteration its gradient; every other trial is value-only
(`sampled_mlie`).  A rejected trial at that step pays one gradient core pass
for nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .frames import Frame, frame_rows
from .patterns import mlie_bits, pattern_set
from . import spectral
from .spectral import SingularPatternError

__all__ = [
    "OptReport",
    "project_rows",
    "mlie_gradient",
    "sampled_mlie",
    "local_search",
    "verify_local_min",
]

LOG2 = math.log(2.0)
GRAD_TOL = 1e-9  # local_search stops once the tangent gradient norm is this small
ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test


def project_rows(a):
    """Normalize every row to unit l2 norm (projection onto the constraint).

    Idempotent in the strong sense: rows already unit within 1e-12 pass
    through bitwise unchanged.  A row whose norm overflows (entries near
    1e300, as a huge perturbation makes) is first scaled by its largest entry.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1, keepdims=True)
    if np.abs(norms - 1.0).max() <= 1e-12:
        return a
    out = a / norms
    huge = np.isinf(norms[:, 0])
    if huge.any():
        b = a[huge] / np.abs(a[huge]).max(axis=1, keepdims=True)
        out[huge] = b / np.linalg.norm(b, axis=1, keepdims=True)
    return out


def sampled_mlie(frame_or_array, patterns):
    """rho over an explicit pattern list; inf if any pattern is singular.
    Summed by `patterns.mlie_bits`, as in `patterns.ie_statistics`, so the
    same set gives the same bits (on a dss Frame, to rounding)."""
    a = frame_rows(frame_or_array)
    # itemgetter keeps no pattern's L^{-1} while the next one is factored
    etas = list(map(itemgetter(2), spectral.factored(a, patterns)))
    if math.inf in etas:
        return math.inf
    return mlie_bits(etas, *a.shape)


def mlie_gradient(frame_or_array, patterns):
    """(rho, gradient) of the sampled objective over an explicit pattern list.

    rho is `sampled_mlie(frame_or_array, patterns)` bit for bit: the etas of
    the factors the gradient is built from, summed by `patterns.mlie_bits`.
    d tr(G^{-1}) / d A_s = -2 G^{-2} A_s; for complex frames the gradient
    packs d/dRe + i d/dIm.  Rows outside every pattern get zero.  Raises
    SingularPatternError on a singular pattern (the objective is not
    differentiable there).
    """
    a = frame_rows(frame_or_array)
    n, m = a.shape
    blocks = spectral.chunks(a, patterns)  # the one check of the set
    scale = 0.5 * (m / n) / sum(map(len, blocks))
    grad = np.zeros_like(a)
    etas = []
    for rows in blocks:
        etas += _add_block(grad, a, rows, scale)
    return mlie_bits(etas, n, m), grad


def _add_block(grad, a, rows, scale):
    """Add one block of `spectral.chunks` to the gradient and return its etas.
    The block is factored first, so `factor_rows` has freed its own gather
    and left each pattern's rows in its Y's order (pivot order for a screened
    pattern); then the rows are gathered once more, in that order, and each
    A_s is turned into its scaled core in place.  np.add.at adds the cores
    unbuffered, in pattern order: each entry of grad sums its terms in the
    order a per-pattern loop would."""
    m = a.shape[1]
    factors = list(spectral.factor_rows(a, rows))
    cores = a[rows]  # after factor_rows: `rows` now holds each Y's order
    trmm = spectral.routines(a.dtype)["trmm"]
    for a_s, (r, y, eta) in zip(cores, factors):
        if y is None:
            raise SingularPatternError(
                f"singular pattern {tuple(sorted(r.tolist()))} in gradient")
        # Y^H Y = conj(G)^{-1}: (G^{-2} A_s)^T = A_s^T Y^H Y Y^H Y
        core = a_s.T  # Fortran-ordered, multiplied in place
        for trans in (2, 0, 2, 0):  # side=1 (right), lower, trans_a, diag=0, overwrite_b
            core = trmm(1.0, y, core, 1, 1, trans, 0, 1)
        # d rho / d eta = scale / (eta ln 2); d eta / dA_s = -(2/m) G^{-2} A_s
        np.multiply(scale / (eta * LOG2) * (-2.0 / m), core.T, out=a_s)
    np.add.at(grad, rows.ravel(), cores.reshape(-1, m))
    return list(map(itemgetter(2), factors))


def _start(frame, k, mode, pattern_budget, seed):
    """The frame projected onto the unit-row manifold, its fixed pattern set
    and mode, and rho there, which must be finite."""
    a = project_rows(np.array(frame_rows(frame)))
    pats, mode = pattern_set(len(a), k, mode, pattern_budget, seed)
    rho0 = sampled_mlie(a, pats)
    if math.isinf(rho0):
        raise SingularPatternError("start frame is rank deficient on the pattern set")
    return a, pats, mode, rho0


def _tangent(rows_matrix, g):
    """Project per-row directions onto the tangent of the unit spheres."""
    inner = np.real(np.sum(np.conj(rows_matrix) * g, axis=1, keepdims=True))
    return g - inner * rows_matrix


@dataclass(frozen=True)
class OptReport:
    initial_mlie: float
    final_mlie: float
    iterations: int
    step_history: tuple
    mlie_history: tuple  # objective at the initial point and each accepted iterate
    converged: bool
    perturbation_verdicts: tuple  # (epsilon, trials, fraction_decreased, max_decrease)
    pattern_mode: str
    pattern_count: int
    fresh_mlie: float | None = None  # re-evaluation on unseen patterns, sampled mode only


def local_search(frame, k, pattern_budget=500, step_init=1e-2, max_iters=200, seed=0):
    """Projected gradient descent on the sampled MLIE from the given frame.

    Returns (OptReport, Frame).  The sampled objective never increases between
    accepted iterates; a singular trial step just shrinks like a failed Armijo
    test.  With sampled (non-exhaustive) patterns the report also carries a
    fresh-sample evaluation to expose overfitting to the common random set.
    Raises SingularPatternError when the start frame is singular on the
    pattern set, and ValueError unless step_init is finite and positive and
    max_iters >= 0.
    """
    if not 0.0 < step_init < math.inf:  # nan fails too
        raise ValueError(f"step must be finite and positive, got {step_init}")
    if max_iters < 0:
        raise ValueError(f"iterations must be at least 0, got {max_iters}")
    # exhaustive only when C(n, k) fits the budget too ('auto' adds the guard)
    mode = "auto" if math.comb(len(frame_rows(frame)), k) <= pattern_budget else "sampled"
    a, pats, mode, rho0 = _start(frame, k, mode, pattern_budget, seed)
    rho = rho0
    steps = []
    history = [rho0]
    iterations = 0
    converged = False
    carry = 0  # halvings of the step last accepted
    grad = None  # the gradient at `a` when its trial carried one
    for _ in range(max_iters):
        if grad is None:
            grad = mlie_gradient(a, pats)[1]
        g = _tangent(a, grad)
        gnorm2 = float(np.vdot(g, g).real)
        if gnorm2 <= GRAD_TOL ** 2:
            converged = True
            break
        t = step_init
        accepted = False
        for j in range(50):
            trial = project_rows(a - t * g)
            grad = None
            if j == carry:  # the likely accept: its factors give the next gradient too
                try:
                    rho_t, grad = mlie_gradient(trial, pats)
                except SingularPatternError:
                    rho_t = math.inf
            else:
                rho_t = sampled_mlie(trial, pats)
            if rho_t <= rho - ARMIJO_C * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True  # no productive step at any scale
            break
        a, rho, carry = trial, rho_t, j
        steps.append(t)
        history.append(rho)
        iterations += 1
    fresh = None
    if mode == "sampled":
        fresh_pats, _ = pattern_set(len(a), k, "sampled", len(pats), seed + 1)
        fresh = sampled_mlie(a, fresh_pats)
    report = OptReport(
        initial_mlie=rho0,
        final_mlie=rho,
        iterations=iterations,
        step_history=tuple(steps),
        mlie_history=tuple(history),
        converged=converged,
        perturbation_verdicts=(),
        pattern_mode=mode,
        pattern_count=len(pats),
        fresh_mlie=fresh,
    )
    out = Frame(a, kind="custom", seed=seed)
    return report, out


def verify_local_min(frame, k, epsilons=(1e-3, 1e-2), trials=200, seed=0,
                     mode="exhaustive", pattern_budget=500, decrease_threshold=0.0):
    """Probe whether the frame locally minimizes the MLIE.

    The frame is first projected onto the unit-row manifold (the base point).
    For each epsilon, `trials` random tangent perturbations of that size are
    re-projected and the MLIE re-evaluated on the same fixed pattern set; the
    verdicts record how often it decreased (by more than decrease_threshold
    bits) and the largest decrease seen.  SingularPatternError when the base
    point is singular on the pattern set; ValueError unless every epsilon is
    finite and positive and trials >= 1.
    """
    if not all(0.0 < eps < math.inf for eps in epsilons):  # nan fails too
        raise ValueError(f"epsilons must be finite and positive, got {tuple(epsilons)}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    a, pats, pattern_mode, rho0 = _start(frame, k, mode, pattern_budget, seed)
    verdicts = []
    complex_field = np.iscomplexobj(a)
    for e_i, eps in enumerate(epsilons):
        decreases = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng((seed, e_i, t))
            g = rng.standard_normal(a.shape)
            if complex_field:
                g = g + 1j * rng.standard_normal(a.shape)
            g = _tangent(a, g)
            g *= eps / np.linalg.norm(g, axis=1, keepdims=True)
            rho_t = sampled_mlie(project_rows(a + g), pats)
            decreases[t] = rho0 - rho_t
        verdicts.append((float(eps), trials,
                         float(np.mean(decreases > decrease_threshold)),
                         float(decreases.max())))
    return OptReport(
        initial_mlie=rho0,
        final_mlie=rho0,
        iterations=0,
        step_history=(),
        mlie_history=(rho0,),
        converged=True,
        perturbation_verdicts=tuple(verdicts),
        pattern_mode=pattern_mode,
        pattern_count=len(pats),
    )
