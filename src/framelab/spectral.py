"""Submatrix spectra, the inverse-energy functional, and limiting densities.

For a frame A (n x m, unit rows) and a pattern s of k row indices, the inverse
energy of the k x m submatrix A_s is

    eta_s = (1/m) tr((A_s A_s')^{-1}),

the amplification factor of the least-squares encoder.  eta_s >= k/m always,
with equality exactly when the rows of A_s are orthonormal.  Singular
submatrices report eta = inf rather than an overflow artifact.

The Cholesky kernel (`inverse_energy` and `cholesky`) calls BLAS and LAPACK
only through `scipy.linalg.get_blas_funcs`/`get_lapack_funcs`.  numpy and
scipy may load separate BLAS builds, each with its own thread pool, and
handing one pattern's work from one pool to the other costs more than the
arithmetic; `gram_eigenvalues`, the fallback route, stays on numpy.

The two reference eigenvalue laws for Gram matrices A_s A_s' of random
patterns are Marchenko--Pastur (i.i.d. frames) and MANOVA (random DFT-spectrum
and difference-set frames).  Their 1/x moments, scaled by 1/beta = k/m, give
the limiting eta in closed form: 1/(beta - 1) for Marchenko--Pastur and
(beta - w) / (beta (beta - 1)) for MANOVA with w = m/n, both inf at beta <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .frames import pattern_indices

__all__ = [
    "EigenSample",
    "EigenHistogram",
    "gram_eigenvalues",
    "inverse_energy",
    "eta_from_eigenvalues",
    "cholesky",
    "mp_edges",
    "mp_density",
    "mp_eta_limit",
    "manova_edges",
    "manova_density",
    "manova_eta_limit",
    "eigen_histogram",
    "l1_density_distance",
]

# lambda_min <= SINGULARITY_RATIO * lambda_max counts as singular: the log
# histograms need to tell "huge but finite" from "gone".
SINGULARITY_RATIO = 1e-12

# Leading sort keys tried before the full lexicographic sort: a complex
# band-limited frame has a constant column 0 (keys 0-1), so keys 2-3 are the
# first to tell its rows apart.
_LEADING_KEYS = 4

L1_SUBDIVISIONS = 16  # trapezoid panels per bin in l1_density_distance


def _canonical_submatrix(frame, pattern):
    """Pattern submatrix with rows in canonical (lexicographic) order.

    Reordering rows conjugates the Gram by a permutation, which leaves
    eigenvalues and eta mathematically fixed but perturbs floating point;
    sorting first makes eta bitwise invariant under row/pattern relabeling.
    """
    idx = np.asarray(sorted(pattern_indices(pattern)))
    if idx.size == 0:
        raise ValueError("empty pattern")
    if idx[0] < 0 or idx[-1] >= frame.n:
        raise IndexError(f"pattern index out of range for n={frame.n}")
    if np.unique(idx).size != idx.size:
        raise ValueError("repeated pattern index")
    a_s = frame.data[idx]
    key = a_s.view(np.float64).reshape(idx.size, -1)
    # Once the leading keys leave no two rows tied, the later keys never
    # decide a comparison and the short sort is the full one.  Ties (repeated
    # rows) take the full sort.  Frame data is finite, so == sees every tie.
    lead = key[:, :_LEADING_KEYS]
    order = np.lexsort(lead.T[::-1])
    ranked = lead[order]
    if np.any(np.all(ranked[1:] == ranked[:-1], axis=1)):
        order = np.lexsort(key.T[::-1])
    return a_s[order]


def eta_from_eigenvalues(eigenvalues, m):
    """(1/m) sum 1/lambda_i, or inf under the singularity threshold."""
    w = np.asarray(eigenvalues, dtype=float)
    wmin, wmax = w.min(), w.max()
    if wmin <= SINGULARITY_RATIO * wmax or wmin <= 0.0:
        return math.inf
    return float(np.sum(1.0 / w)) / m


def pivots_near_singular(low):
    """True when the Cholesky factor `low` cannot decide singular vs finite,
    and `gram_eigenvalues` must.  A squared pivot ratio x leaves rounding of
    about eps/x in the later pivots, which passes for a real pivot once x is
    under sqrt(eps): rows (0, 1, 0), (sin e, cos e, 0), (1, 0, 0) span a plane,
    yet at e = 1e-5 the third pivot comes out near 3e-4."""
    d = np.abs(np.diag(low))
    return d.min() ** 2 <= math.sqrt(np.finfo(float).eps) * d.max() ** 2


def cholesky(g):
    """Lower Cholesky factor of the Hermitian matrix g, or None when potrf
    finds g not positive definite or `pivots_near_singular` trips: then only
    `gram_eigenvalues` can decide singular vs finite.  potrf reads the lower
    triangle, leaves the upper one as it was, and factors a Fortran-ordered g
    (so any 1 x 1 g) in place."""
    potrf, = get_lapack_funcs(("potrf",), (g,))
    low, info = potrf(g, lower=1, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"potrf: illegal argument {-info}")
    if info > 0 or pivots_near_singular(low):
        return None
    return low


@dataclass(frozen=True)
class EigenSample:
    """Spectrum of one pattern Gram A_s A_s' (ascending) plus its eta."""

    eigenvalues: np.ndarray
    eta: float


def gram_eigenvalues(frame, pattern) -> EigenSample:
    a_s = _canonical_submatrix(frame, pattern)
    w = np.linalg.eigvalsh(a_s @ a_s.conj().T)
    return EigenSample(eigenvalues=w, eta=eta_from_eigenvalues(w, frame.m))


def inverse_energy(frame, pattern):
    """eta_s via a Cholesky factorization of the pattern Gram; inf when singular.

    tr(G^{-1}) = ||L^{-1}||_F^2 for G = L L'.  When `cholesky` gives no factor
    the eigenvalue route owns the singular/finite decision.

    The C-ordered k x m submatrix is the Fortran-ordered m x k matrix
    B = A_s^T, so BLAS herk/syrk forms B^H B = conj(G) in its lower triangle
    without a copy; conjugation changes neither the pivots nor the trace, and
    potrf and trtri read and write only that triangle.
    """
    a_s = _canonical_submatrix(frame, pattern)
    gram_k = get_blas_funcs("herk" if np.iscomplexobj(a_s) else "syrk", (a_s,))
    low = cholesky(gram_k(1.0, a_s.T, trans=2, lower=1))
    if low is None:
        return gram_eigenvalues(frame, pattern).eta
    trtri, = get_lapack_funcs(("trtri",), (low,))
    inv_low, info = trtri(low, lower=1, overwrite_c=1)
    if info:
        raise ValueError(f"trtri failed with info={info}")
    x = np.tril(inv_low).ravel()
    dot = get_blas_funcs("dotc" if np.iscomplexobj(x) else "dot", (x,))
    return float(dot(x, x).real) / frame.m


# --- Marchenko--Pastur (i.i.d. frames), aspect ratio 1/beta ------------------

def mp_edges(beta):
    c = 1.0 / beta
    return (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2


def mp_density(x, beta):
    """Marchenko--Pastur density for Gram eigenvalues of a k x m i.i.d. matrix
    with entry variance 1/m, at ratio k/m = 1/beta (mean eigenvalue 1)."""
    if beta < 1.0:
        raise ValueError("beta >= 1 required (k <= m)")
    lo, hi = mp_edges(beta)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = beta * np.sqrt((hi - xi) * (xi - lo)) / (2.0 * np.pi * xi)
    return out if out.ndim else float(out)


def mp_eta_limit(beta):
    """Limit of eta for i.i.d. frames: 1/(beta-1); inf at beta <= 1, where the
    support of the spectral law touches zero."""
    if beta <= 1.0:
        return math.inf
    return 1.0 / (beta - 1.0)


# --- MANOVA (random-spectrum / DSS frames) ----------------------------------

def manova_edges(m_over_n, beta):
    w = m_over_n
    r = math.sqrt((1.0 - w) / beta)
    t = math.sqrt(1.0 - w / beta)
    return (r - t) ** 2, (r + t) ** 2


def _check_manova_params(m_over_n, beta):
    w = m_over_n
    if not 0.0 < w < 1.0:
        raise ValueError("need 0 < m/n < 1")
    if beta > 1.0 / w:
        raise ValueError("beta cannot exceed n/m (k >= 1 rows of n)")
    # k + m > n forces rank overlap between the selected rows and the frame's
    # column space, putting a point mass at n/m that the continuous density
    # misses.  Only possible when m/n > 1/2.
    if 1.0 <= beta < w / (1.0 - w):
        raise ValueError("k + m > n: spectral law has a point mass at n/m, "
                         "continuous density alone does not apply")


def manova_density(x, m_over_n, beta):
    """Limiting eigenvalue density of A_s A_s' for random row subsets (ratio
    1/beta) of random column subsets (ratio m/n) of a scaled unitary DFT."""
    _check_manova_params(m_over_n, beta)
    if beta < 1.0:
        raise ValueError("beta >= 1 required")
    lo, hi = manova_edges(m_over_n, beta)
    w = m_over_n
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = beta * np.sqrt((xi - lo) * (hi - xi)) / (2.0 * np.pi * xi * (1.0 - w * xi))
    return out if out.ndim else float(out)


def manova_eta_limit(beta, m_over_n=0.5):
    """Limiting eta for DFT-spectrum frames, w = m/n: the 1/x moment of the
    MANOVA law scaled by 1/beta, in closed form (beta - w) / (beta (beta - 1)).

    It lies between the floor 1/beta = k/m and the i.i.d. limit 1/(beta - 1).
    At beta <= 1 the support reaches zero and the moment diverges (inf).
    ValueError for w outside (0, 1), for beta > 1/w and for the point-mass
    range 1 <= beta < w / (1 - w), where k + m > n.
    """
    _check_manova_params(m_over_n, beta)
    if beta <= 1.0:
        return math.inf
    return (beta - m_over_n) / (beta * (beta - 1.0))


# --- empirical spectra -------------------------------------------------------

@dataclass(frozen=True)
class EigenHistogram:
    """Area-1 histogram of Gram eigenvalues over random patterns."""

    bin_edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    n_samples: int
    min_eigenvalue: float
    max_eigenvalue: float
    trials: int
    seed: int
    eigenvalues: np.ndarray  # every sampled eigenvalue, for rebinning

    @property
    def bin_centers(self):
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @classmethod
    def from_eigenvalues(cls, eigenvalues, bins, value_range, trials, seed):
        w = np.asarray(eigenvalues)
        counts, edges = np.histogram(w, bins=bins, range=value_range)
        total = counts.sum()
        widths = np.diff(edges)
        density = counts / (total * widths) if total else np.zeros(bins)
        return cls(
            bin_edges=edges,
            density=density,
            counts=counts,
            n_samples=int(w.size),
            min_eigenvalue=float(w.min()),
            max_eigenvalue=float(w.max()),
            trials=trials,
            seed=seed,
            eigenvalues=w,
        )

    def rebin(self, value_range):
        """The same eigenvalue sample, binned over another range."""
        return EigenHistogram.from_eigenvalues(self.eigenvalues, self.counts.size,
                                               value_range, self.trials, self.seed)


def eigen_histogram(frame, k, trials, bins=100, seed=0, value_range=None) -> EigenHistogram:
    """Aggregate eigenvalues of A_s A_s' over `trials` uniform random patterns.

    Default range [0, n/m] covers the DFT-spectrum support; i.i.d. frames
    spill past n/m, so pass an explicit range there.  Per-trial RNG streams
    are derived from (seed, trial), so the aggregate is independent of
    evaluation order.
    """
    from .patterns import pattern_set  # deferred: patterns imports spectral

    if k > frame.m:
        raise ValueError(f"k={k} exceeds m={frame.m}")
    if value_range is None:
        value_range = (0.0, frame.n / frame.m)
    idx, _ = pattern_set(frame.n, k, "sampled", trials, seed)
    all_w = [gram_eigenvalues(frame, s).eigenvalues for s in idx]
    return EigenHistogram.from_eigenvalues(np.concatenate(all_w), bins, value_range,
                                           trials, seed)


def l1_density_distance(hist, density_fn):
    """L1 distance between an empirical histogram and a reference density,
    both seen as piecewise-constant on the histogram bins."""
    edges = hist.bin_edges
    ref = np.empty(len(edges) - 1)
    for i in range(len(ref)):
        xs = np.linspace(edges[i], edges[i + 1], L1_SUBDIVISIONS + 1)
        ys = np.asarray(density_fn(xs), dtype=float)
        ref[i] = np.trapezoid(ys, xs) / (edges[i + 1] - edges[i])
    return float(np.sum(np.abs(hist.density - ref) * np.diff(edges)))
