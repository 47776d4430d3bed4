"""Submatrix spectra, the inverse-energy functional, and limiting densities.

For a frame A (n x m, unit rows) and a pattern s of k row indices, the inverse
energy of the k x m submatrix A_s is

    eta_s = (1/m) tr((A_s A_s')^{-1}),

the amplification factor of the least-squares encoder.  eta_s >= k/m always,
with equality exactly when the rows of A_s are orthonormal.  Singular
submatrices report eta = inf rather than an overflow artifact.

One kernel, `factored`, gives every eta: it checks a (T, k) set once
(`frames.check_patterns`), splits it into `chunks` bounded in bytes, orders
each pattern of a chunk as `canonical_rows` does, gathers each chunk's rows
at once (`factor_rows`), factors conj(G) = L L' for G = A_s A_s' (`gram` forms
the conjugate in the lower triangle, zero above it), and reads
eta = ||L^{-1}||_F^2 / m off the inverse factor.  `inverse_energy` (ie-hist,
mlie), `optimize.sampled_mlie`, `optimize.mlie_gradient` and
`coder.encoder_matrix` share it, so they agree bit for bit.  There is one
singularity policy: `cholesky` gives no factor when potrf fails or its
squared pivot ratio is under sqrt(eps), and then `gram_eigenvalues` decides
singular (eta = inf) or finite.  Every finite pattern has one kind of
inverse factor, a lower-triangular Y with Y^H Y = conj(G)^{-1}: L^{-1}, or
`eigen_factor`'s Y without a Cholesky factor.  Where a finite eta is needed,
a singular pattern raises `SingularPatternError`.  Every
route reads frame rows through `frames.frame_rows`, in float64 or complex128,
and calls BLAS and LAPACK only through scipy, from one table for each
(`routines`, so a pattern pays no lookup): numpy and scipy may load separate
BLAS builds, and moving one pattern's work between their thread pools costs
more than the arithmetic.

The reference eigenvalue laws of the Grams A_s A_s' of random patterns, chosen
by `reference_law`, are Marchenko--Pastur (i.i.d. frames) and MANOVA
(difference-set, DFT-spectrum and Paley ETF frames).  Their 1/x moments, scaled
by 1/beta = k/m, give the limiting eta: 1/(beta - 1) and (beta - w) /
(beta (beta - 1)) with w = m/n, both inf at beta <= 1.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.linalg import eigh, get_blas_funcs, get_lapack_funcs, qr

from .frames import check_patterns, frame_rows

__all__ = [
    "SingularPatternError",
    "EigenSample",
    "EigenHistogram",
    "canonical_rows",
    "chunks",
    "gram",
    "gram_eigenvalues",
    "eigen_factor",
    "factored",
    "factor_rows",
    "inverse_energy",
    "eta_from_eigenvalues",
    "cholesky",
    "routines",
    "mp_edges",
    "mp_density",
    "mp_eta_limit",
    "manova_edges",
    "manova_density",
    "manova_eta_limit",
    "reference_law",
    "eigen_histogram",
    "l1_density_distance",
]

# lambda_min <= SINGULARITY_RATIO * lambda_max counts as singular: the log
# histograms need to tell "huge but finite" from "gone".
SINGULARITY_RATIO = 1e-12
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # the squared pivot ratio screen

# Leading sort keys tried before the full lexicographic sort: a complex
# band-limited frame has a constant column 0 (keys 0-1), so keys 2-3 are the
# first to tell its rows apart.
_LEADING_KEYS = 4

# Bytes of one chunk of a pattern set: its gathered rows and their Grams (for
# the gradient, its cores and inverse factors).  A small-k set pays its fixed
# Python costs per chunk; a paper-size A_s (k = 378 at dss947, 2.9 MB) goes
# alone, so it is freed before its factor is inverted.
_CHUNK_BYTES = 1 << 20

L1_SUBDIVISIONS = 16  # trapezoid panels per bin in l1_density_distance


class SingularPatternError(np.linalg.LinAlgError):
    """A pattern submatrix is numerically rank deficient where a finite eta is
    needed (an encoder, a gradient, an MLIE).  A LinAlgError, so a ValueError."""


def canonical_rows(data, idx):
    """Row indices of the (T, k) pattern set `idx`, each pattern's rows in
    canonical (lexicographic) order of their entries.

    Reordering rows conjugates the Gram by a permutation, which leaves
    eigenvalues and eta mathematically fixed but perturbs floating point;
    sorting first makes eta bitwise invariant under row/pattern relabeling.
    """
    data = frame_rows(data)
    return _canonical_order(data, check_patterns(len(data), idx))


def _canonical_order(data, idx):
    """`canonical_rows` of a set `frames.check_patterns` has passed."""
    idx = np.sort(idx, axis=1)
    n, (t, k) = len(data), idx.shape
    # One lexsort orders the whole set, the pattern as primary key.  Once the
    # leading keys leave no two rows of a pattern tied, the later keys never
    # decide a comparison and the short sort is the full one.  Patterns with
    # ties (repeated rows) take the full sort.  Frame data is finite, so ==
    # sees every tie.
    key = np.ascontiguousarray(data).view(np.float64).reshape(n, -1)
    pid = np.repeat(np.arange(t), k)
    lead = key[idx.ravel(), :_LEADING_KEYS]
    order = np.lexsort((*lead.T[::-1], pid))
    rows = idx.ravel()[order].reshape(t, k)
    ranked = lead[order].reshape(t, k, -1)
    tied = np.all(ranked[:, 1:] == ranked[:, :-1], axis=2).any(axis=1)
    if tied.any():
        sub = idx[tied].ravel()
        rows[tied] = sub[np.lexsort((*key[sub].T[::-1], pid[:sub.size]))].reshape(-1, k)
    return rows


def eta_from_eigenvalues(eigenvalues, m):
    """(1/m) sum 1/lambda_i, or inf under the singularity threshold."""
    w = np.asarray(eigenvalues, dtype=float)
    wmin, wmax = w.min(), w.max()
    if wmin <= SINGULARITY_RATIO * wmax or wmin <= 0.0:
        return math.inf
    return float(np.sum(1.0 / w)) / m


@cache
def routines(dtype):
    """The scipy BLAS/LAPACK routines of the eta kernel for arrays of `dtype`,
    by role: gram (herk/syrk), dot (dotc/dot), trmm, potrf and trtri.  The
    kernel passes their flags by position: f2py parses keywords at about
    1 us a call, as long as a whole k = 5 potrf takes."""
    probe = np.empty(0, dtype)
    field = ("herk", "dotc") if np.iscomplexobj(probe) else ("syrk", "dot")
    blas = get_blas_funcs((*field, "trmm"), (probe,))
    return dict(zip(("gram", "dot", "trmm", "potrf", "trtri"),
                    (*blas, *get_lapack_funcs(("potrf", "trtri"), (probe,)))))


def cholesky(g):
    """Lower Cholesky factor of the Hermitian matrix g, or None when potrf
    finds g not positive definite or the squared pivot ratio is under
    sqrt(eps): then only `gram_eigenvalues` can decide singular vs finite.
    potrf (clean=0) factors a Fortran-ordered g (so any 1 x 1 g) in place and
    leaves its strict upper triangle, which `gram` zeroes and no solve reads."""
    low, info = routines(g.dtype)["potrf"](g, 1, 0, 1)  # lower, clean=0, overwrite_a
    if info < 0:
        raise ValueError(f"potrf: illegal argument {-info}")
    # A squared pivot ratio x leaves rounding of about eps/x in the later
    # pivots, which passes for a real pivot once x is under sqrt(eps): rows
    # (0, 1, 0), (sin e, cos e, 0), (1, 0, 0) span a plane, yet at e = 1e-5
    # the third pivot comes out near 3e-4.  At info == 0 the pivots are real
    # and positive.
    # Python floats: min/max over a list cost less than two numpy reductions.
    d = low.diagonal().real.tolist()
    if info > 0 or min(d) ** 2 <= _SQRT_EPS * max(d) ** 2:
        return None
    return low


@dataclass(frozen=True)
class EigenSample:
    """Spectrum of one pattern Gram A_s A_s' (ascending) plus its eta."""

    eigenvalues: np.ndarray
    eta: float


def gram(a_s):
    """conj(G), G = A_s A_s', in the lower triangle (upper unset): the
    C-ordered A_s is the Fortran-ordered B = A_s^T, so herk/syrk forms
    B^H B = conj(G) without a copy.  conj(G) has G's eigenvalues and trace."""
    return routines(a_s.dtype)["gram"](1.0, a_s.T, 0.0, None, 2, 1)  # beta=0, trans=2, lower


def gram_eigenvalues(frame, pattern) -> EigenSample:
    """The eigen route for one pattern of a Frame or of its data array."""
    data = frame_rows(frame)
    rows, = canonical_rows(data, [pattern])
    w = eigh(gram(data[rows]), lower=True, eigvals_only=True, driver="evd",
             overwrite_a=True, check_finite=False)
    return EigenSample(eigenvalues=w, eta=eta_from_eigenvalues(w, data.shape[1]))


def eigen_factor(a_s, w):
    """The lower-triangular Y with Y^H Y = conj(G)^{-1}, G = A_s A_s', for a
    pattern without a `cholesky` factor whose Gram has the ascending, finite
    eigenvalues w.  With the eigenvectors V of conj(G), Z = diag(w)^{-1/2} V^H
    has Z^H Z = conj(G)^{-1}; QR of Z with its columns reversed, Z P = Q R,
    gives Y = P R P, R flipped in both axes, so Y is lower like `factored`'s
    L^{-1}.  w is `gram_eigenvalues`', so ||Y||_F^2 / m is its eta up to
    rounding: the eigenvalues `eigh` gives with vectors differ in their last
    bits, which a screened pattern's conditioning magnifies in eta."""
    v = eigh(gram(a_s), lower=True, driver="evd", overwrite_a=True, check_finite=False)[1]
    # Z P = (P V diag(w)^{-1/2})^H
    return qr((v[::-1] / np.sqrt(w)).conj().T, mode="r", check_finite=False)[0][::-1, ::-1]


def chunks(data, idx):
    """The canonical rows of the (T, k) pattern set `idx` as consecutive
    (T_c, k) blocks: as many patterns as keep their k x m rows and k x k Grams
    within _CHUNK_BYTES, and at least one.  The whole set is checked once
    (`frames.check_patterns`), then each block is put in canonical order on
    its own: the order is per pattern, so the rows are `canonical_rows`'s,
    and the sort keys of a large set never exist all at once."""
    data = np.ascontiguousarray(frame_rows(data))  # one copy at most, not one a chunk
    idx = check_patterns(len(data), idx)
    t, k = idx.shape
    step = max(1, _CHUNK_BYTES // (k * (data.shape[1] + k) * data.itemsize))
    return [_canonical_order(data, idx[lo:lo + step]) for lo in range(0, t, step)]


def factor_rows(data, rows):
    """`factored`'s triples for one block of canonical rows from `chunks`,
    over frame rows as `frames.frame_rows` gives them.  One gather forms every
    A_s of the block; it is dropped once their Grams are formed, and each
    Gram is then factored in place.  A Gram without a `cholesky` factor takes
    the eigen route: `gram_eigenvalues` gives its eta, and a finite one its
    `eigen_factor`; Y is None only when eta is inf."""
    m = data.shape[1]
    fn = routines(data.dtype)
    a = data[rows]
    grams = [gram(a_s) for a_s in a]
    del a
    for r, g in zip(rows, grams):
        low = cholesky(g)
        if low is None:
            es = gram_eigenvalues(data, r)
            y = None if math.isinf(es.eta) else eigen_factor(data[r], es.eigenvalues)
            yield r, y, es.eta
            continue
        inv_low, info = fn["trtri"](low, 1, 0, 1)  # lower, unitdiag=0, overwrite_c
        if info:
            raise ValueError(f"trtri failed with info={info}")
        x = inv_low.ravel()
        yield r, inv_low, float(fn["dot"](x, x).real) / m


def factored(data, idx):
    """Per pattern of the (T, k) set `idx` over the frame rows `data`, the
    triple (rows, Y, eta_s): the pattern's rows in canonical order, a
    lower-triangular inverse factor Y with Y^H Y = conj(G)^{-1},
    G = A_s A_s', and eta_s = ||Y||_F^2 / m.  With a `cholesky` factor L of
    conj(G), Y = L^{-1}, and eta is read off it; L^{-1} has an exactly zero
    strict upper triangle: `gram` leaves it zero, and potrf and trtri write
    only the lower one.  Without one the eigenvalue route
    (`gram_eigenvalues`) owns the singular/finite decision and eta, and Y is
    `eigen_factor`'s.  Y is None exactly when eta is inf.

    The set runs in `chunks`, each through `factor_rows`.  No A_s is kept:
    a chunk's rows are freed once its Grams are formed, so trtri and the copy
    `ravel` makes of the Fortran-ordered L^{-1} reuse their memory instead of
    adding to it.  A caller that needs A_s (the gradient) gathers it itself.
    """
    data = frame_rows(data)
    for rows in chunks(data, idx):
        yield from factor_rows(data, rows)


def inverse_energy(frame, pattern):
    """eta_s of one pattern of a Frame or of its rows, from `factored`; inf
    when singular."""
    return next(factored(frame, [pattern]))[2]


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


ReferenceLaw = namedtuple("ReferenceLaw", "name density eta_limit value_range")


def reference_law(frame, k) -> ReferenceLaw:
    """The one map from a frame's kind and k to the limiting law of its random
    k-pattern Grams: "marchenko_pastur" for i.i.d. frames; "manova" for
    difference-set, DFT-spectrum and Paley ETF frames wherever
    `manova_eta_limit` accepts (m/k, m/n); "none" otherwise, with a zero
    density and eta_limit None.  The density is vectorized in x.  The value
    range [0, n/m] holds a tight frame's pattern spectra; i.i.d. spectra reach
    past n/m, so theirs ends at 1.02 times the upper Marchenko--Pastur edge."""
    if not 0 < k <= frame.m:
        raise ValueError(f"need 0 < k <= m, got k={k}, m={frame.m}")
    beta, w = frame.m / k, frame.m / frame.n
    if frame.kind == "random_iid":
        return ReferenceLaw("marchenko_pastur", partial(mp_density, beta=beta),
                            mp_eta_limit(beta), (0.0, 1.02 * mp_edges(beta)[1]))
    tight = (0.0, frame.n / frame.m)
    if frame.kind in ("dss", "dft_spectrum", "paley_etf"):
        with contextlib.suppress(ValueError):  # square frame, beta > n/m or k + m > n
            return ReferenceLaw("manova", partial(manova_density, m_over_n=w, beta=beta),
                                manova_eta_limit(beta, w), tight)
    return ReferenceLaw("none", lambda x: np.zeros(np.shape(x)), None, tight)


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

    The default range is the one of the frame's `reference_law`.  Per-trial
    RNG streams are derived from (seed, trial), so the aggregate is
    independent of evaluation order.
    """
    from .patterns import pattern_set  # deferred: patterns imports spectral

    law = reference_law(frame, k)  # refuses k outside (0, m]
    idx, _ = pattern_set(frame.n, k, "sampled", trials, seed)
    all_w = [gram_eigenvalues(frame, s).eigenvalues for s in idx]
    return EigenHistogram.from_eigenvalues(
        np.concatenate(all_w), bins, law.value_range if value_range is None else value_range,
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
