"""Frame constructions and certification.

A frame here is an n x m matrix with (nominally) unit-norm rows; rows are the
frame elements, n >= m.  Families provided:

  * band-limited DFT    -- first m columns of the n-point IDFT
  * random i.i.d.       -- Gaussian entries of variance 1/m
  * DFT spectrum        -- arbitrary m-subset of IDFT columns
  * DSS                 -- DFT spectrum on a quadratic difference set
  * Paley real ETF      -- from a symmetric conference matrix

plus certification helpers (Welch-bound equiangularity, tightness, full-spark
probing) and a plain-text serialization format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isinf, isqrt

import numpy as np

__all__ = [
    "Frame",
    "DifferenceSet",
    "ETFReport",
    "FrameError",
    "build_bandlimited_dft",
    "build_random_iid",
    "build_dft_spectrum",
    "quadratic_difference_set",
    "build_dss",
    "build_paley_etf",
    "conference_matrix",
    "welch_bound",
    "verify_etf",
    "full_spark_check",
    "pattern_indices",
    "save_frame",
    "load_frame",
]

class FrameError(ValueError):
    """Invalid frame construction parameters."""


def pattern_indices(pattern):
    """The row indices of a pattern (any sequence of ints, a row of a
    pattern-set array included) as a tuple of ints, in the given order."""
    return tuple(np.asarray(pattern, dtype=np.intp).tolist())


def _is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class Frame:
    """Immutable n x m frame matrix plus construction metadata."""

    data: np.ndarray
    kind: str = "custom"
    spectrum: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        a = np.array(self.data)  # private copy, frozen below
        if a.ndim != 2:
            raise FrameError("frame data must be a 2-d matrix")
        n, m = a.shape
        if not (n >= m >= 1):
            raise FrameError(f"need n >= m >= 1, got n={n}, m={m}")
        # complex128 data is checked as the float64 view of its (re, im)
        # pairs, so real and complex frames share one path.  Any other dtype
        # keeps numpy's norm: float32 and complex64 data are still judged in
        # their own precision, as the unit-row gate always judged them.
        x = np.ascontiguousarray(a).view(np.float64) if a.dtype == np.complex128 else a
        if not np.isfinite(x).all():
            raise FrameError("frame data must be finite (no nan or inf)")
        if self.kind != "random_iid":
            if x.dtype == np.float64:
                norms = np.sqrt(np.einsum("ij,ij->i", x, x))
            else:
                norms = np.linalg.norm(x, axis=1)
            bad = np.abs(norms - 1.0).max()
            if bad > 1e-9:  # loose gate; constructions themselves hit 1e-12
                raise FrameError(f"rows must be unit norm (max deviation {bad:.2e})")
        if self.spectrum is not None:
            spec = tuple(int(f) for f in self.spectrum)
            if len(set(spec)) != m or any(not 0 <= f < n for f in spec):
                raise FrameError("spectrum must be m distinct indices in [0, n)")
            object.__setattr__(self, "spectrum", spec)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1]

    @property
    def field(self):
        return "complex" if np.iscomplexobj(self.data) else "real"

    def submatrix(self, indices):
        """Rows of the frame at the given (pattern) indices, as an array."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("pattern index out of range")
        return self.data[idx]


def build_bandlimited_dft(n, m) -> Frame:
    """First m columns of the n-point IDFT, rows scaled to unit norm.

    A[t, f] = exp(2 pi i t f / n) / sqrt(m).
    """
    if m > n:
        raise FrameError(f"m={m} exceeds n={n}")
    return build_dft_spectrum(n, range(m), kind="bandlimited_dft")


def build_dft_spectrum(n, spectrum, kind="dft_spectrum") -> Frame:
    """IDFT columns at the given frequency subset, unit rows."""
    spec = tuple(int(f) for f in spectrum)
    m = len(spec)
    if m == 0:
        raise FrameError(f"need n >= m >= 1, got n={n}, m=0")
    if len(set(spec)) != m:
        raise FrameError("duplicate spectrum index")
    if any(not 0 <= f < n for f in spec):
        raise FrameError("spectrum index out of range")
    # exp(2 pi i t f / n) is the n-th root of unity at t f mod n; reducing
    # t f exactly in integers keeps every exp argument below 2 pi
    t = np.arange(n)[:, None]
    f = np.array(spec, dtype=np.int64)[None, :]
    roots = np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(m)
    return Frame(roots[t * f % n], kind=kind, spectrum=spec)


def build_random_iid(n, m, field="real", seed=0) -> Frame:
    """i.i.d. Gaussian frame, entry variance 1/m; rows are *not* renormalized
    (their norms tend to 1 as m grows)."""
    if m > n:
        raise FrameError(f"m={m} exceeds n={n}")
    rng = np.random.default_rng(seed)
    if field == "real":
        a = rng.standard_normal((n, m)) / np.sqrt(m)
    elif field == "complex":
        a = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2 * m)
    else:
        raise FrameError(f"unknown field {field!r}")
    return Frame(a, kind="random_iid", seed=seed)


@dataclass(frozen=True)
class DifferenceSet:
    """(n, m, lam) difference set over Z_n: every nonzero residue occurs as a
    difference of distinct elements exactly lam times."""

    n: int
    m: int
    lam: int
    elements: tuple

    def __post_init__(self):
        if self.lam * (self.n - 1) != self.m * (self.m - 1):
            raise FrameError("lam*(n-1) != m*(m-1)")
        counts = self.difference_counts()
        if not np.all(counts[1:] == self.lam):
            raise FrameError("not a difference set: unequal difference counts")

    def difference_counts(self):
        """counts[d] = number of ordered pairs of distinct elements with
        difference d mod n; counts[0] counts the m trivial self-pairs.

        The counts are the cyclic autocorrelation of the elements' indicator
        (multiplicities, if an element repeats), taken by FFT; every count is
        at most m^2, far inside the rounding that np.rint removes."""
        x = np.bincount(np.array(self.elements) % self.n, minlength=self.n)
        spectrum = np.fft.rfft(x)
        corr = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, self.n)
        return np.rint(corr).astype(np.int64)


def quadratic_difference_set(p) -> DifferenceSet:
    """Quadratic residues mod a prime p = 3 (mod 4): an
    (n=p, m=(p-1)/2, lam=(p-3)/4) difference set."""
    if not _is_prime(p):
        raise FrameError(f"p={p} is not prime")
    if p % 4 != 3:
        raise FrameError(f"p={p} is not 3 mod 4 (lam would not be an integer)")
    # squaring 1..p-1 covers each residue twice
    elements = tuple(sorted({x * x % p for x in range(1, p)}))
    return DifferenceSet(n=p, m=(p - 1) // 2, lam=(p - 3) // 4, elements=elements)


def build_dss(p) -> Frame:
    """DFT frame on the quadratic difference-set spectrum mod p."""
    ds = quadratic_difference_set(p)
    return build_dft_spectrum(ds.n, ds.elements, kind="dss")


def conference_matrix(n):
    """Symmetric conference matrix of order n = q+1, q = 1 (mod 4) prime:
    zero diagonal, +-1 off-diagonal, C C' = (n-1) I."""
    q = n - 1
    if not _is_prime(q):
        raise FrameError(f"order {n}: q = n-1 = {q} is not prime (prime powers unsupported)")
    if q % 4 != 1:
        raise FrameError(f"order {n}: q = {q} is not 1 mod 4, no symmetric conference matrix here")
    chi = -np.ones(q)
    chi[list({x * x % q for x in range(1, q)})] = 1.0
    chi[0] = 0.0
    # circulant Legendre core: Q[i, j] = chi(j - i)
    idx = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    core = chi[idx]
    c = np.zeros((n, n))
    c[0, 1:] = 1.0
    c[1:, 0] = 1.0
    c[1:, 1:] = core
    return c


def build_paley_etf(n) -> Frame:
    """Real equiangular tight frame of n unit vectors in dimension n/2.

    The Gram matrix is G = I + C/sqrt(n-1) with C a symmetric conference
    matrix; G has eigenvalues {0, 2} with equal multiplicity, and the frame is
    sqrt(2) times an orthonormal basis of the 2-eigenspace, read off rows.
    """
    c = conference_matrix(n)
    g = np.eye(n) + c / np.sqrt(n - 1)
    w, v = np.linalg.eigh(g)
    a = np.sqrt(2.0) * v[:, w > 1.0]
    if a.shape[1] != n // 2:
        raise FrameError("conference Gram did not split evenly")  # pragma: no cover
    # eigensolver leaves row norms at 1 up to rounding; snap them exactly
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return Frame(a, kind="paley_etf")


def welch_bound(n, m):
    """Lower bound sqrt((n-m)/((n-1) m)) on the peak correlation of n unit
    vectors in dimension m."""
    return np.sqrt((n - m) / ((n - 1) * m))


@dataclass(frozen=True)
class ETFReport:
    is_tight: bool
    tightness_error: float
    is_equiangular: bool
    coherence_min: float
    coherence_max: float
    welch_bound: float
    max_welch_deviation: float


def verify_etf(frame, tol=1e-10) -> ETFReport:
    """Certify tightness (A'A = (n/m) I) and Welch-bound equiangularity.

    Reports, never raises: non-ETF input simply yields False flags.
    """
    a = frame.data
    n, m = a.shape
    gram_cols = a.conj().T @ a
    tightness_error = float(np.abs(gram_cols - (n / m) * np.eye(m)).max())
    corr = np.abs(a @ a.conj().T)
    off = corr[~np.eye(n, dtype=bool)]
    wb = float(welch_bound(n, m))
    dev = float(np.abs(off - wb).max())
    return ETFReport(
        is_tight=tightness_error <= tol * (n / m),
        tightness_error=tightness_error,
        is_equiangular=dev <= tol,
        coherence_min=float(off.min()),
        coherence_max=float(off.max()),
        welch_bound=wb,
        max_welch_deviation=dev,
    )


def full_spark_check(frame, patterns):
    """Smallest singular value of A_s for each pattern; a pattern is flagged
    exactly when `spectral.eta_from_eigenvalues` calls the squared singular
    values singular, the policy under which `inverse_energy` returns inf.

    Returns a list of (pattern, sigma_min, deficient) tuples.
    """
    from .spectral import eta_from_eigenvalues  # deferred: spectral imports frames

    out = []
    for s in patterns:
        idx = pattern_indices(s)
        sv = np.linalg.svd(frame.submatrix(idx), compute_uv=False)
        out.append((idx, float(sv[-1]), isinf(eta_from_eigenvalues(sv ** 2, 1))))
    return out


# --- serialization: one JSON header line, then '%.17g' row-major values ---

def save_frame(frame, path):
    header = {
        "n": frame.n,
        "m": frame.m,
        "field": frame.field,
        "kind": frame.kind,
        "spectrum": list(frame.spectrum) if frame.spectrum is not None else None,
        "seed": frame.seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        a = frame.data
        if frame.field == "complex":
            a = np.column_stack([a.real, a.imag])  # re block then im block
        np.savetxt(fh, a, fmt="%.17g")


def load_frame(path) -> Frame:
    """Read a `save_frame` file; FrameError when the array disagrees with its
    header's n, m and field."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        a = np.loadtxt(fh, ndmin=2)
    n, m, field = header["n"], header["m"], header["field"]
    if field not in ("real", "complex"):
        raise FrameError(f"{path}: unknown field {field!r}")
    cols = 2 * m if field == "complex" else m
    if a.shape != (n, cols):
        raise FrameError(f"{path}: header n={n} m={m} field={field} wants {n} rows of "
                         f"{cols} values, the file holds {a.shape[0]} of {a.shape[1]}")
    if field == "complex":
        a = a[:, :m] + 1j * a[:, m:]
    spectrum = header["spectrum"]
    return Frame(
        a,
        kind=header["kind"],
        spectrum=tuple(spectrum) if spectrum is not None else None,
        seed=header["seed"],
    )
