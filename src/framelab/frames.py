"""Frame constructions and certification.

A frame here is an n x m matrix with (nominally) unit-norm rows; rows are the
frame elements, n >= m.  Families provided:

  * band-limited DFT    -- first m columns of the n-point IDFT
  * random i.i.d.       -- Gaussian entries of variance 1/m
  * DFT spectrum        -- arbitrary m-subset of IDFT columns
  * DSS                 -- DFT spectrum on a quadratic difference set
  * Paley real ETF      -- closed form, read off the DFT that diagonalizes
                           the Legendre core of a symmetric conference matrix

plus certification helpers (Welch-bound equiangularity, tightness) and a
plain-text serialization format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

__all__ = [
    "Frame",
    "DifferenceSet",
    "ETFReport",
    "FrameError",
    "PatternError",
    "frame_rows",
    "check_patterns",
    "build_bandlimited_dft",
    "build_random_iid",
    "build_dft_spectrum",
    "quadratic_difference_set",
    "build_dss",
    "build_paley_etf",
    "legendre_symbol",
    "conference_matrix",
    "welch_bound",
    "verify_etf",
    "save_frame",
    "load_frame",
]

_GATHER_ROWS = 64  # rows per step of the DFT-family gather


class FrameError(ValueError):
    """Invalid frame construction parameters."""


def frame_rows(x):
    """A Frame's rows, or an array, as float64 (complex128 if complex); no copy if already so."""
    a = np.asarray(x.data if isinstance(x, Frame) else x)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def _frozen(a):
    """A builder's fresh array, made read-only so that `Frame` keeps it."""
    a.setflags(write=False)
    return a


class PatternError(IndexError, ValueError):
    """Indices `check_patterns` refuses; an IndexError when out of range."""


def check_patterns(n, idx):
    """The one pattern check: `idx` as a non-empty (T, k) intp array of indices
    in [0, n), none repeated in a row, rows as given; one pattern is `[pattern]`."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.size == 0:
        raise PatternError("empty pattern" if idx.size == 0 else "need a (T, k) pattern set")
    if not np.issubdtype(idx.dtype, np.integer):
        raise PatternError(f"pattern indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise PatternError(f"pattern index out of range for n={n}")
    srt = np.sort(idx, axis=1)
    if (srt[:, 1:] == srt[:, :-1]).any():
        raise PatternError("repeated pattern index")
    return idx.astype(np.intp, copy=False)


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
    """Immutable n x m frame matrix plus construction metadata.

    Ownership rule: `data` is kept as given only when it is already the array
    a Frame holds -- read-only, C-ordered, float64 or complex128, and owning
    its memory (`base is None`), so no writeable array shares that memory.  Anything
    else, of any real or complex dtype, is copied into such an array.  The
    builders hand over a fresh array frozen this way, so a frame is built in
    the one buffer it keeps.

    `kind` is a label, unchecked, with one exception: the label that selects
    a numeric path, "dss", selects it only through `has_dss_rows`."""

    data: np.ndarray
    kind: str = "custom"
    spectrum: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        a = frame_rows(self.data)
        if a.flags.writeable or a.base is not None or not a.flags.c_contiguous:
            a = np.array(a, order="C")  # private copy, frozen below
        if a.ndim != 2:
            raise FrameError("frame data must be a 2-d matrix")
        n, m = a.shape
        if not (n >= m >= 1):
            raise FrameError(f"need n >= m >= 1, got n={n}, m={m}")
        x = a.view(np.float64)  # complex: (re, im) pairs
        # a finite sum of squares has only finite terms, so rows checked for
        # unit norm pay the n x m finiteness pass only when some sum is not finite
        sq = None if self.kind == "random_iid" else np.einsum("ij,ij->i", x, x)
        if (sq is None or not np.isfinite(sq).all()) and not np.isfinite(x).all():
            raise FrameError("frame data must be finite (no nan or inf)")
        if sq is not None:
            bad = np.abs(np.sqrt(sq) - 1.0).max()
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

    @cached_property
    def has_dss_rows(self):
        """Whether kind is "dss" and the rows are `build_dss(n)`'s bit for bit:
        `spectral.inverse_energy` reads such a Frame's etas off its
        construction.  Checked once per Frame; `build_dss` records True."""
        if self.kind != "dss":
            return False
        try:
            rows = build_dss(self.n).data
        except FrameError:  # n is no prime = 3 mod 4
            return False
        return np.array_equal(self.data, rows)

    def submatrix(self, pattern):
        """The pattern's rows in the order given; `check_patterns` checks it."""
        return self.data[check_patterns(self.n, [pattern])[0]]


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
    a = _gather_roots(n, spec, np.sqrt(m), np.empty((n, m), dtype=np.complex128))
    return Frame(_frozen(a), kind=kind, spectrum=spec)


def _gather_roots(n, f, norm, out):
    """Fill out[t, j] = exp(2 pi i t f[j] / n) / norm for t in [0, n): the one
    gather of every structured frame.  Returns out.

    exp(2 pi i t f / n) is the n-th root of unity at t f mod n; reducing t f
    exactly in integers keeps every exp argument below 2 pi.  The gather runs
    _GATHER_ROWS rows at a time straight into out, so no n x len(f) index
    table is formed.  Row lo + i of a block reads the doubled table
    (roots, roots) at (i f mod n) + (lo f mod n): both terms lie in [0, n),
    so their sum lies in [0, 2n) and names the root at (lo + i) f mod n, and
    a block costs one add and no % at all.  Since every index is in range by
    construction, take's mode="clip" never clips; unlike the default "raise",
    which always buffers out, it writes a contiguous out in place.  Dividing
    by norm, rather than multiplying by its inverse, fixes the frames' bits."""
    f = np.asarray(f, dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(n) / n) / norm
    table = np.concatenate((roots, roots))
    step = np.arange(min(_GATHER_ROWS, n))[:, None] * f % n  # i f mod n, per block row
    idx = np.empty_like(step)
    for lo in range(0, n, _GATHER_ROWS):
        rows = min(_GATHER_ROWS, n - lo)
        np.add(step[:rows], lo * f % n, out=idx[:rows])
        np.take(table, idx[:rows], out=out[lo:lo + rows], mode="clip")
    return out


def build_random_iid(n, m, field="real", seed=0) -> Frame:
    """i.i.d. Gaussian frame, entry variance 1/m; rows are *not* renormalized
    (their norms tend to 1 as m grows)."""
    if m > n:
        raise FrameError(f"m={m} exceeds n={n}")
    rng = np.random.default_rng(seed)
    if field == "real":
        a = rng.standard_normal((n, m))
        a /= np.sqrt(m)
    elif field == "complex":
        # (x + 1j y) / sqrt(2m) for draws x then y, formed in the frame's
        # buffer through one real scratch array
        a = np.empty((n, m), dtype=np.complex128)
        part = np.empty((n, m))
        a.real = rng.standard_normal(out=part)
        a.imag = rng.standard_normal(out=part)
        del part  # gone before Frame's checks allocate
        a /= np.sqrt(2 * m)
    else:
        raise FrameError(f"unknown field {field!r}")
    return Frame(_frozen(a), kind="random_iid", seed=seed)


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


def _check_prime(p, r, name="p"):
    """Refuse p unless it is a prime = r (mod 4): O(sqrt p), so a builder
    runs it before anything that grows with p."""
    if not _is_prime(p):
        raise FrameError(f"{name}={p} is not prime")
    if p % 4 != r:
        raise FrameError(f"{name}={p} is not {r} mod 4")


def _quadratic_residues(p, r, name="p"):
    """The nonzero squares mod p, sorted, for a prime p = r (mod 4)."""
    _check_prime(p, r, name)
    # squaring 1..p-1 covers each residue twice
    return tuple(sorted({x * x % p for x in range(1, p)}))


def quadratic_difference_set(p) -> DifferenceSet:
    """Quadratic residues mod a prime p = 3 (mod 4): an
    (n=p, m=(p-1)/2, lam=(p-3)/4) difference set."""
    return DifferenceSet(n=p, m=(p - 1) // 2, lam=(p - 3) // 4,
                         elements=_quadratic_residues(p, 3))


def build_dss(p) -> Frame:
    """DFT frame on the quadratic difference-set spectrum mod p:
    `build_dft_spectrum` on its elements, except that the p x m buffer is
    allocated, or refused with MemoryError, before the O(p) residue work."""
    _check_prime(p, 3)
    a = np.empty((p, (p - 1) // 2), dtype=np.complex128)
    ds = quadratic_difference_set(p)
    _gather_roots(p, ds.elements, np.sqrt(ds.m), a)
    frame = Frame(_frozen(a), kind="dss", spectrum=ds.elements)
    vars(frame)["has_dss_rows"] = True  # the rows the check compares with: none is paid
    return frame


def legendre_symbol(q, r, name="p"):
    """chi(x) for x in [0, q), as floats, for a prime q = r (mod 4): 0 at 0,
    1 on the quadratic residues, -1 elsewhere."""
    chi = -np.ones(q)
    chi[list(_quadratic_residues(q, r, name))] = 1.0
    chi[0] = 0.0
    return chi


def conference_matrix(n):
    """Symmetric conference matrix of order n = q+1, q = 1 (mod 4) prime
    (Paley, 1933): zero diagonal, +-1 off-diagonal, C C' = (n-1) I."""
    q = n - 1
    chi = legendre_symbol(q, 1, "q = n-1")
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

    Its Gram is G = I + C/sqrt(q), q = n-1, for the symmetric conference
    matrix C of `conference_matrix` (Strohmer and Heath, "Grassmannian frames
    with applications to coding and communication", 2003); the frame is
    sqrt(2) times an orthonormal basis of G's 2-eigenspace, read off rows.
    The DFT diagonalizes C's circulant Legendre core, with eigenvalue
    chi(f) sqrt(q) at frequency f != 0, so that eigenspace has a closed form:
    row 0 is e_0, and row t+1 is 1/sqrt(q), then 2/sqrt(q) times
    cos(2 pi t f / q) and sin(2 pi t f / q) in its odd and even columns, for
    each quadratic residue f < q/2 (one of each residue pair {f, q-f}).
    The n x n/2 buffer is allocated, or refused with MemoryError, before the
    O(n) residue work.
    """
    q = n - 1
    _check_prime(q, 1, "q = n-1")
    a = np.zeros((n, n // 2))
    f = [x for x in _quadratic_residues(q, 1, "q = n-1") if 2 * x < q]
    a[0, 0] = 1.0
    a[1:, 0] = 1.0 / np.sqrt(q)
    # (cos, sin) pairs in adjacent columns are complex128's own layout, so
    # the gather writes them through a complex view of the real buffer
    _gather_roots(q, f, np.sqrt(q) / 2, a[1:, 1:].view(np.complex128))
    return Frame(_frozen(a), kind="paley_etf")


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
    header's n, m and field.  '%.17g' writes every double so that it reads
    back exactly, so a saved frame's rows come back bit for bit."""
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
