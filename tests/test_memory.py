"""Allocation bounds at the paper's size (n = 947, k = 378), by tracemalloc.

A frame is built in the one buffer it keeps, and `spectral.factored` frees
A_s once its Gram is formed.  Short-lived buffers of several MB on top of
those would push the process heap past the allocator's trim threshold, so
that every op handed pages back to the kernel and faulted them in again.
numpy reports its array data to tracemalloc, so these peaks count every
array an op makes.
"""

import tracemalloc

import numpy as np
import pytest

from framelab import frames, spectral


def _traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw during the call,
    above what was allocated when it began.  fn runs once untraced first,
    so lazily built state (routine tables) is not counted."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


_SPECTRUM_947 = sorted(np.random.default_rng(5).choice(947, 473, replace=False).tolist())

# Peak over the frame's own bytes.  The build's only other arrays are a
# 64-row gather chunk and the n x m bool finiteness mask of the `Frame`
# check (1/8 of the frame); a complex iid frame also draws through one real
# n x m scratch array (1/2).
_BUILD_BOUNDS = {
    "bl947_473": (lambda: frames.build_bandlimited_dft(947, 473), 1.25),
    "dss947": (lambda: frames.build_dss(947), 1.25),
    "spectrum947_473": (lambda: frames.build_dft_spectrum(947, _SPECTRUM_947), 1.25),
    "iid947_473_real": (lambda: frames.build_random_iid(947, 473, seed=3), 1.25),
    "iid947_473_complex": (lambda: frames.build_random_iid(947, 473, "complex", seed=3), 1.6),
    "paley998": (lambda: frames.build_paley_etf(998), 1.25),
}


@pytest.mark.parametrize("label", sorted(_BUILD_BOUNDS))
def test_frame_build_peak_is_near_the_frame_itself(label):
    build, bound = _BUILD_BOUNDS[label]
    frame, peak = _traced_peak(build)
    assert peak <= bound * frame.data.nbytes, (peak / frame.data.nbytes, bound)


def test_inverse_energy_frees_a_s_before_inverting_the_factor():
    # A_s and its Gram G live together; L^{-1} (in G's place) and the copy
    # its dot product reads must not be added to A_s
    f = frames.build_dss(947)
    k = 378
    pattern = tuple(sorted(np.random.default_rng(7).choice(f.n, k, replace=False).tolist()))
    eta, peak = _traced_peak(lambda: spectral.inverse_energy(f, pattern))
    assert np.isfinite(eta)
    a_s_bytes = k * f.m * f.data.itemsize
    assert peak < a_s_bytes + 1.5 * k * k * f.data.itemsize, peak
