"""Allocation bounds at the paper's size (n = 947, k = 378), by tracemalloc.

A frame is built in the one buffer it keeps, and `spectral.factored` frees
A_s once its Gram is formed and holds one chunk of a pattern set at a time.
Short-lived buffers of several MB on top of those would push the process
heap past the allocator's trim threshold, so that every op handed pages back
to the kernel and faulted them in again.
numpy reports its array data to tracemalloc, so these peaks count every
array an op makes.
"""

import tracemalloc

import numpy as np
import pytest

from framelab import frames, optimize, patterns, spectral


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

# Peak over the frame's own bytes.  A DFT-family build's only other arrays
# are the gather's 64-row index blocks (two int64 blocks, 0.07 of a complex
# frame at m = 473; measured peak 1.087); Paley's strided gather adds take's
# copy of one output block.  Only a `random_iid` frame's `Frame` check makes
# an n x m bool finiteness mask (1/8 of the frame); a complex iid frame also
# draws through one real n x m scratch array (1/2).
_BUILD_BOUNDS = {
    "bl947_473": (lambda: frames.build_bandlimited_dft(947, 473), 1.1),
    "dss947": (lambda: frames.build_dss(947), 1.1),
    "spectrum947_473": (lambda: frames.build_dft_spectrum(947, _SPECTRUM_947), 1.1),
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
    # its dot product reads must not be added to A_s.  The kernel's bound, so
    # the bare rows: a dss Frame takes `spectral.dss_eta`
    f = frames.build_dss(947)
    k = 378
    pattern = tuple(sorted(np.random.default_rng(7).choice(f.n, k, replace=False).tolist()))
    eta, peak = _traced_peak(lambda: spectral.inverse_energy(f.data, pattern))
    assert np.isfinite(eta)
    a_s_bytes = k * f.m * f.data.itemsize
    assert peak < a_s_bytes + 1.5 * k * k * f.data.itemsize, peak


def test_dss_route_holds_two_real_k_by_k_arrays():
    # the index array, then Q_s and M (factored and inverted in place): no
    # A_s and no complex Gram, and never more than two k x k float64 arrays
    f = frames.build_dss(947)
    k = 378
    pattern = tuple(sorted(np.random.default_rng(7).choice(f.n, k, replace=False).tolist()))
    eta, peak = _traced_peak(lambda: spectral.inverse_energy(f, pattern))
    assert np.isfinite(eta)
    assert peak < 2.1 * k * k * 8, peak / (k * k * 8)


def test_mlie_and_gradient_hold_one_pattern_at_a_time():
    # past its own result, a 3-pattern call peaks where one pattern does: no
    # L^{-1} (or its copy) of one pattern is held while the next is factored
    f = frames.build_dss(947)
    k = 378
    pats = [sorted(np.random.default_rng((7, t)).choice(f.n, k, replace=False).tolist())
            for t in range(3)]
    one = k * f.m * f.data.itemsize + 1.5 * k * k * f.data.itemsize
    rho, peak = _traced_peak(lambda: optimize.sampled_mlie(f, pats))
    assert np.isfinite(rho) and peak < one, peak
    (rho, grad), peak = _traced_peak(lambda: optimize.mlie_gradient(f, pats))
    assert np.isfinite(rho) and peak < one + grad.nbytes, peak


@pytest.mark.parametrize("route", ["sampled_mlie", "mlie_gradient"])
def test_small_k_set_holds_one_chunk_at_a_time(route):
    # bl 13/7/5 puts 1092 patterns in a chunk.  Past its result (a float for
    # each eta, and the gradient) a set holds one chunk, with the array and
    # tuple headers of its patterns (under half its data at k = 5), and its
    # index arrays: the check's sorted copy and bool mask, then the canonical
    # rows of every chunk, at most 9 bytes an index.  The sort keys of the
    # canonical order exist for one chunk at a time.
    f = frames.build_bandlimited_dft(13, 7)
    k = 5
    extra = {}
    for t in (2000, 8000):
        idx, _ = patterns.pattern_set(13, k, "sampled", t, 1)
        assert len(spectral.chunks(f.data, idx)) > 1
        _, peak = _traced_peak(lambda: getattr(optimize, route)(f, idx))
        result = 32 * t + (f.data.nbytes if route == "mlie_gradient" else 0)
        extra[t] = peak - result
        assert extra[t] <= 1.5 * spectral._CHUNK_BYTES + 9 * k * t, (t, peak)
    # 4x the patterns adds no chunk, only index arrays, list slack and a view
    # per chunk
    assert extra[8000] - extra[2000] <= 9 * k * 6000 + 0.02 * spectral._CHUNK_BYTES, extra
