"""Pattern sampling, exhaustive enumeration, and eta statistics."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats as sstats

from framelab import coder, frames, optimize, patterns, spectral


def test_sample_pattern_deterministic():
    a = patterns.sample_pattern(20, 5, seed=7)
    b = patterns.sample_pattern(20, 5, seed=7)
    assert a == b
    assert a == tuple(sorted(a))
    assert type(a) is tuple and all(type(i) is int for i in a)
    assert patterns.sample_pattern(20, 5, seed=8) != a
    # tuple seeds give independent substreams
    assert patterns.sample_pattern(20, 5, seed=(7, 0)) != patterns.sample_pattern(20, 5, seed=(7, 1))


@pytest.mark.parametrize("k", [0, 8])
def test_pattern_set_refuses_k_outside_n(k):
    with pytest.raises(ValueError, match=f"need 0 < k <= n, got k={k}, n=7"):
        patterns.pattern_set(7, k)


def test_sample_pattern_validation():
    with pytest.raises(ValueError):
        patterns.sample_pattern(10, 0)
    with pytest.raises(ValueError):
        patterns.sample_pattern(10, 11)


def test_sample_pattern_uniform_chi_square():
    # 4500 draws over the 45 two-element patterns of [0, 10)
    counts = {}
    for t in range(4500):
        s = patterns.sample_pattern(10, 2, seed=(0, t))
        counts[s] = counts.get(s, 0) + 1
    observed = np.array([counts.get(c, 0)
                         for c in itertools.combinations(range(10), 2)])
    _, p = sstats.chisquare(observed)
    assert p > 0.001  # seed 0 actually lands near 0.23


def _enumerate(n, k):
    idx, mode = patterns.pattern_set(n, k, "exhaustive")
    assert mode == "exhaustive"
    return [tuple(row) for row in idx.tolist()]


def test_enumerate_patterns_lexicographic():
    pats = _enumerate(7, 3)
    assert len(pats) == 35
    assert pats[0] == (0, 1, 2)
    assert pats[-1] == (4, 5, 6)
    assert pats == sorted(pats)
    assert _enumerate(5, 5) == [tuple(range(5))]


def test_enumerate_patterns_guard_names_count():
    with pytest.raises(patterns.PatternGuardError) as exc:
        _enumerate(40, 20)
    assert str(math.comb(40, 20)) in str(exc.value)
    assert issubclass(patterns.PatternGuardError, ValueError)


def test_ie_statistics_full_dft_is_orthonormal_everywhere():
    # square unitary frame: every k-row Gram is the identity, so eta = k/m
    # for all patterns and the mean-log reduces to (1/2) log2(k/n)
    f = frames.build_bandlimited_dft(8, 8)
    st = patterns.ie_statistics(f, 3, mode="exhaustive")
    assert st.mode == "exhaustive"
    assert st.trials == math.comb(8, 3)
    assert abs(st.mean - 3 / 8) < 1e-12
    assert abs(st.median - 3 / 8) < 1e-12
    assert st.fraction_singular == 0.0
    assert abs(st.mlie - 0.5 * math.log2(3 / 8)) < 1e-12
    # keeping everything: zero bits of interpolation loss
    assert abs(patterns.ie_statistics(f, 8, mode="exhaustive").mlie) < 1e-12


def test_ie_statistics_exhaustive_matches_monte_carlo():
    f = frames.build_dss(11)
    ex = patterns.ie_statistics(f, 3, mode="exhaustive")
    mc = patterns.ie_statistics(f, 3, mode="sampled", trials=2000, seed=1)
    se = np.std(mc.samples, ddof=1) / math.sqrt(mc.trials)
    assert abs(ex.mean - mc.mean) < 3.0 * se
    assert abs(ex.mlie - mc.mlie) < 0.02
    assert ex.seed is None and mc.seed == 1


def test_ie_statistics_deterministic_and_order_free():
    f = frames.build_dss(11)
    a = patterns.ie_statistics(f, 4, mode="sampled", trials=300, seed=5)
    b = patterns.ie_statistics(f, 4, mode="sampled", trials=300, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert a.mean == b.mean and a.mlie == b.mlie
    c = patterns.ie_statistics(f, 4, mode="sampled", trials=300, seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_ie_statistics_respects_eta_floor():
    f = frames.build_dss(19)
    st = patterns.ie_statistics(f, 5, mode="sampled", trials=200, seed=0)
    finite = st.samples[np.isfinite(st.samples)]
    assert (finite >= st.k / st.m - 1e-9).all()
    # dss7 is full spark: every one of its 35 3-patterns is finite
    st = patterns.ie_statistics(frames.build_dss(7), 3, mode="exhaustive")
    assert st.samples.size == 35 and st.fraction_singular == 0
    assert np.isfinite(st.samples).all()
    assert (st.samples >= st.k / st.m - 1e-9).all()


def test_ie_statistics_divergent_bin():
    # aliased even spectrum on n=8: rows t and t+4 coincide, so the four
    # patterns {t, t+4} are exactly singular
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    st = patterns.ie_statistics(f, 2, mode="exhaustive")
    assert st.fraction_singular == pytest.approx(4 / 28)
    assert st.log_counts.sum() == 28
    assert st.log_counts[-1] >= 4  # divergent bin holds the singular patterns
    assert np.isfinite(st.mean)  # summary stats ignore the infs


def test_ie_statistics_auto_mode_switch():
    small = frames.build_dss(11)
    assert patterns.ie_statistics(small, 3, mode="auto").mode == "exhaustive"
    big = frames.build_random_iid(500, 320, seed=0)
    st = patterns.ie_statistics(big, 3, mode="auto", trials=50, seed=0)
    assert st.mode == "sampled" and st.trials == 50


def test_ie_statistics_validation():
    f = frames.build_dss(11)
    with pytest.raises(ValueError):
        patterns.ie_statistics(f, 6)  # k > m
    with pytest.raises(ValueError):
        patterns.ie_statistics(f, 3, mode="bogus")


def test_square_random_divergence_growth():
    rows = patterns.square_random_divergence([2, 3], trials=200, seed=0)
    assert [r.k for r in rows] == [2, 3]
    assert rows[0].median < rows[1].median
    for r in rows:
        assert 0.0 <= r.fraction_above <= 1.0
        assert r.lower_bound < r.upper_bound
        assert r.zeta == 1.0
        assert r.trials == 200
    # the square case is heavy-tailed from the start: most mass already
    # far above the tight-frame value 1
    assert rows[1].fraction_above > 0.5


def test_square_random_divergence_validation():
    with pytest.raises(ValueError):
        patterns.square_random_divergence([3, 2])


_DSS7 = frames.build_dss(7)


@pytest.mark.parametrize("call", [
    lambda: patterns.pattern_set(7, 2, "sampled", trials=0),
    lambda: patterns.pattern_set(7, 2, "sampled", trials=-3),
    lambda: patterns.ie_statistics(_DSS7, 2, mode="sampled", trials=0),
    lambda: spectral.eigen_histogram(_DSS7, 2, trials=0),
    lambda: optimize.local_search(_DSS7, 2, pattern_budget=0),
    lambda: coder.simulate(_DSS7, 2, 1.0, 1.0, trials=0),
    lambda: coder.simulate(_DSS7, 2, 1.0, 1.0, trials=0, pattern=(1, 5)),
    lambda: optimize.verify_local_min(_DSS7, 2, trials=0),
], ids=["pattern-set", "pattern-set-negative", "ie-statistics", "eigen-histogram",
        "local-search-budget", "coder-sampled", "coder-fixed", "verify-local-min"])
def test_zero_counts_are_refused_by_name(call):
    with pytest.raises(ValueError, match=r"trials >= 1, got -?\d+") as info:
        call()
    assert not isinstance(info.value, np.linalg.LinAlgError)  # a config error, not exit 3
