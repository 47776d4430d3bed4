"""Mean-log inverse energy descent: gradient correctness, manifold handling,
descent guarantees, and local-minimality probes."""

import math

import numpy as np
import pytest

from framelab import frames, optimize, patterns, spectral


def _fd_gradient(a, pats, h=1e-6):
    """Central finite differences of the sampled objective, matching the
    packed d/dRe + i d/dIm convention for complex arrays."""
    g = np.zeros_like(a)
    units = (1.0, 1j) if np.iscomplexobj(a) else (1.0,)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for unit in units:
                ap, am = a.copy(), a.copy()
                ap[i, j] += h * unit
                am[i, j] -= h * unit
                fd = (optimize.sampled_mlie(ap, pats)
                      - optimize.sampled_mlie(am, pats)) / (2.0 * h)
                g[i, j] += fd * unit
    return g


def test_gradient_matches_finite_differences_real():
    rng = np.random.default_rng(0)
    a = optimize.project_rows(rng.standard_normal((8, 4)))
    pats = [patterns.sample_pattern(8, 3, seed=(3, t)) for t in range(5)]
    g = optimize.mlie_gradient(a, pats)[1]
    assert np.abs(g - _fd_gradient(a, pats)).max() < 1e-5


def test_gradient_matches_finite_differences_complex():
    a = np.array(frames.build_dss(7).data)
    pats = [patterns.sample_pattern(7, 2, seed=(4, t)) for t in range(5)]
    g = optimize.mlie_gradient(a, pats)[1]
    assert np.abs(g - _fd_gradient(a, pats)).max() < 1e-5


def test_gradient_matches_finite_differences_random_instances():
    for case in range(12):
        rng = np.random.default_rng(case)
        n = int(rng.integers(5, 9))
        m = int(rng.integers(3, n))
        k = int(rng.integers(2, m + 1))
        a = rng.standard_normal((n, m))
        if case % 2:
            a = a + 1j * rng.standard_normal((n, m))
        a = optimize.project_rows(a)
        pats = [patterns.sample_pattern(n, k, seed=(case, t)) for t in range(4)]
        g = optimize.mlie_gradient(a, pats)[1]
        assert np.abs(g - _fd_gradient(a, pats)).max() < 1e-5, f"case {case}"


def _eigh_gradient(a, pats):
    """Reference gradient from an eigendecomposition of each pattern Gram."""
    n, m = a.shape
    scale = 0.5 * (m / n) / len(pats)
    grad = np.zeros_like(a)
    for s in pats:
        rows = list(s)
        w, v = np.linalg.eigh(a[rows] @ a[rows].conj().T)
        eta = np.sum(1.0 / w) / m
        core = (v / (w * w)) @ v.conj().T @ a[rows]
        grad[rows] += scale / (eta * math.log(2.0)) * (-2.0 / m) * core
    return grad


def _gradient_cases():
    return {
        "bl13": (frames.build_bandlimited_dft(13, 7), 5, 35),
        "dss127": (frames.build_dss(127), 50, 8),
        "iid_real": (frames.build_random_iid(30, 12, seed=3), 6, 40),
    }


@pytest.mark.parametrize("label", sorted(_gradient_cases()))
def test_gradient_matches_eigh_reference(label):
    f, k, count = _gradient_cases()[label]
    pats, _ = patterns.pattern_set(f.n, k, "sampled", count, seed=2)
    g = optimize.mlie_gradient(f, pats)[1]
    ref = _eigh_gradient(np.array(f.data), pats)
    assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("label", sorted(_gradient_cases()))
def test_gradient_pivoted_factor_matches_cholesky_route(label, monkeypatch):
    # without a Cholesky factor the eigenvalues decide finite and pstrf gives
    # the inverse factor, with the pattern's rows in pivot order
    f, k, count = _gradient_cases()[label]
    pats, _ = patterns.pattern_set(f.n, k, "sampled", count, seed=2)
    g = optimize.mlie_gradient(f, pats)[1]
    rho = optimize.sampled_mlie(f, pats)
    monkeypatch.setattr(spectral, "cholesky", lambda gram: None)
    g_eigen = optimize.mlie_gradient(f, pats)[1]
    assert np.abs(g_eigen - g).max() <= 1e-12 * np.abs(g).max()
    assert optimize.sampled_mlie(f, pats) == pytest.approx(rho, rel=1e-13)


@pytest.mark.parametrize("frame, k, mode, trials", [
    (frames.build_bandlimited_dft(13, 7), 5, "exhaustive", 0),
    (frames.build_dss(47), 20, "sampled", 40),
    (frames.build_random_iid(16, 8, field="complex", seed=1), 4, "sampled", 100),
], ids=["bl13", "dss47", "iid_complex"])
def test_sampled_mlie_bitwise_equals_ie_statistics(frame, k, mode, trials):
    # a dss Frame's etas come from `spectral.dss_eta`, which matches the
    # kernel only to rounding: its rows go in as a custom Frame
    pats, _ = patterns.pattern_set(frame.n, k, mode, trials, seed=3)
    rows = frames.Frame(frame.data) if frame.kind == "dss" else frame
    stats = patterns.ie_statistics(rows, k, mode, trials, seed=3)
    assert stats.fraction_singular == 0.0
    assert optimize.sampled_mlie(frame, pats) == stats.mlie


@pytest.mark.parametrize("step, iters", [
    (math.nan, 5), (math.inf, 5), (-1.0, 5), (0.0, 5), (1e-2, -2)])
def test_local_search_refuses_bad_step_and_iterations(step, iters):
    with pytest.raises(ValueError, match="step|iterations"):
        optimize.local_search(frames.build_dss(7), 2, step_init=step, max_iters=iters)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3, 0.0])
def test_verify_local_min_refuses_bad_epsilons(eps):
    with pytest.raises(ValueError, match="epsilons"):
        optimize.verify_local_min(frames.build_dss(7), 2, epsilons=(1e-3, eps), trials=2)


def test_gradient_zero_on_untouched_rows():
    a = np.array(frames.build_dss(7).data)
    g = optimize.mlie_gradient(a, [(0, 1), (0, 2)])[1]
    assert np.abs(g[3:]).max() == 0.0


def test_gradient_singular_pattern_raises():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    with pytest.raises(spectral.SingularPatternError):
        optimize.mlie_gradient(np.array(f.data), [(0, 4)])


def test_verify_local_min_refuses_singular_base():
    # at an infinite base MLIE every perturbation would count as an inf decrease
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    with pytest.raises(spectral.SingularPatternError, match="rank deficient"):
        optimize.verify_local_min(f, 2, trials=5)
    with pytest.raises(spectral.SingularPatternError, match="rank deficient"):
        optimize.local_search(f, 2, max_iters=1)


def test_sampled_mlie_inf_on_singular():
    f = frames.build_dft_spectrum(8, [0, 2, 4, 6])
    assert optimize.sampled_mlie(f, [(0, 1), (0, 4)]) == math.inf


def test_unitary_frame_is_stationary():
    # every pattern Gram is the identity; the tangent gradient vanishes
    u = frames.build_bandlimited_dft(8, 8)
    a = np.array(u.data)
    pats = [patterns.sample_pattern(8, 3, seed=(5, t)) for t in range(10)]
    g = optimize.mlie_gradient(a, pats)[1]
    inner = np.sum(a.conj() * g, axis=1).real
    tangent = g - inner[:, None] * a
    assert np.abs(tangent).max() < 1e-9


def test_project_rows_idempotent_and_exact_on_unit_rows():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((6, 3))
    proj = optimize.project_rows(raw)
    assert np.allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(optimize.project_rows(proj), proj)
    unit = np.array(frames.build_dss(7).data)
    assert np.array_equal(optimize.project_rows(unit), unit)


@pytest.mark.parametrize("complex_field", [False, True])
def test_project_rows_survives_rows_whose_norm_overflows(complex_field):
    # the suite turns warnings into errors, so the overflow inside the norm
    # must stay silent; rows of ordinary size keep their bits
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((5, 4))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((5, 4))
    huge = raw.copy()
    huge[[1, 3]] *= 1e300
    proj = optimize.project_rows(huge)
    plain = optimize.project_rows(raw)
    assert np.array_equal(proj[[0, 2, 4]], raw[[0, 2, 4]] / np.linalg.norm(raw[[0, 2, 4]], axis=1,
                                                                           keepdims=True))
    assert np.abs(proj[[1, 3]] - plain[[1, 3]]).max() <= 1e-15
    assert np.abs(np.linalg.norm(proj, axis=1) - 1.0).max() <= 1e-15


def test_fixed_pattern_set_modes():
    # local_search's set: exhaustive only when C(n, k) fits the budget
    rep, _ = optimize.local_search(frames.build_bandlimited_dft(7, 4), 2, pattern_budget=100,
                                   max_iters=0)
    assert rep.pattern_mode == "exhaustive" and rep.pattern_count == 21
    rep, _ = optimize.local_search(frames.build_bandlimited_dft(7, 4), 2, pattern_budget=20,
                                   max_iters=0)
    assert rep.pattern_mode == "sampled" and rep.pattern_count == 20
    rep, _ = optimize.local_search(frames.build_bandlimited_dft(13, 7), 5, pattern_budget=300,
                                   max_iters=0)
    assert rep.pattern_mode == "sampled" and rep.pattern_count == 300


def test_local_search_descends_on_bandlimited():
    rep, out = optimize.local_search(
        frames.build_bandlimited_dft(13, 7), 5, pattern_budget=300, seed=0, max_iters=60)
    assert rep.final_mlie < rep.initial_mlie - 1e-3  # strict, visible improvement
    hist = rep.mlie_history
    assert hist[0] == rep.initial_mlie and hist[-1] == rep.final_mlie
    assert all(a >= b for a, b in zip(hist, hist[1:]))  # never increases
    assert rep.pattern_mode == "sampled" and rep.fresh_mlie is not None
    assert np.abs(np.linalg.norm(out.data, axis=1) - 1.0).max() < 1e-12


def _reference_local_search(frame, k, pattern_budget, step_init, max_iters, seed):
    """`local_search` with no trial carrying its gradient: `sampled_mlie` on
    every trial, then a separate gradient at each accepted iterate."""
    mode = "auto" if math.comb(frame.n, k) <= pattern_budget else "sampled"
    a, pats, mode, rho0 = optimize._start(frame, k, mode, pattern_budget, seed)
    rho, steps, history, converged = rho0, [], [rho0], False
    for _ in range(max_iters):
        g = optimize._tangent(a, optimize.mlie_gradient(a, pats)[1])
        gnorm2 = float(np.vdot(g, g).real)
        if gnorm2 <= optimize.GRAD_TOL ** 2:
            converged = True
            break
        t = step_init
        for _ in range(50):
            trial = optimize.project_rows(a - t * g)
            rho_t = optimize.sampled_mlie(trial, pats)
            if rho_t <= rho - optimize.ARMIJO_C * t * gnorm2:
                break
            t *= 0.5
        else:
            converged = True
            break
        a, rho = trial, rho_t
        steps.append(t)
        history.append(rho)
    fresh = None
    if mode == "sampled":
        fresh_pats, _ = patterns.pattern_set(len(a), k, "sampled", len(pats), seed + 1)
        fresh = optimize.sampled_mlie(a, fresh_pats)
    report = optimize.OptReport(
        initial_mlie=rho0, final_mlie=rho, iterations=len(steps),
        step_history=tuple(steps), mlie_history=tuple(history), converged=converged,
        perturbation_verdicts=(), pattern_mode=mode, pattern_count=len(pats),
        fresh_mlie=fresh)
    return report, a


def _descent_cases():
    return {
        "iid_real_sampled": (frames.build_random_iid(20, 10, seed=3), 6, 40),
        "iid_real_exhaustive": (frames.build_random_iid(10, 5, seed=3), 3, 500),
        "bl13_sampled": (frames.build_bandlimited_dft(13, 7), 5, 35),
        "bl9_exhaustive": (frames.build_bandlimited_dft(9, 5), 3, 500),
        "dss19_sampled": (frames.build_dss(19), 5, 60),
        "dss11_exhaustive": (frames.build_dss(11), 3, 500),
    }


@pytest.mark.parametrize("step", [1e-2, 100.0])
@pytest.mark.parametrize("label", sorted(_descent_cases()))
def test_local_search_bitwise_equals_reference_loop(label, step):
    f, k, budget = _descent_cases()[label]
    rep, out = optimize.local_search(f, k, pattern_budget=budget, step_init=step,
                                     max_iters=12, seed=1)
    want, a = _reference_local_search(f, k, budget, step, 12, seed=1)
    assert rep == want
    assert out.data.dtype == a.dtype and out.data.tobytes() == a.tobytes()
    assert rep.pattern_mode == ("exhaustive" if "exhaustive" in label else "sampled")
    if step == 100.0 and rep.iterations:
        # Armijo rejects trials, and the accepted number of halvings moves
        # between iterations: carried gradients are dropped and picked up
        assert min(rep.step_history) < step and len(set(rep.step_history)) > 1


def _count_calls(monkeypatch, names):
    """Count calls to optimize's module attributes `names`, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(optimize, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(optimize, name, counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_search_factors_each_accepted_iterate_once(seed, monkeypatch):
    # the bench's opt-bl13 op: every step is accepted untouched, so the trial
    # at that step carries the next gradient, and sampled_mlie runs only at
    # the start and on the fresh set
    calls = _count_calls(monkeypatch, ("sampled_mlie", "mlie_gradient"))
    rep, _ = optimize.local_search(frames.build_bandlimited_dft(13, 7), 5,
                                   pattern_budget=35, max_iters=20, seed=seed)
    assert rep.iterations == 20 and set(rep.step_history) == {1e-2}
    assert calls == {"sampled_mlie": 2, "mlie_gradient": 21}


def test_singular_carried_trial_just_shrinks_the_step(monkeypatch):
    gradient = optimize.mlie_gradient
    calls = []

    def first_trial_singular(a, pats):
        calls.append(a)
        if len(calls) == 2:  # the first call is the start's gradient
            raise spectral.SingularPatternError("singular trial")
        return gradient(a, pats)

    monkeypatch.setattr(optimize, "mlie_gradient", first_trial_singular)
    step = 1e-2
    rep, _ = optimize.local_search(frames.build_bandlimited_dft(13, 7), 5,
                                   pattern_budget=35, step_init=step, max_iters=5)
    assert len(calls) > 2 and rep.iterations == 5
    assert rep.step_history[0] == step / 2
    hist = rep.mlie_history
    assert all(a >= b for a, b in zip(hist, hist[1:]))


def test_local_search_zero_iterations_is_identity():
    f = frames.build_dss(7)
    rep, out = optimize.local_search(f, 2, max_iters=0)
    assert rep.iterations == 0
    assert np.array_equal(out.data, f.data)


def test_local_search_stops_where_no_step_scale_is_productive(monkeypatch):
    # a first step so long that even its 49th halving leaves the Armijo bound
    # far below any MLIE: all 50 trials fail, and the search stops converged
    # at its start (the carried trial is a gradient, the other 49 sampled)
    evals = []
    route = optimize.sampled_mlie
    monkeypatch.setattr(optimize, "sampled_mlie", lambda a, pats: evals.append(1) or route(a, pats))
    f = frames.build_bandlimited_dft(13, 7)
    rep, out = optimize.local_search(f, 5, pattern_budget=35, step_init=1e30, max_iters=5)
    assert rep.converged
    assert rep.iterations == 0 and rep.step_history == ()
    assert rep.final_mlie == rep.initial_mlie
    assert len(evals) == 1 + 49 + 1  # the start, the halved trials, the fresh sample
    assert np.array_equal(out.data, optimize.project_rows(np.array(f.data)))


def test_local_search_leaves_dss_alone():
    # the difference-set frame already sits at a stationary point
    rep, _ = optimize.local_search(frames.build_dss(7), 2, max_iters=40)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.final_mlie == rep.initial_mlie
    assert rep.pattern_mode == "exhaustive"


def test_verify_local_min_dss():
    v = optimize.verify_local_min(frames.build_dss(7), 2, epsilons=(1e-3,),
                                  trials=50, seed=0)
    (eps, trials, frac, max_dec), = v.perturbation_verdicts
    assert eps == 1e-3 and trials == 50
    assert frac == 0.0
    assert max_dec <= 1e-9  # nothing nearby does better


def test_verify_local_min_iid_contrast():
    # a random frame is nowhere near optimal: many perturbations win
    v = optimize.verify_local_min(frames.build_random_iid(12, 6, seed=4), 4,
                                  epsilons=(1e-3,), trials=60, seed=0,
                                  decrease_threshold=1e-4)
    (_, _, frac, max_dec), = v.perturbation_verdicts
    assert frac > 0.05
    assert max_dec > 1e-4


def test_verify_local_min_mc_mode():
    v = optimize.verify_local_min(frames.build_dss(11), 3, epsilons=(1e-3,),
                                  trials=20, seed=0, mode="sampled", pattern_budget=50)
    assert v.pattern_mode == "sampled" and v.pattern_count == 50
    with pytest.raises(ValueError):
        optimize.verify_local_min(frames.build_dss(7), 2, mode="bogus")
