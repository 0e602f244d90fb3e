"""Forward-invariance certification and the convergence experiment."""

import numpy as np
import pytest

from pottstree import (
    INFINITY,
    CertificationError,
    DomainError,
    ModelParams,
    contraction_sequence,
    convergence_experiment,
    convexity_probe,
    diagonal_contraction,
    convexity_witness_search,
    gradient_identity_sweep,
    level,
    log_ratio_map,
    polytope_vertices,
    positivity_sweep,
    recursion_root_log_ratios,
    two_step_level,
    two_step_map,
)
from pottstree import certify, gradients, polytope
from pottstree.certify import STEP_CUSHION, _diagonal_level, _fundamental_probe_points
from pottstree.reporting import spawn_rng


@pytest.mark.parametrize("q,c", [(3, 1.0), (4, 2.0), (5, 4.0), (6, 5.0)])
def test_two_step_level_limit_is_attained_on_the_diagonal(q, c):
    # for the limit family, the maximum over the fundamental domain sits at
    # the diagonal face point, so the estimate equals the diagonal profile
    report = two_step_level([c], ModelParams(q, INFINITY), sample_count=5000, seed=0)[0]
    assert report.parameters["estimate"] == pytest.approx(diagonal_contraction(c, q), abs=1e-12)
    assert report.parameters["diagonal_bound"] == pytest.approx(diagonal_contraction(c, q), abs=0)
    assert report.passed and report.min_margin > 0


@pytest.mark.parametrize("c", [0.5, 2.0, 6.0])
def test_two_step_level_contracts_at_finite_degree(c):
    report = two_step_level([c], ModelParams(5, 1000, 1.0), sample_count=3000, seed=1)[0]
    assert report.passed
    assert report.parameters["estimate"] < c
    assert report.parameters["diagonal_bound"] is None
    assert report.min_margin == pytest.approx(c - report.parameters["estimate"], abs=0)


def test_two_step_level_near_limit_stays_below_diagonal_profile():
    q, c = 5, 3.0
    report = two_step_level([c], ModelParams(q, 10_000, 1.0), sample_count=3000, seed=2)[0]
    assert report.parameters["estimate"] <= diagonal_contraction(c, q) + 1e-3


README_GRID = [0.5 * k for k in range(1, 13)]
# (params, levels) lists: a q=3, d=3 grid whose probe finds witnesses; the
# README q=5 grids; and (12, 12, 26), where a sample, not a probe point, sets
# the two-step estimate
GRIDS = {
    "q3-d3-witnesses": [(ModelParams(3, 3, 1.0), [1.0, 2.0, 3.0, 4.0])],
    "readme-q5": [(ModelParams(5, 1000, 1.0), README_GRID), (ModelParams(5, 1000, 0.5), README_GRID),
                  (ModelParams(5, INFINITY), [4.0])],
    "q12-d12-c26": [(ModelParams(12, 12, 1.0), [13.0, 26.0])],
}
CHECKS = {
    "two_step_level": lambda levels, params, threads: two_step_level(
        levels, params, 30_000, seed=3, threads=threads),
    "convexity_probe": lambda levels, params, threads: convexity_probe(
        levels, params, 30_000, seed=3, threads=threads),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_a_grid_call_gives_each_level_its_single_level_report(check, grid, threads):
    run = CHECKS[check]
    witnesses = 0
    for params, levels in GRIDS[grid]:
        reports = run(levels, params, threads)
        assert len(reports) == len(levels)
        for c, report in zip(levels, reports):
            # every field, floats by repr: estimate, margin, sample count, witness x and y
            assert repr(report) == repr(run([c], params, threads)[0]), c
            witnesses += report.witness is not None
    if check == "convexity_probe" and grid == "q3-d3-witnesses":
        assert witnesses > 0


def test_contraction_sequence_reaches_epsilon():
    params = ModelParams(4, 50, 0.8)
    seq = contraction_sequence(params, epsilon=0.25, max_iters=60, sample_count=2000, seed=0)
    assert seq[0] == params.q + 1.0
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 0.25


def test_contraction_sequence_limit_tracks_diagonal_profile():
    q = 3
    seq = contraction_sequence(ModelParams(q, INFINITY), epsilon=1.0, max_iters=30,
                               sample_count=2000, seed=0)
    for a, b in zip(seq, seq[1:]):
        assert b <= diagonal_contraction(a, q) + 1e-5


def test_contraction_sequence_validates_inputs():
    params = ModelParams(3, 50, 0.8)
    with pytest.raises(DomainError):
        contraction_sequence(params, epsilon=0.0, max_iters=5)
    with pytest.raises(DomainError):
        contraction_sequence(params, epsilon=0.5, max_iters=0)


def test_contraction_sequence_stops_at_epsilon():
    params = ModelParams(3, 100, 0.7)
    seq = contraction_sequence(params, epsilon=2.0, max_iters=40, sample_count=1000, seed=5)
    assert seq[-1] < 2.0
    assert all(v >= 2.0 for v in seq[:-1])


def _refuse_sampling(*args, **kwargs):
    raise AssertionError("a sample was drawn")


@pytest.fixture
def no_sampling(monkeypatch):
    monkeypatch.setattr(certify, "sampled_sweep", _refuse_sampling)


@pytest.fixture
def no_sampling_anywhere(no_sampling, monkeypatch):
    monkeypatch.setattr(polytope, "sampled_sweep", _refuse_sampling)


@pytest.mark.parametrize("call", [
    lambda p: two_step_level([float("inf")], p, 2_000_000),
    lambda p: two_step_level([1.0, float("nan")], p, 2_000_000),
    lambda p: convexity_probe([float("nan")], p, 2_000_000, 0),
    lambda p: convexity_witness_search(p, [float("inf")]),
    lambda p: polytope_vertices(float("nan"), 5),
], ids=["two_step_level", "two_step_level_grid", "convexity_probe", "witness_search",
        "polytope_vertices"])
def test_a_level_that_is_not_finite_is_refused_before_any_draw(call, no_sampling_anywhere):
    with pytest.raises(DomainError, match=r"^level must be finite and positive, got (inf|nan)$"):
        call(ModelParams(5, 1000, 1.0))


def test_an_empty_level_list_draws_nothing(no_sampling_anywhere):
    params = ModelParams(5, 1000, 1.0)
    assert two_step_level([], params, 2_000_000) == []
    assert convexity_probe([], params, 2_000_000, 0) == []


@pytest.mark.parametrize("call, name, value", [
    (lambda p: positivity_sweep(5, 1.5, 1000), "l", 1.5),
    (lambda p: positivity_sweep(5, 1, 2.5), "trials", 2.5),
    (lambda p: positivity_sweep(5, 1, 1000, seed=1.5), "seed", 1.5),
    (lambda p: two_step_level([2.0], p, 2.5), "sample_count", 2.5),
    (lambda p: two_step_level([2.0], p, 1000, seed=1.5), "seed", 1.5),
    (lambda p: convexity_probe([2.0], p, 2.5, 0), "pair_count", 2.5),
    (lambda p: convexity_probe([2.0], p, 1000, 1.5), "seed", 1.5),
    (lambda p: gradient_identity_sweep(5, 2.5), "points", 2.5),
    (lambda p: contraction_sequence(p, 0.5, 2.5), "max_iters", 2.5),
    (lambda p: convergence_experiment(3, 3, 0.5, 3.5), "n_max", 3.5),
    (lambda p: convergence_experiment(3, 3, 0.5, 4, "random", trials=2.5), "trials", 2.5),
    (lambda p: convergence_experiment(3, 3, 0.5, 4, color=1.5), "color", 1.5),
    (lambda p: recursion_root_log_ratios(3, 2.0, 2, 0.5, [1, 2, 3, 1]), "d", 2.0),
    (lambda p: recursion_root_log_ratios(3, 2, 1.5, 0.5, [1, 2, 3, 1]), "n", 1.5),
    (lambda p: spawn_rng(1.5), "seed", 1.5),
], ids=["positivity_l", "positivity_trials", "positivity_seed", "two_step_level_count",
        "two_step_level_seed", "probe_count", "probe_seed", "gradient_points",
        "contraction_iters", "convergence_n_max", "convergence_trials", "convergence_color",
        "recursion_d", "recursion_n", "spawn_rng"])
def test_a_count_or_seed_that_is_not_an_integer_is_refused_before_any_draw(
        call, name, value, no_sampling_anywhere, monkeypatch):
    # each used to be truncated (l=1.5 passed, seed=1.5 drew seed 1's samples)
    # or to end in a TypeError or IndexError
    monkeypatch.setattr(gradients, "sampled_sweep", _refuse_sampling)
    for module in (certify, gradients):
        monkeypatch.setattr(module, "spawn_rng", _refuse_sampling)
    with pytest.raises(DomainError, match=rf"^{name} must be an integer, got {value}$"):
        call(ModelParams(5, 8, 0.5))


def test_contraction_sequence_refuses_a_missing_target(no_sampling, monkeypatch):
    monkeypatch.setattr(certify, "_diagonal_level", _refuse_sampling)
    with pytest.raises(DomainError, match="^epsilon must be positive, got None"):
        contraction_sequence(ModelParams(3, 50, 0.8), None, 10)


def test_contraction_sequence_refuses_an_infinite_target(no_sampling, monkeypatch):
    # it used to return [q+1], a chain that never ran, which certify printed as a PASS
    monkeypatch.setattr(certify, "_diagonal_level", _refuse_sampling)
    with pytest.raises(DomainError, match="^epsilon must be finite, got inf$"):
        contraction_sequence(ModelParams(5, 8), np.inf, 3)


def test_contraction_sequence_respects_max_iters(no_sampling):
    # three steps cannot reach 1e-12: the diagonal lower chain proves it without sampling
    params = ModelParams(3, 100, 0.9)
    with pytest.raises(CertificationError) as exc:
        contraction_sequence(params, epsilon=1e-12, max_iters=3, sample_count=500, seed=6)
    assert str(exc.value) == (
        "the diagonal lower chain is still at 1.1109807817882271 after 3 steps, so no sampled "
        "level falls below epsilon=1e-12 within max_iters=3 steps; no samples were drawn; "
        f"params={params}")


def _old_contraction_sequence(params, epsilon, max_iters, sample_count, seed, threads):
    """The sampled chain as it ran before the lower chain existed."""
    c = params.q + 1.0
    seq = [c]
    for it in range(max_iters):
        if c < epsilon:
            break
        rep = two_step_level([c], params, sample_count,
                             seed=int(spawn_rng(seed, it).integers(2**32)), threads=threads)[0]
        c = rep.parameters["estimate"] + STEP_CUSHION
        assert c < seq[-1]
        seq.append(c)
    return seq


def _lower_chain(params, steps):
    chain = [params.q + 1.0]
    for _ in range(steps):
        chain.append(_diagonal_level(chain[-1], params) + STEP_CUSHION)
    return chain


@pytest.mark.parametrize("d", [1000, INFINITY])
def test_readme_threshold_chain_is_refused_without_sampling(d, no_sampling):
    params = ModelParams(5, d, 1.0)
    with pytest.raises(CertificationError) as exc:
        contraction_sequence(params, epsilon=1e-2, max_iters=200, sample_count=100_000)
    message = str(exc.value)
    assert "epsilon=0.01" in message and "max_iters=200" in message
    assert "after 200 steps" in message and "no samples were drawn" in message
    if d == 1000:  # the level the sampled chain used to end at, in 200 sampled sweeps
        assert "still at 0.47932709344859226 after" in message


def test_a_stalled_lower_chain_is_refused_at_once(monkeypatch, no_sampling):
    # a cushion this large stops the q=3 limit chain at c = 1.069 after 226 steps
    monkeypatch.setattr(certify, "STEP_CUSHION", 0.05)
    calls = []
    monkeypatch.setattr(certify, "_diagonal_level",
                        lambda c, params: calls.append(c) or _diagonal_level(c, params))
    with pytest.raises(CertificationError) as exc:
        contraction_sequence(ModelParams(3, INFINITY), epsilon=1e-2, max_iters=10**6)
    message = str(exc.value)
    assert "stopped decreasing at step 226 (1.06926624479421 -> 1.06926624479421)" in message
    assert "epsilon=0.01" in message and "max_iters=1000000" in message
    assert "no samples were drawn" in message
    assert len(calls) == 227


def test_a_near_tie_runs_the_sampled_chain(monkeypatch):
    # the lower chain ends exactly at epsilon: only the allowance lets the sampled chain run
    params = ModelParams(3, 100, 0.9)
    end = _lower_chain(params, 3)[-1]
    seq = contraction_sequence(params, epsilon=end, max_iters=3, sample_count=500, seed=6)
    assert repr(seq) == repr(_old_contraction_sequence(params, end, 3, 500, 6, 1))
    allowance = certify._CHAIN_ALLOWANCE_ULPS * np.spacing(params.q + 1.0)
    monkeypatch.setattr(certify, "sampled_sweep", _refuse_sampling)
    with pytest.raises(CertificationError):
        contraction_sequence(params, epsilon=end - 4 * allowance, max_iters=3)


# (params, epsilon, max_iters): chains the lower chain does not doom.  At
# (5, 2, 1.0) a sample beats the diagonal probe from the first step on.
CHAINS = [(ModelParams(4, 50, 0.8), 0.25, 60), (ModelParams(3, INFINITY), 1.0, 30),
          (ModelParams(8, 8, 1.0), 4.0, 40), (ModelParams(5, 2, 1.0), 2.0, 30)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("params, epsilon, max_iters", CHAINS)
def test_a_chain_that_is_not_doomed_runs_as_before(params, epsilon, max_iters, threads):
    seq = contraction_sequence(params, epsilon, max_iters, sample_count=2000, seed=4,
                               threads=threads)
    assert seq[-1] < epsilon
    assert repr(seq) == repr(_old_contraction_sequence(params, epsilon, max_iters, 2000, 4,
                                                       threads))
    lower = _lower_chain(params, len(seq) - 1)
    assert all(c >= low for c, low in zip(seq, lower))
    if params.d == 2:
        assert seq[1] > lower[1]


def _diagonal_level_mp(c, params, mp):
    """``psi(c)`` to 50 digits, from the float parameters the maps use."""
    q = params.q
    if params.d == INFINITY:
        def g(s):
            return q * (1 - mp.exp(s)) / ((q - 1) * mp.exp(s) + 1)
    else:
        beta, w = mp.mpf(params.alpha * q / (params.d + 1.0)), mp.mpf(params.w)

        def g(s):
            return params.d * mp.log1p(beta * (1 - mp.exp(s)) / ((q - 1) * mp.exp(s) + w))
    return -(q - 1) * g(g(mp.mpf(-c / (q - 1.0))))


@pytest.mark.parametrize("params", [ModelParams(3, 3, 1.0), ModelParams(4, 50, 0.8),
                                    ModelParams(5, 2, 1.0), ModelParams(5, 1000, 0.5),
                                    ModelParams(5, 1000, 1.0), ModelParams(8, 8, 1.0),
                                    ModelParams(12, 12, 1.0), ModelParams(12, INFINITY)])
def test_the_chain_allowance_covers_the_diagonal_level(params):
    # contraction_sequence's argument: psi increases with slope at most 1, and its float
    # value is within 3 ulps of q+1, paid twice a step, plus one ulp for the cushion
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    levels = np.geomspace(1e-3, params.q + 1.0, 25)
    exact = [_diagonal_level_mp(c, params, mp) for c in levels]
    ulp = np.spacing(params.q + 1.0)
    for c, value in zip(levels, exact):
        assert abs(_diagonal_level(c, params) - value) <= 3 * ulp, c
    for a, b, lo, hi in zip(levels, levels[1:], exact, exact[1:]):
        assert 0 < hi - lo <= b - a
    assert 2 * 3 + 1 <= certify._CHAIN_ALLOWANCE_ULPS


@pytest.mark.parametrize("q", range(3, 13))
def test_the_diagonal_level_is_bitwise_the_diagonal_probe(q):
    # the lower chain's proof needs every sampled estimate, whose probes include
    # this point, to be at least psi(c) bit for bit
    finite = (0.1, 0.5, 0.9, 1.0)
    for d, alphas in ((q, finite), (1000, finite), (INFINITY, (1.0,))):
        for alpha in alphas:
            params = ModelParams(q, d, alpha)
            for c in np.linspace(0.0, q + 1.0, 14)[1:]:
                probes = _fundamental_probe_points(c, q).T
                want = float(level(two_step_map(probes, params))[1])
                assert np.float64(_diagonal_level(c, params)).view(np.int64) == \
                    np.float64(want).view(np.int64), (d, alpha, c)


@pytest.mark.parametrize("q", range(3, 13))
def test_the_two_step_peak_on_the_fundamental_domain_is_minus_the_image_sum(q):
    # the sign lemma: x <= 0 gives F(x) >= 0 and F(F(x)) <= 0, so the level is -sum
    for d in (q, 1000, INFINITY):
        for alpha in ((1.0,) if d == INFINITY else (0.5, 1.0)):
            params = ModelParams(q, d, alpha)
            for i, c in enumerate((1e-3, 0.5, q / 2.0, q + 1.0, 3.0 * q)):
                x = -c * spawn_rng(q, i).dirichlet(np.ones(q), size=2000)[:, :q - 1]
                fx = log_ratio_map(x, params)
                ffx = log_ratio_map(fx, params)
                assert (fx >= 0).all() and (ffx <= 0).all(), (d, alpha, c)
                want = float(np.max(level(ffx)))
                got = certify._two_step_peak(np.ascontiguousarray(x.T), params, np.empty(2000))
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), \
                    (d, alpha, c)


def test_convergence_experiment_contracts_at_half_alpha():
    report = convergence_experiment(3, 20, 0.5, n_max=8, boundary="mono")
    p = report.parameters
    assert report.passed
    assert all(r <= 0.5 * 1.05 for r in p["two_step_ratios"] if r is not None)
    evens = [dev for n, dev in zip(p["depths"], p["max_deviations"]) if n % 2 == 0]
    assert all(b < a for a, b in zip(evens, evens[1:]))
    assert p["fitted_rate"] is not None and p["fitted_rate"] <= p["rate_bound"]


def test_convergence_experiment_random_boundaries():
    report = convergence_experiment(4, 30, 0.6, n_max=6, boundary="random",
                                    trials=20, seed=3)
    assert report.passed
    assert report.sample_count == 20


def test_convergence_experiment_free_model_is_exactly_uniform():
    report = convergence_experiment(3, 10, 0.0, n_max=4, boundary="mono")
    assert report.passed
    assert max(report.parameters["max_deviations"]) <= 1e-14


def test_convergence_experiment_input_checks():
    with pytest.raises(DomainError):
        convergence_experiment(3, 20, 0.5, n_max=2)
    with pytest.raises(DomainError):
        convergence_experiment(3, 20, 0.5, n_max=5, boundary="alternating")
    with pytest.raises(DomainError, match="w > 0"):
        convergence_experiment(3, 2, 1.0, n_max=5)  # w = 0


def test_deviation_sequence_is_monotone_under_information_loss():
    # the deviation at depth n+2 never exceeds the depth-n value on any run
    report = convergence_experiment(3, 2, 0.5, n_max=9, boundary="mono")
    devs = report.parameters["max_deviations"]
    assert all(devs[i + 2] < devs[i] for i in range(len(devs) - 2))
