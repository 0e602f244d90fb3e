"""Forward-invariance certification and the convergence experiment."""

import numpy as np
import pytest

from pottstree import (
    INFINITY,
    DomainError,
    ModelParams,
    contraction_sequence,
    convergence_experiment,
    convexity_probe,
    diagonal_contraction,
    diagonal_minimality_check,
    two_step_level,
)


def test_two_step_level_limit_is_attained_on_the_diagonal():
    # for the limit family, the maximum over the fundamental domain sits at
    # the diagonal face point, so the estimate equals the diagonal profile
    q, c = 5, 4.0
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


def test_contraction_sequence_respects_max_iters():
    params = ModelParams(3, 100, 0.9)
    seq = contraction_sequence(params, epsilon=1e-12, max_iters=3, sample_count=500, seed=6)
    assert len(seq) == 4  # initial level plus exactly three steps


@pytest.mark.parametrize("q,c", [(3, 1.0), (4, 2.0), (6, 5.0)])
def test_diagonal_minimality(q, c):
    report = diagonal_minimality_check(c, q, sample_count=4000, seed=0)
    assert report.passed
    assert report.parameters["min_gap"] >= -1e-10
    assert report.min_margin > 0
    assert report.parameters["diagonal_value"] == pytest.approx(-diagonal_contraction(c, q),
                                                                abs=1e-12)


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
