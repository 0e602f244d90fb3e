"""Gradient-ordering identities behind the diagonal worst-case property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstree import (
    DomainError,
    TripleParams,
    comparator_exponent,
    comparator_gap,
    comparator_values,
    constant_exponent_point,
    gradient_identity_sweep,
    positivity_sweep,
    rescaled_gap,
    rescaled_gap_line,
    tail_averaging_check,
    two_step_sum_gradient,
)

triples = st.tuples(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
).map(lambda u: tuple(sorted(u, reverse=True))).filter(lambda u: u[0] > u[1] + 1e-6)


def block_vector(q, l, x1, x2, x3):
    return np.concatenate([np.full(l, x1), [x2], np.full(q - l - 2, x3)])


def test_comparator_values_track_the_gradient_ordering():
    # v and the gradient of the two-step image sum order coordinates identically
    q = 5
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.uniform(0.05, 1.0, size=q - 1)
        v = comparator_values(y, q)
        g = two_step_sum_gradient(np.log(y), q)
        assert (np.argsort(v) == np.argsort(g)).all()


def test_comparator_values_validation():
    with pytest.raises(DomainError):
        comparator_values(np.array([0.5, -0.1]), 3)
    with pytest.raises(DomainError):
        comparator_values(np.array([0.5, 0.5, 0.5]), 3)


@pytest.mark.parametrize("q,l", [(4, 1), (5, 2), (7, 3), (8, 1)])
def test_gap_formula_equals_comparator_difference(q, l):
    rng = np.random.default_rng(q * 10 + l)
    for _ in range(50):
        x1, x2, x3 = np.sort(rng.uniform(0.02, 1.0, 3))[::-1]
        y = block_vector(q, l, x1, x2, x3)
        v = comparator_values(y, q)
        direct = v[l - 1] - v[l]
        assert comparator_gap(x1, x2, x3, q - 1, l) == pytest.approx(direct, rel=1e-11, abs=1e-13)


def test_comparator_exponent_index_check():
    with pytest.raises(DomainError):
        comparator_exponent(0, 0.5, 0.4, 0.3, 4.0, 1)


def test_frozen_exponents_are_constant_in_t():
    c1, c2, c3, l = 0.2, 0.7, 0.9, 2
    for t in (float(l + 1), 6.0, 25.0, 400.0):
        y1, y2, y3 = constant_exponent_point(c1, c2, c3, l, t)
        assert comparator_exponent(1, y1, y2, y3, t, l) == pytest.approx(c1, abs=1e-12)
        assert comparator_exponent(2, y1, y2, y3, t, l) == pytest.approx(c2, abs=1e-12)
        assert comparator_exponent(3, y1, y2, y3, t, l) == pytest.approx(c3, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(triples, st.integers(1, 4))
def test_rescaled_gap_is_linear_in_t(triple, l):
    x1, x2, x3 = triple
    t0 = float(l + 1)
    c1 = comparator_exponent(1, x1, x2, x3, t0, l)
    c2 = comparator_exponent(2, x1, x2, x3, t0, l)
    c3 = comparator_exponent(3, x1, x2, x3, t0, l)
    r = [float(rescaled_gap(c1, c2, c3, l, t0 + k)) for k in range(4)]
    second_diffs = [r[i] - 2 * r[i + 1] + r[i + 2] for i in range(2)]
    scale = max(1.0, max(abs(v) for v in r))
    assert max(abs(s) for s in second_diffs) <= 1e-9 * scale


@settings(deadline=None, max_examples=60)
@given(triples, st.integers(1, 4))
def test_closed_form_line_matches_sampled_gap(triple, l):
    x1, x2, x3 = triple
    t0 = float(l + 1)
    c1 = comparator_exponent(1, x1, x2, x3, t0, l)
    c2 = comparator_exponent(2, x1, x2, x3, t0, l)
    c3 = comparator_exponent(3, x1, x2, x3, t0, l)
    value, slope = rescaled_gap_line(c1, c2, c3, l)
    r1 = float(rescaled_gap(c1, c2, c3, l, t0))
    r3 = float(rescaled_gap(c1, c2, c3, l, t0 + 2))
    scale = max(1.0, abs(r3))
    assert abs(r1 - value) <= 1e-9 * scale
    assert abs((r3 - r1) / 2 - slope) <= 1e-9 * scale
    assert value > 0 and slope > 0


def test_closed_form_spot_values():
    # l = 1, constants (c1, c2) = (0.3, 0.8): value and slope by hand
    value, slope = rescaled_gap_line(0.3, 0.8, 1.0, 1)
    u1 = 2 + 1 + 0.8 - 2 * 0.3 + 0.3 * 0.8 - 0.3**2
    u2 = -(2 + 1 + 0.3 - 2 * 0.8 + 0.3 * 0.8 - 0.8**2)
    assert u1 == pytest.approx(3.35, abs=1e-12)
    assert u2 == pytest.approx(-1.3, abs=1e-12)
    assert value == pytest.approx(u1 * np.exp(0.3) + u2 * np.exp(0.8), abs=1e-12)
    expected_slope = ((1 + 1.0 - 0.3) * np.exp(0.3) - (1 + 1.0 - 0.8) * np.exp(0.8)
                      + (0.8 - 0.3) * 1.0 * np.exp(1.0))
    assert slope == pytest.approx(expected_slope, abs=1e-12)


def test_constant_exponent_point_rejects_degenerate_denominator():
    with pytest.raises(DomainError):
        constant_exponent_point(-30.0, 0.5, 0.5, 1, 2.0)


def test_triple_params_validation_and_vector():
    tp = TripleParams(q=6, l=2, x1=0.9, x2=0.5, x3=0.2)
    np.testing.assert_array_equal(tp.as_vector(), [0.9, 0.9, 0.5, 0.2, 0.2])
    c1, c2, c3 = tp.constants()
    assert 0 <= c1 < c2 <= c3
    with pytest.raises(DomainError):
        TripleParams(q=6, l=2, x1=0.5, x2=0.5, x3=0.2)  # needs x1 > x2
    with pytest.raises(DomainError):
        TripleParams(q=6, l=5, x1=0.9, x2=0.5, x3=0.2)  # l too large
    with pytest.raises(DomainError):
        TripleParams(q=2, l=1, x1=0.9, x2=0.5, x3=0.2)


@pytest.mark.parametrize("q,l", [(3, 1), (5, 2), (8, 6)])
def test_positivity_sweep_passes(q, l):
    report = positivity_sweep(q, l, trials=2000, seed=0)
    assert report.passed
    assert report.min_margin > 0
    assert report.parameters["closed_form_err"] <= 1e-9
    assert report.parameters["linearity_err"] <= 1e-9


def test_positivity_sweep_is_deterministic_across_threads():
    a = positivity_sweep(6, 2, trials=60_000, seed=3, threads=1)
    b = positivity_sweep(6, 2, trials=60_000, seed=3, threads=4)
    assert a.min_margin == b.min_margin
    assert a.parameters == b.parameters


def test_positivity_sweep_rejects_bad_block_index():
    with pytest.raises(DomainError):
        positivity_sweep(3, 2, trials=10)


@pytest.mark.parametrize("q", [3, 5, 8])
def test_gradient_matches_finite_differences(q):
    report = gradient_identity_sweep(q, points=300, seed=0)
    assert report.passed
    assert report.parameters["max_scaled_error"] <= 1e-6


def test_tail_averaging_never_raises_the_gap():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = int(rng.integers(5, 9))
        l = int(rng.integers(1, q - 3))
        draws = np.sort(rng.uniform(0.02, 1.0, size=q - 1 - l))[::-1]
        y = np.concatenate([np.full(l, 1.0), draws])
        report = tail_averaging_check(y, l, q)
        assert report.passed
        assert report.gap_after <= report.gap_before + 1e-10
        assert report.symmetry_error <= 1e-10
        assert report.min_second_difference >= -1e-12 or np.isinf(report.min_second_difference)


def test_tail_averaging_validates_block_structure():
    with pytest.raises(DomainError):
        tail_averaging_check(np.array([0.5, 0.9, 0.2, 0.1]), 1, 5)  # head below pivot
    with pytest.raises(DomainError):
        tail_averaging_check(np.array([0.9, 0.5, 0.2, 0.4]), 1, 5)  # tail not sorted
    with pytest.raises(DomainError):
        tail_averaging_check(np.array([0.9, 0.5, 0.2]), 3, 4)
