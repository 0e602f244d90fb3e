"""Gradient-ordering identities behind the diagonal worst-case property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstree import (
    DomainError,
    gradient_identity_sweep,
    gradients,
    positivity_sweep,
    two_step_sum_gradient,
)
from pottstree.reporting import chunk_sizes

triples = st.tuples(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
).map(lambda u: tuple(sorted(u, reverse=True))).filter(lambda u: u[0] > u[1] + 1e-6)


# The closed forms run through their private kernels on 1-D rows, as a sweep
# chunk calls them; these helpers only allocate the outputs and work rows.

def _rows(*values):
    return [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]


def exponents(y1, y2, y3, t, l):
    y = _rows(y1, y2, y3)
    n = len(y[0])
    return gradients._comparator_exponents_into(*y, t, l, np.empty((3, n)), np.empty(n))


def gap(y1, y2, y3, t, l):
    y = _rows(y1, y2, y3)
    n = len(y[0])
    exps = np.exp(exponents(*y, t, l))
    return gradients._gap_into(*y, t, l, exps, np.empty(n), np.empty((3, n)))


def frozen_point(c1, c2, c3, l, t):
    c = _rows(c1, c2, c3)
    n = len(c[0])
    return gradients._frozen_point_into(*c, l, t, np.empty(n), np.empty((3, n)))[1]


def rescaled_gap(c1, c2, c3, l, t):
    c = _rows(c1, c2, c3)
    n = len(c[0])
    return gradients._rescaled_gap_into(*c, l, t, np.empty(n), np.empty((10, n)))


def rescaled_gap_line(c1, c2, c3, l):
    c = _rows(c1, c2, c3)
    n = len(c[0])
    return gradients._rescaled_gap_line_into(*c, l, np.exp(c), np.empty((2, n)),
                                             np.empty((2, n)))


def block_vector(q, l, x1, x2, x3):
    return np.concatenate([np.full(l, x1), [x2], np.full(q - l - 2, x3)])


def comparator_values(y, q):
    """``v_i = y_i * (e^{G_i} (1 + sum y) + sum_j e^{G_j} (1 - y_j))``.

    ``G`` is the limit map on the ratio coordinates ``y``; the ordering of the
    ``v_i`` is that of the two-step sum gradient at ``x = log y``.
    """
    t = 1.0 + y.sum(axis=-1, keepdims=True)
    eg = np.exp(q * (1.0 - y) / t)
    return y * (eg * t + (eg * (1.0 - y)).sum(axis=-1, keepdims=True))


def test_comparator_values_track_the_gradient_ordering():
    # v and the gradient of the two-step image sum order coordinates identically
    q = 5
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.uniform(0.05, 1.0, size=q - 1)
        v = comparator_values(y, q)
        g = two_step_sum_gradient(np.log(y), q)
        assert (np.argsort(v) == np.argsort(g)).all()


@pytest.mark.parametrize("q,l", [(4, 1), (5, 2), (7, 3), (8, 1)])
def test_gap_formula_equals_comparator_difference(q, l):
    rng = np.random.default_rng(q * 10 + l)
    x, direct = [], []
    for _ in range(50):
        x1, x2, x3 = np.sort(rng.uniform(0.02, 1.0, 3))[::-1]
        v = comparator_values(block_vector(q, l, x1, x2, x3), q)
        x.append((x1, x2, x3))
        direct.append(v[l - 1] - v[l])
    x1, x2, x3 = np.array(x).T
    assert gap(x1, x2, x3, q - 1, l) == pytest.approx(np.array(direct), rel=1e-11, abs=1e-13)


def test_comparator_exponents_are_the_per_block_formula_bit_for_bit():
    rng = np.random.default_rng(1)
    y1, y2, y3 = rng.uniform(0.02, 1.0, (3, 40))
    l = 2
    for t in rng.uniform(3.0, 9.0, 5):
        den = 1.0 + l * y1 + y2 + (t - l - 1.0) * y3
        expected = [(t + 1.0) * (1.0 - y) / den for y in (y1, y2, y3)]
        got = exponents(y1, y2, y3, t, l)
        assert len(got) == 3
        for a, b in zip(got, expected):
            assert a.shape == (40,)
            assert a.tobytes() == b.tobytes()


def test_frozen_exponents_are_constant_in_t():
    c, l = np.array([[0.2], [0.7], [0.9]]), 2
    for t in (float(l + 1), 6.0, 25.0, 400.0):
        a = exponents(*frozen_point(*c, l, t), t, l)
        assert a == pytest.approx(c, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(triples, st.integers(1, 4))
def test_rescaled_gap_is_linear_in_t(triple, l):
    t0 = float(l + 1)
    c = exponents(*triple, t0, l)
    r = [float(rescaled_gap(*c, l, t0 + k)[0]) for k in range(4)]
    second_diffs = [r[i] - 2 * r[i + 1] + r[i + 2] for i in range(2)]
    scale = max(1.0, max(abs(v) for v in r))
    assert max(abs(s) for s in second_diffs) <= 1e-9 * scale


@settings(deadline=None, max_examples=60)
@given(triples, st.integers(1, 4))
def test_closed_form_line_matches_sampled_gap(triple, l):
    t0 = float(l + 1)
    c = exponents(*triple, t0, l)
    value, slope = (float(v[0]) for v in rescaled_gap_line(*c, l))
    r1 = float(rescaled_gap(*c, l, t0)[0])
    r3 = float(rescaled_gap(*c, l, t0 + 2)[0])
    scale = max(1.0, abs(r3))
    assert abs(r1 - value) <= 1e-9 * scale
    assert abs((r3 - r1) / 2 - slope) <= 1e-9 * scale
    assert value > 0 and slope > 0


def test_closed_form_spot_values():
    # l = 1, constants (c1, c2) = (0.3, 0.8): value and slope by hand
    value, slope = (float(v[0]) for v in rescaled_gap_line(0.3, 0.8, 1.0, 1))
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
        frozen_point(-30.0, 0.5, 0.5, 1, 2.0)


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


@pytest.mark.parametrize("trials", [0, -1])
def test_positivity_sweep_rejects_an_empty_sweep(trials, monkeypatch):
    monkeypatch.setattr(gradients, "sampled_sweep", lambda *a: pytest.fail("drew samples"))
    with pytest.raises(DomainError, match=">= 1"):
        positivity_sweep(5, 2, trials=trials)


@pytest.mark.parametrize("points", [0, -1])
def test_gradient_identity_sweep_rejects_an_empty_sweep(points, monkeypatch):
    monkeypatch.setattr(gradients, "spawn_rng", lambda *a: pytest.fail("drew samples"))
    with pytest.raises(DomainError, match=">= 1"):
        gradient_identity_sweep(5, points=points)


def test_sweeps_do_not_repeat_closed_form_evaluations(monkeypatch):
    calls = []
    for name in ("_comparator_exponents_into", "_rescaled_gap_into", "two_step_sum_limit"):
        fn = getattr(gradients, name)
        monkeypatch.setattr(gradients, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    positivity_sweep(6, 2, trials=60_000, seed=0)
    chunks = len(chunk_sizes(60_000))
    # the draw's exponents once, then the frozen point's at each of t = l+1, l+2, l+3
    assert calls.count("_comparator_exponents_into") == 4 * chunks
    assert calls.count("_rescaled_gap_into") == 3 * chunks
    gradient_identity_sweep(6, points=20)
    assert calls.count("two_step_sum_limit") == 2


@pytest.mark.parametrize("q", [3, 5, 8])
def test_gradient_matches_finite_differences(q):
    report = gradient_identity_sweep(q, points=300, seed=0)
    assert report.passed
    assert report.parameters["max_scaled_error"] <= 1e-6

