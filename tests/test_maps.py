"""The one-step recursion map, its batch preimage, Jacobian, and diagonal profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstree import (
    INFINITY,
    DomainError,
    ModelParams,
    apply_permutation,
    degree_rescaling,
    diagonal_contraction,
    log_ratio_map,
    log_ratio_map_jacobian,
    log_ratio_map_preimage,
    pattern_image,
    two_step_map,
    two_step_sum_gradient,
    two_step_sum_limit,
)
from pottstree.certify import _diagonal_level

finite_params = [ModelParams(3, 3, 1.0), ModelParams(4, 9, 0.7), ModelParams(5, 200, 0.5)]
all_params = finite_params + [ModelParams(3, INFINITY), ModelParams(6, INFINITY)]


@pytest.mark.parametrize("params", all_params)
def test_uniform_point_is_fixed_exactly(params):
    x = np.zeros(params.q - 1)
    assert (log_ratio_map(x, params) == 0.0).all()


def ratio_map(z, params):
    """Reference ``G`` on ratio coordinates, the closed form of the maps module docstring."""
    if params.d == INFINITY:
        return params.q * (1 - z) / (z.sum(axis=-1, keepdims=True) + 1)
    return (1 - z) / (z.sum(axis=-1, keepdims=True) + params.w)


def test_ratio_map_closed_form():
    params = ModelParams(3, 3, 1.0)  # w = 1/4, beta = 3/4
    z = np.array([0.5, 2.0])
    g = (1 - z) / (z.sum() + 0.25)
    np.testing.assert_allclose(ratio_map(z, params), g, rtol=0, atol=1e-15)
    expected = 3 * np.log1p(0.75 * g)
    np.testing.assert_allclose(log_ratio_map(np.log(z), params), expected, rtol=0, atol=1e-14)


def test_ratio_map_limit_form():
    params = ModelParams(4, INFINITY)
    z = np.array([0.5, 1.5, 2.0])
    expected = 4 * (1 - z) / (z.sum() + 1)
    np.testing.assert_allclose(ratio_map(z, params), expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(log_ratio_map(np.log(z), params), expected, rtol=0, atol=1e-14)


def test_log_ratio_map_agrees_with_ratio_composition():
    # F = d*log(1 + beta*G(exp x)) for finite d, and F = G(exp x) in the limit
    rng = np.random.default_rng(0)
    for params in (ModelParams(4, 6, 0.8), ModelParams(4, INFINITY)):
        x = rng.normal(size=(50, 3))
        g = ratio_map(np.exp(x), params)
        if params.d == INFINITY:
            expected = g
        else:
            expected = params.d * np.log1p(params.alpha * params.q / (params.d + 1) * g)
        np.testing.assert_allclose(log_ratio_map(x, params), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("params", finite_params)
@pytest.mark.parametrize("color", [1, 2])
def test_pattern_images(params, color):
    # a frozen child contributes d*log(w) along its color; the reference
    # color pushes every coordinate up by -d*log(w).  Both are limits of F
    # along finite vectors that pin the color ever harder.
    e_color = np.zeros(params.q - 1)
    e_color[color - 1] = 1.0
    img = log_ratio_map(40.0 * e_color, params)
    expected = params.d * math.log(params.w) * e_color
    np.testing.assert_allclose(img, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pattern_image(color, params), expected, rtol=0, atol=0)

    img_q = log_ratio_map(-40.0 * np.ones(params.q - 1), params)
    np.testing.assert_allclose(img_q, pattern_image(params.q, params), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        img_q, -params.d * math.log(params.w) * np.ones(params.q - 1), rtol=0, atol=1e-12
    )


def test_pattern_images_limit():
    params = ModelParams(5, INFINITY)
    np.testing.assert_array_equal(pattern_image(1, params), [-5.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(pattern_image(5, params), [5.0, 5.0, 5.0, 5.0])


@pytest.mark.parametrize("color", [1.5, "2", 2.0, None])
def test_pattern_image_refuses_a_colour_that_is_not_an_integer(color):
    with pytest.raises(DomainError, match=f"^color {color!r} is not an integer$"):
        pattern_image(color, ModelParams(3, 3, 1.0))


def test_pattern_image_rejects_zero_weight():
    params = ModelParams(3, 2, 1.0)  # w = 0: frozen children have no finite image
    with pytest.raises(DomainError, match="w > 0"):
        pattern_image(1, params)


@pytest.mark.parametrize("params", all_params)
def test_jacobian_at_uniform_is_scalar(params):
    jac = log_ratio_map_jacobian(np.zeros(params.q - 1), params)
    if params.d == INFINITY:
        rate = -1.0
    else:
        rate = -params.alpha * params.d / (params.d + 1 - params.alpha)
    np.testing.assert_allclose(jac, rate * np.eye(params.q - 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("params", all_params)
def test_jacobian_matches_finite_differences(params):
    rng = np.random.default_rng(7)
    x = rng.normal(scale=0.8, size=params.q - 1)
    jac = log_ratio_map_jacobian(x, params)
    step = 1e-6
    for j in range(params.q - 1):
        h = np.zeros(params.q - 1)
        h[j] = step
        fd = (log_ratio_map(x + h, params) - log_ratio_map(x - h, params)) / (2 * step)
        np.testing.assert_allclose(fd, jac[:, j], rtol=0, atol=5e-6)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_preimage_round_trip(seed):
    rng = np.random.default_rng(seed)
    q, d = int(rng.integers(3, 7)), int(rng.integers(2, 60))
    # keep the weight strictly positive: alpha below the zero-weight line
    alpha = float(rng.uniform(0.2, 0.999)) * min(1.0, (d + 1) / q)
    params = ModelParams(q, d, alpha)
    x = rng.normal(scale=1.2, size=(4, params.q - 1))
    y = log_ratio_map(x, params)
    back, valid = log_ratio_map_preimage(y, params)
    assert valid.all()
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-9)


def test_preimage_round_trip_limit():
    params = ModelParams(4, INFINITY)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    y = log_ratio_map(x, params)
    back, valid = log_ratio_map_preimage(y, params)
    assert valid.all()
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-10)


def test_points_outside_the_image_are_flagged():
    params = ModelParams(3, 3, 1.0)
    # the image of F is bounded by d*|log w|; far outside nothing pulls back
    y = np.array([[50.0, 0.0], [0.0, -50.0]])
    back, valid = log_ratio_map_preimage(y, params)
    assert not valid.any()
    assert np.isnan(back[~valid]).all()


def test_two_step_map_is_composition():
    params = ModelParams(4, 8, 0.9)
    x = np.array([0.3, -0.2, 0.7])
    np.testing.assert_allclose(
        two_step_map(x, params), log_ratio_map(log_ratio_map(x, params), params),
        rtol=0, atol=0,
    )


def test_two_step_sum_limit_matches_composition():
    q = 5
    params = ModelParams(q, INFINITY)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, q - 1))
    direct = two_step_map(x, params).sum(axis=-1)
    np.testing.assert_allclose(two_step_sum_limit(x, q), direct, rtol=0, atol=1e-10)


def test_two_step_sum_limit_closed_form():
    # <F(F(x)), 1> collapses to q^2 / (sum e^{F_j} + 1) - q
    q = 4
    params = ModelParams(q, INFINITY)
    x = np.array([0.2, -0.5, 0.9])
    f = log_ratio_map(x, params)
    expected = q * q / (np.exp(f).sum() + 1.0) - q
    assert two_step_sum_limit(x, q) == pytest.approx(expected, abs=1e-12)


# --- diagonal profile -------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 10])
def test_diagonal_contraction_shrinks_positive_levels(q):
    xs = np.arange(0.05, 50.0 + 1e-9, 0.05)
    phi = diagonal_contraction(xs, q)
    assert (phi < xs).all()
    assert diagonal_contraction(0.0, q) == 0.0


@pytest.mark.parametrize("q", [3, 4, 8])
def test_diagonal_contraction_cubic_deficit(q):
    x = 1e-2
    deficit = (x - diagonal_contraction(x, q)) / x**3
    assert deficit == pytest.approx(1.0 / (6 * (q - 1) ** 2), rel=1e-2)


def test_diagonal_contraction_matches_two_step_sum():
    # phi(c) = -<F(F(-c/(q-1) * 1)), 1> on the diagonal
    q, c = 6, 3.7
    x = np.full(q - 1, -c / (q - 1))
    assert diagonal_contraction(c, q) == pytest.approx(-two_step_sum_limit(x, q), abs=1e-12)


def test_diagonal_contraction_finite_approaches_limit():
    # the finite-degree diagonal contraction is the two-step level of the diagonal probe
    q, x = 3, 2.0
    assert _diagonal_level(x, ModelParams(q, 10**6, 1.0)) == pytest.approx(
        diagonal_contraction(x, q), abs=1e-4
    )


@pytest.mark.parametrize("d", range(2, 51))
def test_diagonal_contraction_finite_below_identity_q4(d):
    assert _diagonal_level(2.0, ModelParams(4, d, 1.0)) < 2.0


def test_diagonal_contraction_large_argument_is_finite():
    assert np.isfinite(diagonal_contraction(1e4, 3))


# --- degree rescaling and input checks ---------------------------------------


def test_degree_rescaling_identity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = int(rng.integers(3, 8))
        d = int(rng.integers(2, 500))
        alpha = float(rng.uniform(0.05, 1.0))
        params = ModelParams(q, d, alpha)
        d_eff, ratio = degree_rescaling(params)
        assert d_eff == pytest.approx((d + 1) / alpha - 1, rel=1e-15)
        assert 0 < ratio <= alpha + 1e-15
        x = rng.normal(size=q - 1)
        unit = ModelParams(q, d_eff, 1.0)
        np.testing.assert_allclose(
            log_ratio_map(x, params), ratio * log_ratio_map(x, unit), rtol=0, atol=1e-12
        )


def test_map_rejects_nan_input():
    # every entry that takes a log-ratio vector rejects NaN and both infinite
    # encodings of a pinned vertex (+inf*e_1 and -inf*1) through one check
    q = 3
    params = ModelParams(q, 5, 1.0)
    entries = {
        "log_ratio_map": lambda x: log_ratio_map(x, params),
        "two_step_map": lambda x: two_step_map(x, params),
        "log_ratio_map_preimage": lambda x: log_ratio_map_preimage(x, params),
        "log_ratio_map_jacobian": lambda x: log_ratio_map_jacobian(x, params),
        "apply_permutation": lambda x: apply_permutation((2, 3, 1), x),
        "two_step_sum_gradient": lambda x: two_step_sum_gradient(x, q),
    }
    inputs = {"nan": [np.nan, 0.0], "+inf*e_1": [np.inf, 0.0], "-inf*1": [-np.inf, -np.inf]}
    accepted = []
    for name, entry in entries.items():
        for label, x in inputs.items():
            try:
                with np.errstate(all="ignore"):  # report acceptance, not numpy warnings
                    entry(np.array(x))
            except DomainError:
                continue
            accepted.append(f"{name}({label})")
    assert not accepted, f"accepted non-finite input: {accepted}"
