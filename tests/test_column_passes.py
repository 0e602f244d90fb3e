"""Colour-axis reductions by column passes give numpy's bits.

The maps and ``level`` reduce over the short colour axis of colour-major
``(q-1, ...)`` arrays with ``maps._colour_reduce``; these tests hold it, and
the maps built on it, to the bytes of plain numpy ``axis=-1`` reductions over
row-major rows.
"""

import numpy as np
import pytest

from pottstree import (INFINITY, ModelParams, level, log_ratio_map, log_ratio_map_preimage,
                       two_step_map)
from pottstree.maps import _colour_reduce
from pottstree.polytope import _midpoint_pullback_levels, _polytope_weights_into, polytope_vertices

# --- the helper against numpy ---------------------------------------------------


def _special_rows(width: int) -> np.ndarray:
    """Rows of signed zeros, infinities and NaNs, at most one NaN source per row.

    Where two NaNs meet, which one survives (and so the NaN's sign bit) is up
    to the floating-point unit, not to the order of the reduction.
    """
    rows = [
        np.full(width, -0.0),
        np.full(width, 0.0),
        np.resize([0.0, -0.0], width),
        np.resize([-0.0, 0.0], width),
        np.resize([-0.0, 0.0, -1.5], width),
        np.resize([np.inf, 1.0], width),
        np.resize([-np.inf, -0.0], width),
        np.resize([np.inf, -np.inf] + [2.0] * (width - 2), width),
        np.resize([np.nan] + [3.0] * (width - 1), width),
        np.resize([-1.0] * (width - 1) + [np.nan], width),
        np.resize([1e308, 1e308, -0.0], width),
    ]
    return np.array(rows)


def _cases(width: int):
    rng = np.random.default_rng(width)
    # spread magnitudes so that the order of additions shows in the bits
    block = rng.standard_normal((60, width)) * 10.0 ** rng.integers(-8, 9, size=(60, width))
    block = np.vstack([block, _special_rows(width)])
    yield "single", block[0]
    yield "special single", block[-3]
    yield "batch", block
    yield "3-d", block[:60].reshape(4, 15, width)
    yield "empty", np.empty((0, width))
    yield "outer stride", block[::3]
    yield "inner stride", np.repeat(block, 2, axis=-1)[:, ::2]
    yield "column-major", np.asfortranarray(block)


@pytest.mark.parametrize("width", range(2, 13))
def test_colour_reduce_matches_numpy_bytes(width):
    for label, a in _cases(width):
        # numpy's bits are those of its reduce over contiguous rows: from 8
        # colours on, a column-major array reduces in another order
        rows = np.ascontiguousarray(a)
        # the helper takes a transposed view (the public maps) or a
        # contiguous colour-major array (the sweeps)
        for layout in (np.moveaxis(a, -1, 0), np.ascontiguousarray(np.moveaxis(a, -1, 0))):
            for ufunc in (np.add, np.maximum):
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = _colour_reduce(ufunc, layout), ufunc.reduce(rows, axis=-1)
                assert np.shape(got) == np.shape(want), (label, ufunc.__name__)
                assert got.tobytes() == want.tobytes(), (label, ufunc.__name__)
            got = _colour_reduce(np.logical_and, layout > 0)
            want = np.logical_and.reduce(rows > 0, axis=-1)
            assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes(), label


def test_colour_reduce_does_not_write_its_input():
    a = np.random.default_rng(0).standard_normal((4, 50))
    before = a.copy()
    _colour_reduce(np.add, a)
    _colour_reduce(np.maximum, a)
    assert a.tobytes() == before.tobytes()


# --- the maps against the formulas they replaced ----------------------------------


def _reference_log_ratio_map(x, params):
    """``F`` as written before column passes: ``axis=-1`` reductions, shift always applied."""
    x = np.asarray(x, dtype=float)
    m = np.maximum(x.max(axis=-1, keepdims=True) - 600.0, 0.0)
    zp, e0 = np.exp(x - m), np.exp(-m)
    if params.d == INFINITY:
        return params.q * (e0 - zp) / (zp.sum(axis=-1, keepdims=True) + e0)
    beta = params.alpha * params.q / (params.d + 1.0)
    den = zp.sum(axis=-1, keepdims=True) + params.w * e0
    return params.d * np.log1p(beta * (e0 - zp) / den)


def _reference_preimage(y, params):
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if params.d == INFINITY:
            den = y.sum(axis=-1, keepdims=True) + params.q
            valid = (den > 0).all(axis=-1)
            z = 1.0 - params.q * y / den
        else:
            g = np.expm1(y / params.d) * (params.d + 1.0) / (params.alpha * params.q)
            s = 1.0 + g.sum(axis=-1, keepdims=True)
            valid = (s > 0).all(axis=-1)
            k = params.q * (1.0 - params.alpha / (params.d + 1.0)) / s
            z = 1.0 - g * k
        valid = valid & (z > 0).all(axis=-1) & np.isfinite(z).all(axis=-1)
        x = np.where(z > 0, np.log(np.where(z > 0, z, 1.0)), np.nan)
    return np.where(valid[..., None], x, np.nan), valid


def _reference_level(x):
    x = np.asarray(x, dtype=float)
    s = x.sum(axis=-1)
    return np.maximum(-s, (x.shape[-1] + 1) * x.max(axis=-1) - s)


def _params(q):
    # d = 3q keeps w = 1 - 0.8q/(3q+1) positive at every q
    return [ModelParams(q, 3 * q, 0.8), ModelParams(q, INFINITY)]


def _weights(q, count, rng):
    """The convexity probe's boundary-biased vertex weights of ``count`` samples of ``P_c``."""
    return _polytope_weights_into(rng, np.empty((count, q)), np.empty(count))


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", range(3, 13))
def test_maps_match_reference_formulas(q):
    rng = np.random.default_rng(100 + q)
    shifted = rng.normal(scale=3.0, size=(3, q - 1))
    shifted[:, 0] = 800.0  # rows that take the overflow-safe shift
    x = np.vstack([_weights(q, 400, rng) @ polytope_vertices(float(q), q),
                   rng.normal(scale=3.0, size=(100, q - 1)),
                   np.zeros((1, q - 1)), np.full((1, q - 1), -0.0), shifted])
    for params in _params(q):
        fx, ref_fx = log_ratio_map(x, params), _reference_log_ratio_map(x, params)
        assert _same_bytes(fx, ref_fx)
        ffx = two_step_map(x, params)
        assert _same_bytes(ffx, _reference_log_ratio_map(ref_fx, params))
        assert _same_bytes(level(ffx), _reference_level(ffx))
        cube = x[:30].reshape(10, 3, q - 1)
        assert _same_bytes(level(cube), _reference_level(cube))
        # midpoints of images, some of which pull back and some of which do not
        y = np.vstack([0.5 * (fx[:250] + fx[250:500]), 3.0 * fx[:100]])
        back, valid = log_ratio_map_preimage(y, params)
        ref_back, ref_valid = _reference_preimage(y, params)
        assert 0 < valid.sum() < len(valid)
        assert _same_bytes(back, ref_back) and _same_bytes(valid, ref_valid)
        for row in (x[0], x[-1], y[-1]):
            assert _same_bytes(log_ratio_map(row, params), _reference_log_ratio_map(row, params))
            assert _same_bytes(level(row), float(_reference_level(row)))
            b, v = log_ratio_map_preimage(row, params)
            rb, rv = _reference_preimage(row, params)
            assert _same_bytes(b, rb) and _same_bytes(v, rv)


# --- the in-place preimage kernel against the allocating formula ----------------------


def _allocating_preimage(y, params):
    """``log_ratio_map_preimage`` as written before ``_log_ratio_map_preimage_into``."""
    y = np.asarray(y, dtype=float)
    yc = np.moveaxis(y, -1, 0)
    if params.d == INFINITY:
        den = _colour_reduce(np.add, yc) + params.q
        valid = den > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = 1.0 - params.q * yc / den
    else:
        g = np.expm1(yc / params.d) * (params.d + 1.0) / (params.alpha * params.q)
        s = 1.0 + _colour_reduce(np.add, g)
        valid = s > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            k = params.q * (1.0 - params.alpha / (params.d + 1.0)) / s
            z = 1.0 - g * k
    valid &= _colour_reduce(np.logical_and, (z > 0) & np.isfinite(z))
    x = np.full(y.shape, np.nan)
    np.log(z, out=np.moveaxis(x, -1, 0), where=valid)
    return x, valid


def _allocating_pullback_levels(fx, fy, params):
    """``polytope._midpoint_pullback_levels`` as written before the in-place kernel."""
    back, valid = _allocating_preimage(0.5 * (fx + fy), params)
    out = np.full(valid.shape, np.inf)
    out[valid] = level(back[valid])
    return out


@pytest.mark.parametrize("q", range(3, 13))
@pytest.mark.parametrize("d", ["q", 1000, INFINITY])
def test_preimage_kernel_matches_the_allocating_formula(q, d):
    params = ModelParams(q, q, 1.0) if d == "q" else ModelParams(q, d)
    rng = np.random.default_rng(300 + q)
    fx, fy = (log_ratio_map(_weights(q, 300, rng) @ polytope_vertices(q + 1.0, q),
                            params) for _ in range(2))
    # no preimage: ratio coordinates that leave the positive orthant (the
    # far-negative rows make the coordinate sum of the candidate nonpositive)
    far = -5.0 * (q if d == INFINITY else params.d)
    y = np.vstack([0.5 * (fx + fy), 3.0 * fx[:100], rng.normal(scale=3.0, size=(100, q - 1)),
                   np.full((2, q - 1), far), np.zeros((1, q - 1)), np.full((1, q - 1), -0.0)])
    back, valid = log_ratio_map_preimage(y, params)
    ref_back, ref_valid = _allocating_preimage(y, params)
    assert 0 < valid.sum() < len(valid) and not valid[-4:-2].any()
    assert _same_bytes(back, ref_back) and _same_bytes(valid, ref_valid)
    for row in y[[0, 300, -4, -1]]:
        b, v = log_ratio_map_preimage(row, params)
        rb, rv = _allocating_preimage(row, params)
        assert _same_bytes(b, rb) and _same_bytes(v, rv)
    # the pullback on broadcast rows, as the witness scan passes them, and on pairs of rows
    for gx, gy in ((fx[:20, None], fy[None, :]), (fx, 3.0 * fy)):
        lev = _midpoint_pullback_levels(gx, gy, params)
        ref = _allocating_pullback_levels(*np.broadcast_arrays(gx, gy), params)
        assert _same_bytes(lev, ref)
    assert np.isinf(lev).any() and np.isfinite(lev).any()


# --- the overflow-safe shift ----------------------------------------------------------


def _mp_log_ratio_map(row, params, mpmath):
    """``F`` at 50 digits, straight from the ratio-coordinate formula."""
    with mpmath.workdps(50):
        z = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(z)
        if params.d == INFINITY:
            return [float(params.q * (1 - zi) / (total + 1)) for zi in z]
        beta = mpmath.mpf(params.alpha) * params.q / (params.d + 1)
        w = 1 - beta
        return [float(params.d * mpmath.log(1 + beta * (1 - zi) / (total + w))) for zi in z]


@pytest.mark.parametrize("params", [ModelParams(4, 9, 0.7), ModelParams(5, INFINITY)])
def test_shifted_rows_are_finite_and_exact(params):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    x = rng.normal(scale=2.0, size=(12, params.q - 1))
    x[np.arange(10), rng.integers(0, params.q - 1, 10)] = 800.0  # two rows stay unshifted
    x[3] = 800.0
    out = log_ratio_map(x, params)
    assert np.isfinite(out).all()
    for row, got in zip(x, out):
        assert got.tobytes() == log_ratio_map(row, params).tobytes()
        np.testing.assert_allclose(got, _mp_log_ratio_map(row, params, mpmath),
                                   rtol=1e-12, atol=1e-12)
