"""Model parameters, interaction weight, and boundary patterns."""

import math

import numpy as np
import pytest

from pottstree import (
    INFINITY,
    DomainError,
    ModelParams,
    classify_pattern,
    leaf_pattern,
    validate_log_ratio,
)


def test_model_params_derives_weight():
    p = ModelParams(3, 5, 1.0)
    assert p.w == 0.5
    assert p.q == 3 and p.d == 5 and p.alpha == 1.0


def test_model_params_from_weight_round_trip():
    p = ModelParams.from_weight(4, 7, 0.6)
    assert p.alpha == pytest.approx((1 - 0.6) * 8 / 4, abs=1e-15)
    assert p.w == pytest.approx(0.6, abs=1e-15)


def test_model_params_limit_degree_requires_unit_alpha():
    p = ModelParams(3, INFINITY, 1.0)
    assert math.isinf(p.d)
    with pytest.raises(DomainError):
        ModelParams(3, INFINITY, 0.5)
    with pytest.raises(DomainError):
        ModelParams(3, 3, 1.5)  # beyond the uniqueness threshold at any degree


def test_model_params_allows_free_boundary_weight_one():
    # alpha = 0 gives w = 1 (no interaction); construction must not reject it
    p = ModelParams(3, 4, 0.0)
    assert p.w == 1.0


def test_model_params_allows_negative_weight_construction():
    # deep anti-ferromagnetic regime below the zero-weight line
    p = ModelParams(4, 2, 1.0)
    assert p.w < 0


@pytest.mark.parametrize("q,d", [(2, 5), (3, 1.0), (3, 0.5)])
def test_model_params_rejects_bad_shape(q, d):
    with pytest.raises(DomainError):
        ModelParams(q, d, 1.0)


def test_uniqueness_threshold():
    assert ModelParams(3, 5, 1.0).uniqueness_threshold == 0.5
    assert ModelParams(5, 3, 0.5).uniqueness_threshold == 0.0
    assert ModelParams(3, INFINITY).uniqueness_threshold == 1.0


def test_leaf_pattern_shapes():
    x = leaf_pattern(1, 3)
    assert x.shape == (2,)
    assert x[0] == np.inf and x[1] == 0.0
    assert np.isneginf(leaf_pattern(3, 3)).all()


def test_leaf_pattern_rejects_out_of_range_color():
    with pytest.raises(DomainError):
        leaf_pattern(0, 3)
    with pytest.raises(DomainError):
        leaf_pattern(4, 3)


@pytest.mark.parametrize("color,q", [(1, 3), (2, 3), (3, 3), (4, 6), (6, 6)])
def test_classify_pattern_round_trip(color, q):
    assert classify_pattern(leaf_pattern(color, q)) == color


def test_classify_pattern_finite_is_none():
    assert classify_pattern(np.array([0.3, -1.2])) is None


def test_classify_pattern_rejects_mixed_infinities():
    with pytest.raises(DomainError):
        classify_pattern(np.array([np.inf, -np.inf]))
    with pytest.raises(DomainError):
        classify_pattern(np.array([np.inf, np.inf]))
    with pytest.raises(DomainError):
        classify_pattern(np.array([np.nan, 0.0]))


def test_validate_log_ratio_checks_width():
    x = validate_log_ratio([0.1, -0.2], 3)
    assert x.shape == (2,)
    assert x.dtype == np.float64
    with pytest.raises(DomainError):
        validate_log_ratio([0.1, 0.2, 0.3], 3)
