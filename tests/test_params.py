"""Model parameters, interaction weight, and the log-ratio input check."""

import math

import numpy as np
import pytest

from pottstree import (
    INFINITY,
    DomainError,
    ModelParams,
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


def test_validate_log_ratio_checks_width():
    x = validate_log_ratio([0.1, -0.2], 3)
    assert x.shape == (2,)
    assert x.dtype == np.float64
    with pytest.raises(DomainError):
        validate_log_ratio([0.1, 0.2, 0.3], 3)
    with pytest.raises(DomainError):
        validate_log_ratio(0.1, 3)
