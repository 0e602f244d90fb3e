"""The tree recursion maps in log-ratio coordinates.

For a subtree whose root has ``d`` children with log-ratio vectors
``x^(1), ..., x^(d)``, the root's log-ratio vector is

    (1/d) * sum_k F(x^(k)),

where the one-child map ``F`` factors through ratio coordinates ``z = exp(x)``:

    G_i(z) = (1 - z_i) / (sum_j z_j + w),          w = 1 - alpha*q/(d+1),
    F_i(x) = d * log(1 + (alpha*q/(d+1)) * G_i(exp x)).

``F`` fixes the origin, commutes with the color-permutation action, and its
Jacobian at the origin is ``-(alpha*d/(d+1-alpha)) * Id``, so for ``alpha < 1``
the recursion is a local contraction toward the uniform distribution.  As
``d -> inf`` (with ``alpha = 1``) the maps converge to the limits

    G_i(z) = q*(1 - z_i) / (sum_j z_j + 1),        F = G o exp,

which the symbolic degree :data:`~pottstree.params.INFINITY` selects.

All maps accept finite single vectors or batches of shape ``(..., q-1)`` and
are evaluated in an overflow-safe way (coordinates are shifted by the row
maximum before exponentiation when necessary).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import INFINITY, ModelParams, validate_log_ratio

# Shift threshold: keep exp() arguments comfortably inside float64 range.
_EXP_SHIFT_AT = 600.0


def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(exp(x - m), exp(-m))`` with a per-row shift ``m >= 0``.

    Any ratio of linear combinations of ``exp(x_i)`` and ``1`` can be formed
    from these two pieces without overflow.
    """
    m = np.maximum(x.max(axis=-1, keepdims=True) - _EXP_SHIFT_AT, 0.0)
    return np.exp(x - m), np.exp(-m)


def pattern_image(color: int, params: ModelParams) -> np.ndarray:
    """Closed-form image under ``F`` of a vertex pinned to ``color``.

    A pinned vertex has no finite log-ratio vector, so this is the only way
    it enters the maps: ``d*log(w)`` in the color's coordinate for colors
    below ``q``, ``-d*log(w)`` in every coordinate for color ``q``.  Finite
    ``d`` requires ``w > 0`` (at ``w = 0`` the image is infinite).
    """
    q = params.q
    if not 1 <= color <= q:
        raise DomainError(f"color must lie in 1..{q}, got {color}")
    if params.d == INFINITY:
        scale = -float(q)
    else:
        if params.w <= 0.0:
            raise DomainError(f"pinned colors need w > 0, got w={params.w}")
        scale = params.d * math.log(params.w)
    if color == q:
        return np.full(q - 1, -scale)
    out = np.zeros(q - 1)
    out[color - 1] = scale
    return out


def leaf_counts_log_ratios(counts: np.ndarray, params: ModelParams) -> np.ndarray:
    """Depth-1 log-ratio vectors from leaf color counts (finite ``d``).

    Row ``k`` of ``counts`` holds how many of a parent's ``d`` pinned leaf
    children carry each color ``1..q``; the parent's vector is the
    count-weighted mean of the pattern images.
    """
    q = params.q
    images = np.stack([pattern_image(c, params) for c in range(1, q + 1)])
    return counts @ images / params.d


def log_ratio_map(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Evaluate ``F`` on a finite log-ratio vector or batch.

    Pinned vertices are not inputs here; their images are :func:`pattern_image`.
    """
    x = validate_log_ratio(x, params.q)
    zp, e0 = _shifted_exp(x)
    if params.d == INFINITY:
        return params.q * (e0 - zp) / (zp.sum(axis=-1, keepdims=True) + e0)
    beta = params.alpha * params.q / (params.d + 1.0)
    den = zp.sum(axis=-1, keepdims=True) + params.w * e0
    if not (den > 0).all():
        raise DomainError("recursion-map denominator is nonpositive at this input")
    arg = beta * (e0 - zp) / den
    if not (arg > -1.0).all():
        raise DomainError("recursion map log argument is nonpositive at this input")
    return params.d * np.log1p(arg)


def log_ratio_map_preimage(y: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Batch preimage under ``F`` with a validity mask.

    Returns ``(x, valid)`` where rows with ``valid`` False have no preimage
    (the candidate ratio coordinates left the positive orthant); their ``x``
    entries are NaN.  This is the workhorse for midpoint convexity probes,
    where "no preimage" is an expected outcome rather than an error.
    """
    y = validate_log_ratio(y, params.q)
    if params.d == INFINITY:
        den = y.sum(axis=-1, keepdims=True) + params.q
        valid = (den > 0).all(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = 1.0 - params.q * y / den
    else:
        if not 0.0 < params.alpha:
            raise DomainError("preimage requires alpha > 0")
        g = np.expm1(y / params.d) * (params.d + 1.0) / (params.alpha * params.q)
        s = 1.0 + g.sum(axis=-1, keepdims=True)
        valid = (s > 0).all(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = params.q * (1.0 - params.alpha / (params.d + 1.0)) / s
            z = 1.0 - g * k
    valid = valid & (z > 0).all(axis=-1) & np.isfinite(z).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(z > 0, np.log(np.where(z > 0, z, 1.0)), np.nan)
    x = np.where(valid[..., None], x, np.nan)
    return x, valid


def log_ratio_map_jacobian(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Jacobian matrix of ``F`` at a finite point ``x``.

    At the origin this is ``-(alpha*d/(d+1-alpha)) * Id`` for finite ``d``
    and ``-Id`` in the limit.
    """
    x = validate_log_ratio(x, params.q)
    if x.ndim != 1:
        raise DomainError("jacobian expects a single vector")
    zp, e0 = _shifted_exp(x)
    e0 = e0.item()
    if params.d == INFINITY:
        bp = zp.sum() + e0
        return -params.q * zp[None, :] * (np.eye(len(x)) * bp + (e0 - zp)[:, None]) / bp**2
    beta = params.alpha * params.q / (params.d + 1.0)
    bp = zp.sum() + params.w * e0
    if bp <= 0:
        raise DomainError("recursion-map denominator is nonpositive at this input")
    gi = (e0 - zp) / bp
    outer = (np.eye(len(x)) + gi[:, None]) * zp[None, :]
    return -params.d * beta * outer / (bp * (1.0 + beta * gi))[:, None]


def two_step_map(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Two recursion steps, ``F(F(x))``."""
    return log_ratio_map(log_ratio_map(x, params), params)


def two_step_sum_limit(x: np.ndarray, q: int) -> np.ndarray | float:
    """Coordinate sum of the two-step limit map, in closed form.

    Equals ``q**2 / (sum_j exp(F_j(x)) + 1) - q`` with ``F`` the limit map;
    the sum functional is what the polytope level of a diagonal point sees.
    """
    u = log_ratio_map(x, ModelParams(q, INFINITY))
    return q * q / (np.exp(u).sum(axis=-1) + 1.0) - q


def diagonal_contraction(x: np.ndarray | float, q: int) -> np.ndarray | float:
    """Scalar trace of the two-step limit map along the diagonal.

    ``diagonal_contraction(t, q)`` equals ``-<Phi(-t/(q-1) * 1), 1>`` where
    ``Phi`` is the two-step limit map; it is strictly increasing, satisfies
    ``phi(t) < t`` for ``t > 0`` with deficit ``t**3 / (6*(q-1)**2) + O(t^4)``,
    and maps the positive axis into ``(0, q)``.  Iterating it drives the
    certified polytope level to zero.
    """
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("diagonal contraction requires finite input")
    # Saturating clip: both steps have horizontal asymptotes well inside this range.
    t = np.clip(x / (q - 1.0), -700.0, 700.0)
    # First step: the diagonal point -t*1 maps to the diagonal point f*1.
    f = q * np.expm1(t) / (q - 1.0 + np.exp(t))
    # Second step: negated coordinate sum of the limit map at the diagonal point f*1.
    g = (q - 1.0) * q * np.expm1(f) / ((q - 1.0) * np.exp(f) + 1.0)
    out = np.asarray(g)
    return float(out) if out.ndim == 0 else out


def diagonal_contraction_finite(x: np.ndarray | float, params: ModelParams) -> np.ndarray | float:
    """Finite-``d`` analogue: ``-<F(F(-x/(q-1) * 1)), 1>``.

    Converges pointwise to :func:`diagonal_contraction` as ``d -> inf`` at
    ``alpha = 1``.
    """
    if params.d == INFINITY:
        raise DomainError("use diagonal_contraction for the limit family")
    x = np.asarray(x, dtype=float)
    diag = np.repeat(-x[..., None] / (params.q - 1.0), params.q - 1, axis=-1)
    out = -two_step_map(diag, params).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def degree_rescaling(params: ModelParams) -> tuple[float, float]:
    """Equivalent threshold-family degree and amplitude ratio.

    Returns ``(d_prime, ratio)`` with ``d_prime = (d+1)/alpha - 1`` and
    ``ratio = d/d_prime = alpha*d/(d+1-alpha) <= alpha``, such that
    ``F_{d,alpha} = ratio * F_{d_prime,1}`` exactly (``d_prime`` is a real
    degree; the maps are defined for any real degree > 1).
    """
    if params.d == INFINITY:
        raise DomainError("rescaling applies to finite degrees")
    if not 0.0 < params.alpha <= 1.0:
        raise DomainError("rescaling requires alpha in (0, 1]")
    d_prime = (params.d + 1.0) / params.alpha - 1.0
    return d_prime, params.d / d_prime
