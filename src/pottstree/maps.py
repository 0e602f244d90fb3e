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
are evaluated in an overflow-safe way: when some coordinate exceeds
``_EXP_SHIFT_AT = 600``, each row whose maximum exceeds 600 is shifted down
by the excess before exponentiation; otherwise nothing is shifted.

Layout: the private kernels (:func:`_colour_reduce`, :func:`_shifted_exp`,
:func:`_log_ratio_map_into`, :func:`_log_ratio_map_preimage_into`, and
likewise ``polytope._level_into`` and ``polytope._dirichlet_weights_into``)
take colour-major arrays of shape ``(q-1, ...)``: colour ``k`` is ``a[k]``,
so every fold over the colours is a pass over whole rows and a per-point
vector such as a denominator broadcasts along the long axis.  The public functions keep their
``(..., q-1)`` signatures and hand the kernels a transposed view
(``np.moveaxis``) of their input and output; sampled sweeps call the kernels
on contiguous colour-major buffers, where the passes are fastest.

:func:`_colour_reduce` folds the colour rows into one output array, with the
bits numpy gives a row-major ``axis=-1`` reduction.  numpy sums a row of 8 or
more entries pairwise, which a fold (or a reduce over any other axis) does
not reproduce, so from 8 colours on the helper reduces a row-major copy.

``F`` has one formula, :func:`_log_ratio_map_into`, which writes over its own
exponentials with ``out=`` ufuncs, and so has its preimage,
:func:`_log_ratio_map_preimage_into` (finite ``d`` and ``d = inf``).  The
public maps are thin wrappers that give a kernel a fresh output array, so
they never write into their input (which
:func:`~pottstree.params.validate_log_ratio` may return as the caller's own
array); sampled sweeps call ``F``'s kernel on a workspace they reuse, and the
convexity probes call the preimage kernel in place on a midpoint batch they
own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import INFINITY, ModelParams, validate_log_ratio
from .trees import _index

# Shift threshold: keep exp() arguments comfortably inside float64 range.
_EXP_SHIFT_AT = 600.0
# numpy sums 8 or more elements pairwise, not left to right.
_PAIRWISE_FROM = 8


def _colour_reduce(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc.reduce`` over the colour axis of a colour-major ``(width, ...)`` array.

    Gives the bits of numpy's ``ufunc.reduce(b, axis=-1)`` on the row-major
    array ``b = np.moveaxis(a, 0, -1)`` (only the sign of a NaN may differ
    where two NaNs meet).  Below 8 colours the rows ``a[k]`` are folded left
    to right into one output array; the sum starts from ``a[0] + 0.0``
    because numpy's row sum starts from ``+0.0``, so a row of ``-0.0`` sums
    to ``+0.0``.  From 8 colours on numpy sums pairwise along a contiguous
    row, and a fold or a reduce over axis 0 adds in another order, so the
    helper reduces a row-major copy (no copy when ``a`` is already a
    transposed row-major array).  Single vectors and zero colours keep
    numpy's reduction.  ``out``, when given, has shape ``a.shape[1:]``.
    """
    width = a.shape[0]
    if a.ndim < 2 or width == 0:
        return ufunc.reduce(a, axis=0, out=out)
    if width >= _PAIRWISE_FROM:
        return ufunc.reduce(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1, out=out)
    if out is None:
        out = np.empty_like(a[0])
    if ufunc is np.add:
        np.add(a[0], 0.0, out=out)
    else:
        np.copyto(out, a[0])
    for k in range(1, width):
        ufunc(out, a[k], out=out)
    return out


def _shifted_exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``exp(x - m)`` into ``out`` and return ``exp(-m)``, with a per-point shift ``m >= 0``.

    ``x`` and ``out`` are colour-major; ``m`` has shape ``x.shape[1:]``.  Any
    ratio of linear combinations of ``exp(x_i)`` and ``1`` can be formed
    from these two pieces without overflow.  ``m`` is 0 on points whose
    maximum is at most ``_EXP_SHIFT_AT``; when no point exceeds it the shift
    is skipped, with the same bits as a shift by 0.  ``out`` may be ``x``.
    """
    if x.max(initial=-np.inf) <= _EXP_SHIFT_AT:
        np.exp(x, out=out)
        return np.float64(1.0)
    m = np.maximum(_colour_reduce(np.maximum, x) - _EXP_SHIFT_AT, 0.0)
    np.exp(np.subtract(x, m, out=out), out=out)
    return np.exp(-m)


def pattern_image(color: int, params: ModelParams) -> np.ndarray:
    """Closed-form image under ``F`` of a vertex pinned to ``color``.

    A pinned vertex has no finite log-ratio vector, so this is the only way
    it enters the maps: ``d*log(w)`` in the color's coordinate for colors
    below ``q``, ``-d*log(w)`` in every coordinate for color ``q``.  Finite
    ``d`` requires ``w > 0`` (at ``w = 0`` the image is infinite).
    """
    q = params.q
    color = _index(color, "color {} is not an integer")
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


def _log_ratio_map_into(x: np.ndarray, params: ModelParams, out: np.ndarray,
                        den: np.ndarray) -> np.ndarray:
    """Write ``F(x)`` into ``out`` and return it; ``x`` and ``out`` are colour-major.

    ``den`` is a work array of shape ``x.shape[1:]``.  ``out`` may be ``x``
    itself: ``x`` is read only until its exponentials are written over it.
    Every step is an ``out=`` ufunc, so a caller that reuses ``out`` and
    ``den`` allocates nothing.  ``x`` is not validated.
    """
    zp = out
    e0 = _shifted_exp(x, zp)
    den = _colour_reduce(np.add, zp, out=den)
    if params.d == INFINITY:
        np.add(den, e0, out=den)
        np.subtract(e0, zp, out=zp)
        np.multiply(params.q, zp, out=zp)
        return np.divide(zp, den, out=zp)
    beta = params.alpha * params.q / (params.d + 1.0)
    np.add(den, params.w * e0, out=den)
    # min() propagates NaN, so these read like ``(a > b).all()`` without a mask
    if not den.min(initial=np.inf) > 0:
        raise DomainError("recursion-map denominator is nonpositive at this input")
    np.subtract(e0, zp, out=zp)
    np.multiply(beta, zp, out=zp)
    np.divide(zp, den, out=zp)
    if not zp.min(initial=np.inf) > -1.0:
        raise DomainError("recursion map log argument is nonpositive at this input")
    np.log1p(zp, out=zp)
    return np.multiply(params.d, zp, out=zp)


def log_ratio_map(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Evaluate ``F`` on a finite log-ratio vector or batch, into a new array.

    Pinned vertices are not inputs here; their images are :func:`pattern_image`.
    """
    x = validate_log_ratio(x, params.q)
    out = np.empty(x.shape)
    _log_ratio_map_into(np.moveaxis(x, -1, 0), params, np.moveaxis(out, -1, 0),
                        np.empty(x.shape[:-1]))
    return out


def _log_ratio_map_preimage_into(y: np.ndarray, params: ModelParams, out: np.ndarray,
                                 den: np.ndarray) -> np.ndarray:
    """Write the preimage of ``y`` under ``F`` into ``out`` and return its validity mask.

    ``y`` and ``out`` are colour-major; ``den`` is a work array of shape
    ``y.shape[1:]``, like the mask.  ``out`` may be ``y`` itself: ``y`` is
    read only until its first step is written over it.  A point has no
    preimage (mask False) when its candidate ratio coordinates leave the
    positive orthant; its ``out`` entries are then unspecified.  ``y`` is
    not validated.
    """
    if params.d == INFINITY:
        den = _colour_reduce(np.add, y, out=den)
        np.add(den, params.q, out=den)
        valid = den > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.multiply(params.q, y, out=out)
            np.divide(z, den, out=z)
            np.subtract(1.0, z, out=z)
    else:
        if not 0.0 < params.alpha:
            raise DomainError("preimage requires alpha > 0")
        g = np.divide(y, params.d, out=out)
        np.expm1(g, out=g)
        np.multiply(g, params.d + 1.0, out=g)
        np.divide(g, params.alpha * params.q, out=g)
        s = _colour_reduce(np.add, g, out=den)
        np.add(1.0, s, out=s)
        valid = s > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.divide(params.q * (1.0 - params.alpha / (params.d + 1.0)), s, out=s)
            z = np.subtract(1.0, np.multiply(g, k, out=g), out=g)
    # every coordinate in (0, inf): min() propagates NaN, so a NaN fails the first test
    valid &= _colour_reduce(np.minimum, z, out=den) > 0
    valid &= _colour_reduce(np.maximum, z, out=den) < np.inf
    # a plain pass beats a masked one; rows without a preimage may take NaN or -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(z, out=z)
    return valid


def log_ratio_map_preimage(y: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Batch preimage under ``F`` with a validity mask.

    Returns ``(x, valid)`` where rows with ``valid`` False have no preimage
    (the candidate ratio coordinates left the positive orthant); their ``x``
    entries are NaN.  The midpoint convexity probes, where "no preimage" is
    an expected outcome rather than an error, call its kernel
    :func:`_log_ratio_map_preimage_into` directly.
    """
    y = validate_log_ratio(y, params.q)
    x = np.empty(y.shape)
    xc = np.moveaxis(x, -1, 0)
    valid = _log_ratio_map_preimage_into(np.moveaxis(y, -1, 0), params, xc,
                                         np.empty(y.shape[:-1]))
    np.copyto(xc, np.nan, where=~valid)
    return x, valid


def log_ratio_map_jacobian(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Jacobian matrix of ``F`` at a finite point ``x``.

    At the origin this is ``-(alpha*d/(d+1-alpha)) * Id`` for finite ``d``
    and ``-Id`` in the limit.
    """
    x = validate_log_ratio(x, params.q)
    if x.ndim != 1:
        raise DomainError("jacobian expects a single vector")
    zp = np.empty_like(x)
    e0 = _shifted_exp(x, zp).item()
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
