"""Closed-form identities behind the diagonal worst-case property.

Showing that the diagonal face point maximizes level growth reduces to an
ordering statement for the gradient of the two-step image sum: if a face
point has coordinate blocks ``x1 (l times) > x2 >= x3 (rest)``, then the
gradient components satisfy ``psi_l > psi_{l+1}``.  Because the gradient has
a positive scalar prefactor, the ordering is carried by the *comparator
values* ``v_i`` in ratio coordinates; their adjacent difference collapses to
a three-exponential expression (:func:`comparator_gap`) whose positivity is
established through a one-parameter family with frozen exponents:

* :func:`constant_exponent_point` pins the exponents to constants
  ``C1 < C2 <= C3`` while a degree-like parameter ``t`` varies;
* the rescaled gap :func:`rescaled_gap` is then *linear* in ``t``, so
  positivity reduces to its value at ``t = l+1`` and its slope — both of
  which have closed forms (:func:`rescaled_gap_line`).

The module provides these pieces plus sampled sweeps that verify positivity
and the finite-difference correctness of the gradient itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import log_ratio_map, two_step_sum_limit
from .params import INFINITY, ModelParams
from .reporting import CertificationReport, sampled_sweep, spawn_rng


def comparator_values(y: np.ndarray, q: int) -> np.ndarray:
    """``v_i = y_i * (e^{G_i} (1 + sum y) + sum_j e^{G_j} (1 - y_j))``.

    ``y`` holds positive ratio coordinates (batch-friendly); ``G`` is the
    limit map on them.  The ordering of the ``v_i`` equals the ordering of
    the two-step sum gradient at ``x = log y``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != q - 1:
        raise DomainError(f"need q-1={q - 1} coordinates, got shape {y.shape}")
    if not (y >= 0).all():
        raise DomainError("ratio coordinates must be nonnegative")
    t = 1.0 + y.sum(axis=-1, keepdims=True)
    g = q * (1.0 - y) / t
    eg = np.exp(g)
    s = (eg * (1.0 - y)).sum(axis=-1, keepdims=True)
    return y * (eg * t + s)


def two_step_sum_gradient(x: np.ndarray, q: int) -> np.ndarray:
    """Gradient of ``x -> <F(F(x)), 1>`` for the limit map, in closed form."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != q - 1:
        raise DomainError(f"need q-1={q - 1} coordinates, got shape {x.shape}")
    z = np.exp(x)
    t = 1.0 + z.sum(axis=-1, keepdims=True)
    f = log_ratio_map(x, ModelParams(q, INFINITY))
    ef = np.exp(f)
    s = (ef * (1.0 - z)).sum(axis=-1, keepdims=True)
    d = ef.sum(axis=-1, keepdims=True) + 1.0
    return q**3 * z * (ef * t + s) / (d * t) ** 2


def comparator_exponent(i: int, y1, y2, y3, t, l: int):
    """Exponent ``A_i = (t+1)(1 - y_i) / (1 + l*y1 + y2 + (t-l-1)*y3)``."""
    if i not in (1, 2, 3):
        raise DomainError(f"block index must be 1, 2 or 3, got {i}")
    y = (y1, y2, y3)[i - 1]
    den = 1.0 + l * np.asarray(y1, dtype=float) + y2 + (t - l - 1.0) * np.asarray(y3)
    return (t + 1.0) * (1.0 - np.asarray(y, dtype=float)) / den


def comparator_gap(y1, y2, y3, t, l: int):
    """Adjacent comparator difference ``v_l - v_{l+1}`` in three-block form.

    Evaluated on the point with ``l`` coordinates ``y1``, one ``y2`` and
    ``t - l - 1`` coordinates ``y3`` (at ``t = q-1`` this is exactly the
    comparator difference on that structured point).  All arguments
    broadcast.
    """
    y1, y2, y3 = (np.asarray(v, dtype=float) for v in (y1, y2, y3))
    a1 = comparator_exponent(1, y1, y2, y3, t, l)
    a2 = comparator_exponent(2, y1, y2, y3, t, l)
    a3 = comparator_exponent(3, y1, y2, y3, t, l)
    m = t - l - 1.0
    c1 = y1 * y3 * m + (l + 1.0) * y1 + (l + 1.0) * y1 * y2 - l * y2
    c2 = -y2 * y3 * m - (l + 1.0) * y1 * y2 + y1 - 2.0 * y2
    c3 = (y1 - y2) * (1.0 - y3) * m
    return c1 * np.exp(a1) + c2 * np.exp(a2) + c3 * np.exp(a3)


def constant_exponent_point(c1, c2, c3, l: int, t):
    """The block point whose exponents stay pinned at ``(c1, c2, c3)``.

    Returns ``(y1, y2, y3)`` with ``1 - y_i = c_i (t+1) / B`` where
    ``B = c3 (t-l-1) + c1 l + c2 + t + 1``; substituting into the exponent
    formulas gives back the constants identically in ``t``.
    """
    c1, c2, c3 = (np.asarray(v, dtype=float) for v in (c1, c2, c3))
    t = np.asarray(t, dtype=float)
    b = c3 * (t - l - 1.0) + c1 * l + c2 + t + 1.0
    if np.any(b <= 0):
        raise DomainError("degenerate frozen-exponent point (nonpositive denominator)")
    return tuple(1.0 - c * (t + 1.0) / b for c in (c1, c2, c3))


def rescaled_gap(c1, c2, c3, l: int, t):
    """``comparator_gap`` on the frozen-exponent family, rescaled by
    ``((1+t)/B)^{-2}`` — an exactly linear function of ``t``."""
    c1, c2, c3 = (np.asarray(v, dtype=float) for v in (c1, c2, c3))
    t = np.asarray(t, dtype=float)
    y1, y2, y3 = constant_exponent_point(c1, c2, c3, l, t)
    b = c3 * (t - l - 1.0) + c1 * l + c2 + t + 1.0
    return comparator_gap(y1, y2, y3, t, l) * (b / (1.0 + t)) ** 2


def rescaled_gap_line(c1, c2, c3, l: int):
    """Closed forms ``(value at t=l+1, slope)`` of the linear rescaled gap.

    Positivity of both, for all admissible constants ``0 <= c1 < c2 <= c3``,
    is what propagates the gap's positivity to every ``t >= l+1``.
    """
    c1, c2, c3 = (np.asarray(v, dtype=float) for v in (c1, c2, c3))
    u1 = 2.0 + l + c2 - 2.0 * c1 + l * c1 * c2 - l * c1**2
    u2 = -(2.0 + l + l * c1 - (l + 1.0) * c2 + c1 * c2 - c2**2)
    value = u1 * np.exp(c1) + u2 * np.exp(c2)
    slope = ((1.0 + c3 - c1) * np.exp(c1) - (1.0 + c3 - c2) * np.exp(c2)
             + (c2 - c1) * c3 * np.exp(c3))
    return value, slope


@dataclass(frozen=True)
class TripleParams:
    """An admissible three-block face configuration.

    ``x1`` fills ``l`` leading coordinates, ``x2`` the next one and ``x3``
    the remaining ``q - l - 2``; admissibility is
    ``1 >= x1 > x2 >= x3 >= 0`` (which forces the derived exponent constants
    into ``0 <= C1 < C2 <= C3``).
    """

    q: int
    l: int
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if self.q < 3:
            raise DomainError(f"q must be >= 3, got {self.q}")
        if not 1 <= self.l <= self.q - 2:
            raise DomainError(f"l must lie in 1..{self.q - 2}, got {self.l}")
        if not (1.0 >= self.x1 > self.x2 >= self.x3 >= 0.0):
            raise DomainError(
                f"need 1 >= x1 > x2 >= x3 >= 0, got ({self.x1}, {self.x2}, {self.x3})"
            )

    def as_vector(self) -> np.ndarray:
        return np.concatenate([
            np.full(self.l, self.x1), [self.x2], np.full(self.q - self.l - 2, self.x3),
        ])

    def constants(self) -> tuple[float, float, float]:
        t = self.q - 1
        return tuple(
            float(comparator_exponent(i, self.x1, self.x2, self.x3, t, self.l))
            for i in (1, 2, 3)
        )


def _draw_triples(count: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Admissible (x1, x2, x3) draws: three sorted uniforms (a.s. strict)."""
    u = np.sort(rng.random((count, 3)), axis=1)[:, ::-1]
    return u[:, 0], u[:, 1], u[:, 2]


def positivity_sweep(q: int, l: int, trials: int, seed: int = 0,
                     threads: int = 1) -> CertificationReport:
    """Verify gap positivity and the linear-form identities on random draws.

    Per draw: the three-block gap at ``t = q-1`` must be positive; the
    rescaled gap must match its closed-form line (value and slope) to 1e-9
    and be linear in ``t`` to 1e-9; value and slope must be positive.  The
    report's margin is the smallest positive quantity seen, and the witness
    records the draw that attains it.
    """
    if not 1 <= l <= q - 2:
        raise DomainError(f"l must lie in 1..{q - 2}, got {l}")
    t = float(q - 1)

    def run_chunk(rng: np.random.Generator, n: int):
        x1, x2, x3 = _draw_triples(n, rng)
        gap = comparator_gap(x1, x2, x3, t, l)
        c1 = comparator_exponent(1, x1, x2, x3, t, l)
        c2 = comparator_exponent(2, x1, x2, x3, t, l)
        c3 = comparator_exponent(3, x1, x2, x3, t, l)
        value, slope = rescaled_gap_line(c1, c2, c3, l)
        r1 = rescaled_gap(c1, c2, c3, l, l + 1.0)
        r2 = rescaled_gap(c1, c2, c3, l, l + 2.0)
        r3 = rescaled_gap(c1, c2, c3, l, l + 3.0)
        scale = np.maximum(1.0, np.abs(r3))
        closed_err = np.maximum(np.abs(r1 - value), np.abs((r3 - r1) / 2.0 - slope)) / scale
        linear_err = np.abs(r1 - 2.0 * r2 + r3) / scale
        margin = np.minimum(np.minimum(gap, value), slope)
        k = int(np.argmin(margin))
        return (float(margin[k]), float(closed_err.max()), float(linear_err.max()),
                (float(x1[k]), float(x2[k]), float(x3[k]),
                 float(gap[k]), float(value[k]), float(slope[k])))

    results = sampled_sweep(run_chunk, trials, seed, threads)
    min_margin = min(r[0] for r in results)
    closed_err = max(r[1] for r in results)
    linear_err = max(r[2] for r in results)
    worst = min(results, key=lambda r: r[0])[3]
    passed = bool(min_margin > 0 and closed_err <= 1e-9 and linear_err <= 1e-9)
    return CertificationReport(
        kind="gap_positivity",
        parameters={"q": q, "l": l, "closed_form_err": closed_err,
                    "linearity_err": linear_err,
                    "x1": worst[0], "x2": worst[1], "x3": worst[2],
                    "gap": worst[3], "line_value": worst[4], "line_slope": worst[5]},
        sample_count=trials, seed=seed, min_margin=float(min_margin),
        passed=passed, witness=None,
    )


def gradient_identity_sweep(q: int, points: int = 1000, seed: int = 0) -> CertificationReport:
    """Check the closed-form gradient against central finite differences.

    Points are standard-normal draws in log-ratio space; the error metric is
    ``|fd - grad| / max(1, |grad|)`` per component, and the sweep passes at
    1e-6.
    """
    step = 1e-5
    rng = spawn_rng(seed)
    x = rng.standard_normal((points, q - 1))
    grad = two_step_sum_gradient(x, q)
    err = np.zeros_like(grad)
    for i in range(q - 1):
        h = np.zeros(q - 1)
        h[i] = step
        fd = (two_step_sum_limit(x + h, q) - two_step_sum_limit(x - h, q)) / (2 * step)
        err[:, i] = np.abs(fd - grad[:, i]) / np.maximum(1.0, np.abs(grad[:, i]))
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    return CertificationReport(
        kind="gradient_identity",
        parameters={"q": q, "step": step, "max_scaled_error": float(err.max()),
                    "worst_point": list(x[worst[0]])},
        sample_count=points, seed=seed,
        min_margin=float(1e-6 - err.max()),
        passed=bool(err.max() <= 1e-6), witness=None,
    )


@dataclass
class BalancingReport:
    """Effect of averaging the trailing coordinate block on the gap."""

    q: int
    l: int
    gap_before: float
    gap_after: float
    decrease_ok: bool
    symmetry_error: float
    min_second_difference: float
    passed: bool


def _gap_from_vector(y: np.ndarray, l: int, q: int) -> float:
    v = comparator_values(y, q)
    return float(v[l - 1] - v[l])


def tail_averaging_check(y: np.ndarray, l: int, q: int) -> BalancingReport:
    """Verify that averaging trailing coordinates cannot enlarge the gap.

    ``y`` must satisfy ``1 >= y_1 = ... = y_l > y_{l+1} >= ... >= y_{q-1} >= 0``.
    Checks (a) the gap does not increase when coordinates ``l+2..q-1`` are
    replaced by their mean, and (b) the one-pair transfer function behind it
    is symmetric about the midpoint and convex along the transfer parameter.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (q - 1,):
        raise DomainError(f"need a vector of length q-1={q - 1}")
    if not 1 <= l <= q - 2:
        raise DomainError(f"l must lie in 1..{q - 2}, got {l}")
    head, pivot, tail = y[:l], y[l], y[l + 1:]
    if not ((head <= 1.0).all() and np.ptp(head) <= 1e-12 and head[0] > pivot):
        raise DomainError("need 1 >= y_1 = ... = y_l > y_{l+1}")
    rest = np.concatenate([[pivot], tail])
    if not ((np.diff(rest) <= 1e-12).all() and rest[-1] >= 0):
        raise DomainError("trailing coordinates must be descending and nonnegative")

    gap_before = _gap_from_vector(y, l, q)
    averaged = y.copy()
    if len(tail):
        averaged[l + 1:] = tail.mean()
    gap_after = _gap_from_vector(averaged, l, q)

    # One-pair transfer: move the first unequal adjacent tail pair together.
    sym_err, min_curv = 0.0, np.inf
    idx = next((k for k in range(len(tail) - 1) if tail[k] > tail[k + 1]), None)
    if idx is not None:
        i, j = l + 1 + idx, l + 2 + idx
        span = y[i] - y[j]

        def gap_at(s):
            z = y.copy()
            z[i], z[j] = y[i] - s, y[j] + s
            return _gap_from_vector(z, l, q)

        ts = np.linspace(0.0, span, 9)
        vals = np.array([gap_at(s) for s in ts])
        scale = max(1.0, np.abs(vals).max())
        sym_err = float(np.abs(vals - vals[::-1]).max() / scale)
        min_curv = float(np.min(vals[:-2] - 2 * vals[1:-1] + vals[2:]) / scale)

    decrease_ok = gap_before >= gap_after - 1e-10
    passed = bool(decrease_ok and sym_err <= 1e-10 and
                  (min_curv == np.inf or min_curv >= -1e-12))
    return BalancingReport(
        q=q, l=l, gap_before=gap_before, gap_after=gap_after,
        decrease_ok=decrease_ok, symmetry_error=sym_err,
        min_second_difference=float(min_curv), passed=passed,
    )
