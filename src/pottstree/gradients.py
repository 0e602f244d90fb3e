"""Closed-form identities behind the diagonal worst-case property.

Showing that the diagonal face point maximizes level growth reduces to an
ordering statement for the gradient of the two-step image sum: if a face
point has coordinate blocks ``x1 (l times) > x2 >= x3 (rest)``, then the
gradient components satisfy ``psi_l > psi_{l+1}``.  Because the gradient has
a positive scalar prefactor, the ordering is carried by the *comparator
values* ``v_i`` in ratio coordinates; their adjacent difference collapses to
a three-exponential gap (:func:`_gap_into`, with exponents
:func:`_comparator_exponents_into`) whose positivity is established through
a one-parameter family with frozen exponents:

* :func:`_frozen_point_into` pins the exponents to constants
  ``C1 < C2 <= C3`` while a degree-like parameter ``t`` varies;
* the rescaled gap (:func:`_rescaled_gap_into`) is then *linear* in ``t``,
  so positivity reduces to its value at ``t = l+1`` and its slope, both of
  which have closed forms (:func:`_rescaled_gap_line_into`).

The module's surface is :func:`two_step_sum_gradient` and two sampled
sweeps: :func:`positivity_sweep` checks the gap's positivity and the linear
form on random draws, and :func:`gradient_identity_sweep` checks the
gradient against finite differences.

Layout: each closed form has one formula, a private kernel that writes into
1-D arrays it is given with ``out=`` ufuncs, in the operation order of the
plain expression, and so allocates nothing.  A kernel takes the three blocks
as three rows of the same length; ``t`` and ``l`` are scalars.
:func:`_gap_into` and :func:`_rescaled_gap_line_into` take the exponentials
of their exponents, so a draw exponentiates its exponents once for both.

:func:`positivity_sweep` runs each chunk in ``_SWEEP_ROWS`` floats per sample
of its workspace, cut into ``_SWEEP_ROWS`` rows of ``n`` floats.  The draw
fills an ``(n, 3)`` block of uniforms over the first three rows; a min/max
sorting network writes ``x1 >= x2 >= x3`` into three contiguous rows (pure
value selection, so the bits of a descending ``np.sort``), and the dead draw
block then serves as three work rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .maps import log_ratio_map, two_step_sum_limit
from .params import INFINITY, ModelParams, validate_log_ratio
from .reporting import CertificationReport, check_integers, sampled_sweep, spawn_rng

#: Rows of ``n`` floats in one chunk's workspace: the draw block (then three
#: work rows), the triple, its exponents, the gap, line value and slope, the
#: three rescaled gaps and seven more work rows.
_SWEEP_ROWS = 22


def two_step_sum_gradient(x: np.ndarray, q: int) -> np.ndarray:
    """Gradient of ``x -> <F(F(x)), 1>`` for the limit map, in closed form."""
    x = validate_log_ratio(x, q)
    z = np.exp(x)
    t = 1.0 + z.sum(axis=-1, keepdims=True)
    f = log_ratio_map(x, ModelParams(q, INFINITY))
    ef = np.exp(f)
    s = (ef * (1.0 - z)).sum(axis=-1, keepdims=True)
    d = ef.sum(axis=-1, keepdims=True) + 1.0
    return q**3 * z * (ef * t + s) / (d * t) ** 2


def _comparator_exponents_into(y1, y2, y3, t, l: int, out, den):
    """Write the exponents ``A_i = (t+1)(1 - y_i) / (1 + l*y1 + y2 + (t-l-1)*y3)``
    into ``out = (a1, a2, a3)`` and return it.

    ``den`` is a work array; no output may share memory with an input.
    """
    np.multiply(l, y1, out=den)
    np.add(1.0, den, out=den)
    np.add(den, y2, out=den)
    np.add(den, np.multiply(t - l - 1.0, y3, out=out[0]), out=den)
    for y, a in zip((y1, y2, y3), out):
        np.subtract(1.0, y, out=a)
        np.multiply(t + 1.0, a, out=a)
        np.divide(a, den, out=a)
    return out


def _gap_into(y1, y2, y3, t, l: int, exps, out, work):
    """Write the adjacent comparator difference ``v_l - v_{l+1}`` into ``out`` and return it.

    Evaluated on the point with ``l`` coordinates ``y1``, one ``y2`` and
    ``t - l - 1`` coordinates ``y3`` (at ``t = q-1`` this is exactly the
    comparator difference on that structured point).  ``exps`` holds
    ``(e^A1, e^A2, e^A3)`` of the same point and ``work`` three work arrays;
    neither ``out`` nor ``work`` may share memory with an input.
    """
    e1, e2, e3 = exps
    p, r, s = work
    m = t - l - 1.0
    # c1 = y1 y3 m + (l+1) y1 + (l+1) y1 y2 - l y2
    np.multiply(y1, y3, out=p)
    np.multiply(p, m, out=p)
    np.multiply(l + 1.0, y1, out=r)
    np.add(p, r, out=p)
    np.multiply(r, y2, out=r)  # (l+1) y1 y2, a term of c2 too
    np.add(p, r, out=p)
    np.subtract(p, np.multiply(l, y2, out=s), out=p)
    np.multiply(p, e1, out=out)
    # c2 = -y2 y3 m - (l+1) y1 y2 + y1 - 2 y2
    np.negative(y2, out=p)
    np.multiply(p, y3, out=p)
    np.multiply(p, m, out=p)
    np.subtract(p, r, out=p)
    np.add(p, y1, out=p)
    np.subtract(p, np.multiply(2.0, y2, out=s), out=p)
    np.add(out, np.multiply(p, e2, out=p), out=out)
    # c3 = (y1 - y2) (1 - y3) m
    np.subtract(y1, y2, out=p)
    np.multiply(p, np.subtract(1.0, y3, out=r), out=p)
    np.multiply(p, m, out=p)
    return np.add(out, np.multiply(p, e3, out=p), out=out)


def _frozen_point_into(c1, c2, c3, l: int, t, b, y):
    """Write ``B`` into ``b`` and the frozen-exponent point into ``y = (y1, y2, y3)``.

    The point has ``1 - y_i = c_i (t+1) / B`` with
    ``B = c3 (t-l-1) + c1 l + c2 + t + 1``; substituting it into the exponent
    formulas gives back the constants ``(c1, c2, c3)`` identically in ``t``.
    Raises :class:`DomainError` unless every ``B > 0`` (a NaN ``B`` too).
    """
    np.multiply(c3, t - l - 1.0, out=b)
    np.add(b, np.multiply(c1, l, out=y[0]), out=b)
    np.add(b, c2, out=b)
    np.add(b, t, out=b)
    np.add(b, 1.0, out=b)
    if not b.min(initial=np.inf) > 0:  # min() propagates NaN
        raise DomainError("degenerate frozen-exponent point (nonpositive denominator)")
    for c, yi in zip((c1, c2, c3), y):
        np.multiply(c, t + 1.0, out=yi)
        np.divide(yi, b, out=yi)
        np.subtract(1.0, yi, out=yi)
    return b, y


def _rescaled_gap_into(c1, c2, c3, l: int, t, out, work):
    """Write the frozen point's gap times ``((1+t)/B)^{-2}``, exactly linear in ``t``,
    into ``out`` and return it; ``work`` is ten work arrays."""
    b, y, a, gap_work = work[0], work[1:4], work[4:7], work[7:10]
    _frozen_point_into(c1, c2, c3, l, t, b, y)
    _comparator_exponents_into(*y, t, l, a, gap_work[0])
    for v in a:
        np.exp(v, out=v)
    _gap_into(*y, t, l, a, out, gap_work)
    np.divide(b, 1.0 + t, out=b)
    np.square(b, out=b)
    return np.multiply(out, b, out=out)


def _rescaled_gap_line_into(c1, c2, c3, l: int, exps, out, work):
    """Write the closed forms ``(value at t=l+1, slope)`` of the linear rescaled
    gap into ``out = (value, slope)`` and return it.

    Positivity of both, for all admissible constants ``0 <= c1 < c2 <= c3``,
    is what propagates the gap's positivity to every ``t >= l+1``.  ``exps``
    holds ``(e^c1, e^c2, e^c3)`` and ``work`` two work arrays.
    """
    e1, e2, e3 = exps
    value, slope = out
    p, r = work
    # u1 = 2 + l + c2 - 2 c1 + l c1 c2 - l c1^2
    np.add(2.0 + l, c2, out=p)
    np.subtract(p, np.multiply(2.0, c1, out=r), out=p)
    np.multiply(l, c1, out=r)
    np.add(p, np.multiply(r, c2, out=r), out=p)
    np.square(c1, out=r)
    np.subtract(p, np.multiply(l, r, out=r), out=p)
    np.multiply(p, e1, out=value)
    # u2 = -(2 + l + l c1 - (l+1) c2 + c1 c2 - c2^2)
    np.multiply(l, c1, out=p)
    np.add(2.0 + l, p, out=p)
    np.subtract(p, np.multiply(l + 1.0, c2, out=r), out=p)
    np.add(p, np.multiply(c1, c2, out=r), out=p)
    np.subtract(p, np.square(c2, out=r), out=p)
    np.negative(p, out=p)
    np.add(value, np.multiply(p, e2, out=p), out=value)
    # slope = (1 + c3 - c1) e^c1 - (1 + c3 - c2) e^c2 + (c2 - c1) c3 e^c3
    np.add(1.0, c3, out=p)
    np.subtract(p, c1, out=p)
    np.multiply(p, e1, out=slope)
    np.add(1.0, c3, out=p)
    np.subtract(p, c2, out=p)
    np.subtract(slope, np.multiply(p, e2, out=p), out=slope)
    np.subtract(c2, c1, out=p)
    np.multiply(p, c3, out=p)
    np.add(slope, np.multiply(p, e3, out=p), out=slope)
    return out


def _sweep_workspace(buf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut ``_SWEEP_ROWS * n`` floats of ``buf`` into one chunk's arrays.

    Returns the ``(n, 3)`` draw block and the ``(_SWEEP_ROWS, n)`` rows; the
    draw block lies over rows 0-2.
    """
    return buf[:3 * n].reshape(n, 3), buf[:_SWEEP_ROWS * n].reshape(_SWEEP_ROWS, n)


def _draw_triples_into(rng: np.random.Generator, raw: np.ndarray, x, tmp: np.ndarray):
    """Fill ``raw`` with uniforms and write its rows, sorted descending, into ``x``.

    ``x = (x1, x2, x3)`` gets the admissible draws (a.s. strict) from a
    min/max network on the three columns; ``tmp`` is one work row.
    """
    rng.random(out=raw)
    u0, u1, u2 = raw.T
    x1, x2, x3 = x
    np.minimum(u0, u1, out=x3)
    np.maximum(u0, u1, out=x1)
    np.minimum(x1, u2, out=tmp)
    np.maximum(x1, u2, out=x1)
    np.maximum(x3, tmp, out=x2)
    np.minimum(x3, tmp, out=x3)
    return x


def _positivity_chunk(q: int, l: int, rng: np.random.Generator, workspace):
    """One chunk of :func:`positivity_sweep`, in the arrays of :func:`_sweep_workspace`.

    Returns the chunk's margin, closed-form and linearity errors, and the
    witness tuple ``(x1, x2, x3, gap, value, slope)`` at its smallest margin.
    """
    raw, rows = workspace
    t = float(q - 1)
    x, c, r = rows[3:6], rows[6:9], rows[12:15]
    gap, value, slope = rows[9:12]
    work = [*rows[:3], *rows[15:]]
    _draw_triples_into(rng, raw, x, c[0])
    _comparator_exponents_into(*x, t, l, c, work[0])
    exps = np.exp(c, out=rows[:3])
    _gap_into(*x, t, l, exps, gap, work[3:6])
    _rescaled_gap_line_into(*c, l, exps, (value, slope), work[3:5])
    for k, rk in zip((1.0, 2.0, 3.0), r):
        _rescaled_gap_into(*c, l, l + k, rk, work)
    r1, r2, r3 = r
    scale, err, margin = work[:3]
    np.maximum(1.0, np.abs(r3, out=scale), out=scale)
    # closed_err = max(|r1 - value|, |(r3 - r1)/2 - slope|) / scale
    np.abs(np.subtract(r1, value, out=err), out=err)
    np.subtract(r3, r1, out=margin)
    np.divide(margin, 2.0, out=margin)
    np.abs(np.subtract(margin, slope, out=margin), out=margin)
    np.maximum(err, margin, out=err)
    closed_err = float(np.divide(err, scale, out=err).max())
    # linear_err = |r1 - 2 r2 + r3| / scale
    np.subtract(r1, np.multiply(2.0, r2, out=err), out=err)
    np.abs(np.add(err, r3, out=err), out=err)
    linear_err = float(np.divide(err, scale, out=err).max())
    np.minimum(np.minimum(gap, value, out=margin), slope, out=margin)
    k = int(np.argmin(margin))
    return (float(margin[k]), closed_err, linear_err,
            (float(x[0, k]), float(x[1, k]), float(x[2, k]),
             float(gap[k]), float(value[k]), float(slope[k])))


def check_sweep_sizes(trials: int = 1, points: int = 1) -> None:
    """Raise :class:`DomainError` unless the sweep sizes ``trials`` and ``points`` are ``>= 1``."""
    for name, value in (("trials", trials), ("points", points)):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")


def positivity_sweep(q: int, l: int, trials: int, seed: int = 0,
                     threads: int = 1) -> CertificationReport:
    """Verify gap positivity and the linear-form identities on random draws.

    Per draw: the three-block gap at ``t = q-1`` must be positive; the
    rescaled gap must match its closed-form line (value and slope) to 1e-9
    and be linear in ``t`` to 1e-9; value and slope must be positive.  The
    report's margin is the smallest positive quantity seen, and the witness
    records the draw that attains it.
    """
    check_integers(l=l, trials=trials, seed=seed)
    if not 1 <= l <= q - 2:
        raise DomainError(f"l must lie in 1..{q - 2}, got {l}")
    check_sweep_sizes(trials=trials)

    def run_chunk(rng: np.random.Generator, n: int, buf: np.ndarray):
        return _positivity_chunk(q, l, rng, _sweep_workspace(buf, n))

    results = sampled_sweep(run_chunk, trials, seed, threads, _SWEEP_ROWS)
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
    check_integers(points=points, seed=seed)
    check_sweep_sizes(points=points)
    step = 1e-5
    rng = spawn_rng(seed)
    x = rng.standard_normal((points, q - 1))
    grad = two_step_sum_gradient(x, q)
    h = step * np.eye(q - 1)  # row i steps coordinate i: x[:, None] ± h holds all q-1 shifts
    fd = two_step_sum_limit(x[:, None] + h, q) - two_step_sum_limit(x[:, None] - h, q)
    err = np.abs(fd / (2 * step) - grad) / np.maximum(1.0, np.abs(grad))
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    return CertificationReport(
        kind="gradient_identity",
        parameters={"q": q, "step": step, "max_scaled_error": float(err.max()),
                    "worst_point": list(x[worst[0]])},
        sample_count=points, seed=seed,
        min_margin=float(1e-6 - err.max()),
        passed=bool(err.max() <= 1e-6), witness=None,
    )
