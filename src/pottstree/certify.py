"""Sampled certification of forward invariance and convergence to uniform.

The certification story has three layers:

* :func:`two_step_level` — estimate the smallest level set containing the
  image of the fundamental domain under two recursion steps.  For the limit
  family the exact answer is the diagonal contraction value, which the sample
  set always contains, so the estimate is tight from below.  On ``D_c`` that
  level is ``-sum F(F(x))`` (the sign lemma), evaluated by one kernel.
* :func:`contraction_sequence` — iterate that estimate from the universal
  starting level ``q+1`` down to a target, certifying that two-step images
  keep shrinking (the engine behind uniqueness of the Gibbs measure).  It
  first iterates the diagonal probe alone, a lower bound on every sampled
  step, and refuses a chain that this lower chain proves cannot reach the
  target, before it draws a sample.
* :func:`convergence_experiment` — run the actual recursion on regular trees
  of growing depth and measure how fast the conditional root distribution
  approaches uniform, compared against the ``alpha**(n/2)`` rate.

The checks (:func:`two_step_level`, :func:`diagonal_minimality_check` and
:func:`convergence_experiment`) each return a
:class:`~pottstree.reporting.CertificationReport`.
Everything is seeded and chunked as described in :mod:`pottstree.reporting`,
so reports are bit-reproducible at any thread count.

The unit of :func:`two_step_level` work is the chunk: each chunk draws its
Dirichlet weights once, for the whole grid of levels, and evaluates every
level on them (``x = -c * weights``).  Its temporaries live in one buffer per
worker thread, ``2q`` floats per sample: the draw's exponentials, the weights
and one vector, with each level's batch written over the exponentials once
the weights exist.  The weights have the bits of numpy's Dirichlet sampler.
Each batch is mapped twice in place by the colour-major kernel the public
``log_ratio_map`` wraps (the layout is described in :mod:`pottstree.maps`), so
every estimate has the bits of ``level(two_step_map(x))``.  The buffers are
dropped when the sweep returns.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificationError, DomainError
from .maps import (_colour_reduce, _log_ratio_map_into, diagonal_contraction,
                   leaf_counts_log_ratios, log_ratio_map, two_step_sum_limit)
from .params import INFINITY, ModelParams
from .polytope import _check_level, _dirichlet_weights_into, sample_face
from .reporting import (DEFAULT_CHUNK, CertificationReport, per_thread_buffer, sampled_sweep,
                        spawn_rng)

#: Additive cushion per contraction step, so each next level lies strictly
#: above the sampled estimate.  That estimate is a sampled maximum, so the
#: levels are evidence, not proven upper bounds.
STEP_CUSHION = 1e-6

#: Rounding allowance of the diagonal lower chain, in ulps of ``q+1`` per
#: step (see :func:`contraction_sequence`).  Against a 50-digit evaluation,
#: the float diagonal level is off by at most 3 ulps of ``q+1`` for q = 3..12,
#: d from 2 to 10**6 and inf, alpha from 0.1 to 1 and levels in (0, q+1].
_CHAIN_ALLOWANCE_ULPS = 16


def _fundamental_probe_points(c: float, q: int) -> np.ndarray:
    """Colour-major must-test points: origin, diagonal face point (column 1), vertices."""
    diagonal = np.full((q - 1, 1), -c / (q - 1.0))
    return np.hstack([np.zeros((q - 1, 1)), diagonal, -c * np.eye(q - 1)])


def _two_step_peak(x: np.ndarray, params: ModelParams, work: np.ndarray) -> float:
    """``max level(F(F(x)))`` over a colour-major batch ``x`` of ``D_c``, mapped in place.

    Sign lemma: ``F``'s denominator is positive wherever ``F`` is defined, so
    ``x <= 0`` gives ``F(x) >= 0`` and ``F(F(x)) <= 0`` coordinate by coordinate,
    and the level ``max(-S, q*max_k - S)`` of ``F(F(x))`` is ``-S``.  The kernels'
    ``exp`` and subtractions are monotone, so they keep those signs and
    ``0.0 - min S`` has the bits of ``level``'s peak; the ``0.0 -`` gives its
    ``+0.0`` at ``S = +0.0`` (``alpha = 0``).  ``work`` has shape ``x.shape[1:]``.
    """
    _log_ratio_map_into(x, params, x, work)
    _log_ratio_map_into(x, params, x, work)
    return float(0.0 - np.min(_colour_reduce(np.add, x, out=work)))


def _diagonal_level(c: float, params: ModelParams) -> float:
    """``psi(c)``: the two-step level of the diagonal probe; no estimate at ``c`` is below it.

    This is the diagonal profile ``-<F(F(-c/(q-1) * 1)), 1>`` at every degree,
    ``d = inf`` included; :func:`~pottstree.maps.diagonal_contraction` is its
    closed form in the limit.  It is bit for bit the level the probe points
    of :func:`two_step_level` give that point: the same kernel on it alone.
    """
    return _two_step_peak(np.full((params.q - 1, 1), -c / (params.q - 1.0)), params, np.empty(1))


def _workspace(buf: np.ndarray, n: int, q: int) -> tuple[np.ndarray, ...]:
    """Cut ``n * 2q`` floats of ``buf`` into one chunk's arrays: the row-major ``(n, q)``
    exponentials, the colour-major ``(q-1, n)`` weights, the colour-major ``(q-1, n)``
    batch over the exponentials (dead once the weights exist) and one ``(n,)`` vector."""
    e, x = buf[:n * q].reshape(n, q), buf[:n * (q - 1)].reshape(q - 1, n)
    w = buf[n * q:n * (2 * q - 1)].reshape(q - 1, n)
    return e, w, x, buf[n * (2 * q - 1):n * 2 * q]


def _sampled_peaks(levels, params: ModelParams, rng: np.random.Generator,
                   workspace: tuple[np.ndarray, ...]) -> list[float]:
    """``max level(F(F(x)))`` over one draw of ``D_c`` per level ``c``, all from one set of weights."""
    e, w, x, u = workspace
    _dirichlet_weights_into(rng, e, u, out=w)
    return [_two_step_peak(np.multiply(w, -c, out=x), params, u) for c in levels]


def two_step_level(levels, params: ModelParams, sample_count: int = 100_000,
                   seed: int = 0, threads: int = 1) -> list[CertificationReport]:
    """Estimate ``max level(F(F(x)))`` over the fundamental domain, one report per level ``c``.

    At each level the sample set is ``sample_count`` uniform draws from the
    fundamental domain plus the deterministic corner/diagonal points (where
    the maximum sits for the limit family), each valued ``-sum F(F(x))`` by
    :func:`_two_step_peak`.  ``parameters["estimate"]`` is that maximum and
    ``min_margin = c - estimate``; a positive margin is evidence of strict
    forward invariance at this level.  ``parameters["diagonal_bound"]`` is
    the exact diagonal value for the limit family (None for finite degree).
    Every level scales the same draws, so a level's report is the one a
    single-level call gives.  Levels are checked before any draw; an empty list draws none.
    """
    for c in levels:
        _check_level(c)
    if len(levels) == 0:
        return []
    q = params.q
    buffer = per_thread_buffer(min(sample_count, DEFAULT_CHUNK) * 2 * q)

    def chunk_peaks(rng: np.random.Generator, n: int) -> list[float]:
        return _sampled_peaks(levels, params, rng, _workspace(buffer(), n, q))

    sampled = sampled_sweep(chunk_peaks, sample_count, seed, threads)
    reports = []
    for j, c in enumerate(levels):
        probe = _two_step_peak(_fundamental_probe_points(c, q), params, np.empty(q + 1))
        estimate = max([probe] + [peaks[j] for peaks in sampled])
        bound = diagonal_contraction(c, q) if params.d == INFINITY else None
        reports.append(CertificationReport(
            kind="two_step_level",
            parameters={"q": q, "d": params.d, "alpha": params.alpha, "c": float(c),
                        "estimate": estimate, "diagonal_bound": bound},
            sample_count=sample_count + q + 1, seed=seed,
            min_margin=float(c - estimate), passed=bool(estimate < c),
        ))
    return reports


def check_contraction_target(epsilon: float | None, max_iters: int) -> None:
    """Raise :class:`DomainError` unless ``max_iters >= 1`` and ``epsilon`` is None or > 0."""
    if epsilon is not None and not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")


def _doomed_reason(params: ModelParams, epsilon: float, max_iters: int) -> str | None:
    """Why no sampled chain reaches ``epsilon`` within ``max_iters`` steps, or None when one may.

    Iterates the diagonal lower chain described in :func:`contraction_sequence`.
    """
    allowance = _CHAIN_ALLOWANCE_ULPS * float(np.spacing(params.q + 1.0))
    lower = params.q + 1.0
    for k in range(max_iters):
        if lower < epsilon + k * allowance:
            return None
        following = _diagonal_level(lower, params) + STEP_CUSHION
        if following >= lower and lower >= epsilon + max_iters * allowance:
            return (f"the diagonal lower chain stopped decreasing at step {k} "
                    f"({lower!r} -> {following!r}), so every sampled level stays at or above "
                    f"epsilon={epsilon!r} for all max_iters={max_iters} steps")
        lower = following
    if lower < epsilon + max_iters * allowance:
        return None
    return (f"the diagonal lower chain is still at {lower!r} after {max_iters} steps, "
            f"so no sampled level falls below epsilon={epsilon!r} within "
            f"max_iters={max_iters} steps")


def contraction_sequence(params: ModelParams, epsilon: float, max_iters: int,
                         *, sample_count: int = 20_000, seed: int = 0,
                         threads: int = 1) -> list[float]:
    """Iterate certified levels ``c_0 = q+1, c_{k+1} = estimate(c_k) + cushion``.

    Stops once ``c_k < epsilon`` or after ``max_iters`` steps (whichever is
    first) and returns the whole sequence.  A step that fails to decrease
    raises :class:`CertificationError` — the certification claim would be
    vacuous from that point on.

    Before it draws a sample, the function iterates the lower chain
    ``l_0 = q+1, l_{k+1} = psi(l_k) + cushion``, where ``psi(c)`` is the
    two-step level of the diagonal probe point ``-c/(q-1) * 1``.  Every
    estimate at ``c`` is a maximum that includes ``psi(c)``, computed by the
    same call, so it is at least ``psi(c)`` bit for bit.  ``psi`` is
    increasing (the diagonal step is decreasing) with slope at most 1, so by
    induction ``c_k >= l_k - k*A``, where the allowance ``A`` is 16 ulps of
    ``q+1`` per step.  It covers the float error of ``psi``, measured at no
    more than 3 ulps of ``q+1`` and paid twice a step, and the rounding of
    the added cushion.  So the chain is refused with
    :class:`CertificationError`, and no sample is drawn, when

    * ``l_k >= epsilon + k*A`` at every step ``k <= max_iters``: no sampled
      level can fall below ``epsilon`` in time;
    * ``l`` stops decreasing (``l_{k+1} >= l_k``) at a level
      ``l_k >= epsilon + max_iters*A``: by the same induction every later
      sampled level stays at least ``l_k - max_iters*A``.

    Otherwise, near ties included, the sampled chain runs.  The lower chain
    draws no random numbers, so it changes neither the samples nor the levels.
    """
    if epsilon is None:
        raise DomainError("epsilon must be positive, got None: the chain needs a target level")
    check_contraction_target(epsilon, max_iters)
    reason = _doomed_reason(params, epsilon, max_iters)
    if reason is not None:
        raise CertificationError(f"{reason}; no samples were drawn; params={params}")
    c = params.q + 1.0
    seq = [c]
    for it in range(max_iters):
        if c < epsilon:
            break
        rep = two_step_level([c], params, sample_count,
                             seed=int(spawn_rng(seed, it).integers(2**32)), threads=threads)[0]
        c_next = rep.parameters["estimate"] + STEP_CUSHION
        if not c_next < c:
            raise CertificationError(
                f"two-step level failed to decrease at step {it}: "
                f"c={c} -> estimate {rep.parameters['estimate']} + cushion; "
                f"params={params}, sample_count={sample_count}"
            )
        c = c_next
        seq.append(c)
    return seq


def diagonal_minimality_check(c: float, q: int, sample_count: int = 50_000,
                              seed: int = 0) -> CertificationReport:
    """Sample the face ``{x <= 0, sum x = -c}`` and compare image sums.

    The coordinate sum of the two-step limit image must be minimal at the
    diagonal point of the face (within 1e-10), and strictly larger for
    points separated from the diagonal — that is what makes the diagonal the
    worst case for level growth.  ``min_margin`` is the smallest gap over
    the points farther than ``parameters["separation"]`` from the diagonal
    (+inf when there are none); ``parameters["min_gap"]`` is the smallest
    gap over all points.
    """
    _check_level(c)
    diag = np.full(q - 1, -c / (q - 1.0))
    base = float(two_step_sum_limit(diag, q))
    x = sample_face(c, q, sample_count, spawn_rng(seed))
    vals = np.asarray(two_step_sum_limit(x, q))
    gaps = vals - base
    separation = 1e-3 * c
    far = np.abs(x - diag).max(axis=-1) > separation
    min_far = float(gaps[far].min()) if far.any() else np.inf
    return CertificationReport(
        kind="diagonal_minimality",
        parameters={"q": q, "c": float(c), "diagonal_value": base,
                    "min_gap": float(gaps.min()), "separation": separation},
        sample_count=sample_count, seed=seed, min_margin=min_far,
        passed=bool(gaps.min() >= -1e-10 and min_far > 0),
    )


def _uniform_deviation_from_ratios(x: np.ndarray, q: int) -> np.ndarray:
    """``max_i |p_i - 1/q|`` for the color law with log-ratios ``x``."""
    m = np.maximum(x.max(axis=-1, keepdims=True), 0.0)
    e = np.exp(x - m)
    e0 = np.exp(-m)
    den = e.sum(axis=-1, keepdims=True) + e0
    p = np.concatenate([e, e0], axis=-1) / den
    return np.abs(p - 1.0 / q).max(axis=-1)


def convergence_experiment(q: int, d: int, alpha: float, n_max: int,
                           boundary: str = "mono", trials: int = 1,
                           seed: int = 0, color: int = 1) -> CertificationReport:
    """Measure the recursion's drift toward uniform on deep regular trees.

    Boundaries are *level-homogeneous*: every depth-(n-1) vertex sees the
    same multiset of leaf colors, so each level carries a single message and
    depth-``n`` results are exact even when the full tree is astronomically
    large.  ``boundary='mono'`` pins all leaves to ``color``;
    ``boundary='random'`` draws one color-count vector per trial
    (multinomial over the ``d`` leaf slots) — ``trials`` independent draws.

    The report passes when even-depth deviations decrease strictly and every
    deviation ratio two depths apart is at most ``alpha * 1.05``; its
    ``min_margin`` is ``alpha * 1.05`` minus the largest ratio, so the
    even-depth test is in ``passed`` but not in ``min_margin``.  With
    ``alpha = 0`` (or an exactly uniform boundary) the model is free,
    deviations must vanish outright and ``min_margin = 1e-14 - max(deviation)``.
    ``parameters["two_step_ratios"]`` holds the deviation ratio between
    depths n and n-2 (None for n <= 2); ``sample_count`` is the number of
    boundary draws.
    """
    if boundary not in ("mono", "random"):
        raise DomainError(f"unknown boundary strategy {boundary!r}")
    if not (isinstance(d, (int, np.integer)) and d >= 2):
        raise DomainError(f"d must be an integer >= 2, got {d!r}")
    if n_max < 3:
        raise DomainError("need n_max >= 3 to measure two-step ratios")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    params = ModelParams(q, int(d), alpha)
    if not 1 <= color <= q:
        raise DomainError(f"color must lie in 1..{q}, got {color}")
    if boundary == "mono":
        counts = np.zeros((1, q))
        counts[0, color - 1] = d
    else:
        rng = spawn_rng(seed)
        counts = rng.multinomial(d, np.full(q, 1.0 / q), size=trials).astype(float)
    x = leaf_counts_log_ratios(counts, params)  # one row per trial

    depths, devs, ratios = [], [], []
    for n in range(1, n_max + 1):
        if n > 1:
            x = log_ratio_map(x, params)  # d identical children: mean is F itself
        depths.append(n)
        devs.append(float(_uniform_deviation_from_ratios(x, q).max()))
        ratios.append(devs[-1] / devs[-3] if n > 2 and devs[-3] > 0 else None)

    finite_ratios = [r for r in ratios if r is not None]
    fitted = float(np.sqrt(max(finite_ratios))) if finite_ratios else None
    bound = float(np.sqrt(alpha) * 1.05)
    even = [dev for n, dev in zip(depths, devs) if n % 2 == 0]
    if alpha == 0.0 or max(devs) == 0.0:
        # free model (or exactly uniform boundary): no drift at all
        margin = 1e-14 - max(devs)
        passed = max(devs) <= 1e-14
    else:
        ratio_bound = alpha * 1.05
        margin = ratio_bound - max(finite_ratios)
        passed = (all(r <= ratio_bound for r in finite_ratios)
                  and all(b < a for a, b in zip(even, even[1:])))
    return CertificationReport(
        kind="convergence",
        parameters={"q": q, "d": int(d), "alpha": alpha, "n_max": n_max,
                    "boundary": boundary, "depths": depths, "max_deviations": devs,
                    "two_step_ratios": ratios, "fitted_rate": fitted, "rate_bound": bound},
        sample_count=len(counts), seed=seed, min_margin=float(margin),
        passed=bool(passed),
    )
