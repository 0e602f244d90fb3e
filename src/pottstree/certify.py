"""Sampled certification of forward invariance and convergence to uniform.

The certification story has three layers:

* :func:`two_step_level` — estimate the smallest level set containing the
  image of the fundamental domain under two recursion steps.  For the limit
  family the exact answer is the diagonal contraction value, which the sample
  set always contains, so the estimate is tight from below.
* :func:`contraction_sequence` — iterate that estimate from the universal
  starting level ``q+1`` down to a target, certifying that two-step images
  keep shrinking (the engine behind uniqueness of the Gibbs measure).
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
worker thread: the draw's exponentials, the weights and two vectors, sized to
one chunk, with each level's batch written over the exponentials once the
weights exist.  The chunk maps twice and levels each batch in place, with the
same colour-major kernels the public ``sample_fundamental``,
``log_ratio_map`` and ``level`` wrap (the layout is described in
:mod:`pottstree.maps`), so every estimate has the bits of the allocating
functions.  The buffers are dropped when the sweep returns.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import CertificationError, DomainError
from .maps import (_log_ratio_map_into, diagonal_contraction, leaf_counts_log_ratios,
                   log_ratio_map, two_step_map, two_step_sum_limit)
from .params import INFINITY, ModelParams
from .polytope import _dirichlet_weights_into, _level_into, level, sample_face
from .reporting import DEFAULT_CHUNK, CertificationReport, sampled_sweep, spawn_rng

#: Additive cushion per contraction step, so each next level lies strictly
#: above the sampled estimate.  That estimate is a sampled maximum, so the
#: levels are evidence, not proven upper bounds.
STEP_CUSHION = 1e-6


def _fundamental_probe_points(c: float, q: int) -> np.ndarray:
    """Deterministic must-test points: origin, vertices, diagonal face point."""
    pts = [np.zeros(q - 1), np.full(q - 1, -c / (q - 1.0)), -c * np.eye(q - 1)]
    return np.vstack(pts)


def _workspace(buf: np.ndarray, n: int, q: int) -> tuple[np.ndarray, ...]:
    """Cut ``n * (2q+1)`` floats of ``buf`` into one chunk's arrays.

    Returns the row-major ``(n, q)`` exponentials, the colour-major
    ``(q-1, n)`` weights, the colour-major ``(q-1, n)`` level batch, which
    lies over the exponentials (they are dead once the weights exist), and
    two ``(n,)`` vectors.
    """
    e, x = buf[:n * q].reshape(n, q), buf[:n * (q - 1)].reshape(q - 1, n)
    w = buf[n * q:n * (2 * q - 1)].reshape(q - 1, n)
    u, v = buf[n * (2 * q - 1):n * (2 * q + 1)].reshape(2, n)
    return e, w, x, u, v


def _sampled_peaks(levels, params: ModelParams, rng: np.random.Generator,
                   workspace: tuple[np.ndarray, ...]) -> list[float]:
    """``max level(F(F(x)))`` over one draw of ``D_c`` per level ``c``, all from one set of weights."""
    e, w, x, u, v = workspace
    _dirichlet_weights_into(rng, e, u, out=w)
    peaks = []
    for c in levels:
        np.multiply(w, -c, out=x)
        _log_ratio_map_into(x, params, x, u)
        _log_ratio_map_into(x, params, x, u)
        peaks.append(float(np.max(_level_into(x, u, v))))
    return peaks


def two_step_level(levels, params: ModelParams, sample_count: int = 100_000,
                   seed: int = 0, threads: int = 1) -> list[CertificationReport]:
    """Estimate ``max level(F(F(x)))`` over the fundamental domain, one report per level ``c``.

    At each level the sample set is ``sample_count`` uniform draws from the
    fundamental domain plus the deterministic corner/diagonal points (where
    the maximum sits for the limit family).  ``parameters["estimate"]`` is
    that maximum and ``min_margin = c - estimate``; a positive margin is
    evidence of strict forward invariance at this level.
    ``parameters["diagonal_bound"]`` is the exact diagonal value for the
    limit family (None for finite degree).  Every level scales the same
    draws, so a level's report is the one a single-level call gives.
    """
    for c in levels:
        if not c > 0:
            raise DomainError(f"level must be positive, got {c}")
    q = params.q
    rows = min(sample_count, DEFAULT_CHUNK)
    # one buffer per worker thread, reused by every chunk that thread runs
    # and dropped when this sweep returns
    local = threading.local()

    def chunk_peaks(rng: np.random.Generator, n: int) -> list[float]:
        if not hasattr(local, "buf"):
            local.buf = np.empty(rows * (2 * q + 1))
        return _sampled_peaks(levels, params, rng, _workspace(local.buf, n, q))

    sampled = sampled_sweep(chunk_peaks, sample_count, seed, threads)
    reports = []
    for j, c in enumerate(levels):
        probes = two_step_map(_fundamental_probe_points(c, q), params)
        estimate = max([float(np.max(level(probes)))] + [peaks[j] for peaks in sampled])
        bound = diagonal_contraction(c, q) if params.d == INFINITY else None
        reports.append(CertificationReport(
            kind="two_step_level",
            parameters={"q": q, "d": params.d, "alpha": params.alpha, "c": float(c),
                        "estimate": estimate, "diagonal_bound": bound},
            sample_count=sample_count + q + 1, seed=seed,
            min_margin=float(c - estimate), passed=bool(estimate < c),
        ))
    return reports


def contraction_sequence(params: ModelParams, epsilon: float, max_iters: int,
                         *, sample_count: int = 20_000, seed: int = 0,
                         threads: int = 1) -> list[float]:
    """Iterate certified levels ``c_0 = q+1, c_{k+1} = estimate(c_k) + cushion``.

    Stops once ``c_k < epsilon`` or after ``max_iters`` steps (whichever is
    first) and returns the whole sequence.  A step that fails to decrease
    raises :class:`CertificationError` — the certification claim would be
    vacuous from that point on.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
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
    if not c > 0:
        raise DomainError(f"level must be positive, got {c}")
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
