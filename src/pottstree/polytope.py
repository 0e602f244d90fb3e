"""The permutation-symmetric polytope family and its fundamental domain.

For level ``c > 0`` the polytope is the simplex

    P_c = conv{ -c*e_1, ..., -c*e_{q-1}, (c, ..., c) }  in  R^{q-1},

the intersection of the half-space ``sum_i x_i >= -c`` with its images under
every color permutation.  Membership therefore reduces to ``q`` linear
constraints — the coordinate sum plus one constraint per color:

    S + c >= 0   and   S - q*x_k + c >= 0  for all k,      S = sum_i x_i,

and the *level* of a point is the smallest ``c`` containing it,

    level(x) = max(-S, q*max_k(x_k) - S).

The fundamental domain ``D_c = {x <= 0, sum x >= -c}`` tiles ``P_c`` under
the permutation action, so sampled sweeps only ever need ``D_c``.  Its
uniform law is the Dirichlet(1, ..., 1) law on the vertex weights, drawn as
standard exponentials divided by their left-to-right row sum: numpy's own
Dirichlet sampler, bit for bit.  :func:`level` and the Dirichlet draw each
keep their one formula in a private colour-major kernel (the layout is
described in :mod:`pottstree.maps`) that writes into arrays the caller owns.
The weights do not depend on the level, so the ``two_step_level`` sweep draws
them once per chunk, into its own workspace, and scales them by each level.

The convexity probe asks whether midpoints of images under the recursion map
pull back inside the same level set; its negative answers (witnesses) are as
meaningful as its positive margins.  The pullback writes each batch of
midpoints into one colour-major array and runs the preimage and level
kernels on it in place.  The witness search makes one pass per level: it maps
a point cloud on the boundary of ``P_c`` by ``F`` once and scans all its pairs
in row blocks of broadcast views, so no pair is gathered; a block's pairs below
the diagonal mirror pairs it visits earlier, with the same level bit for bit,
so they never displace the first maximum.  A midpoint without a preimage has
level ``+inf``, which no later pair can beat, so the scan and the remaining
levels stop there.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError
from .maps import _colour_reduce, _log_ratio_map_preimage_into, log_ratio_map
from .params import ModelParams
from .reporting import DEFAULT_CHUNK, CertificationReport, check_integers, sampled_sweep, spawn_rng

WITNESS_THRESHOLD = 1e-6
#: Share of the convexity probe's samples of ``P_c`` moved onto a facet.
BOUNDARY_FRACTION = 0.5


def _check_level(c: float) -> None:
    """Refuse a level ``c`` that is not finite and ``> 0`` with a :class:`DomainError`."""
    if not 0 < c < np.inf:
        raise DomainError(f"level must be finite and positive, got {c}")


def polytope_vertices(c: float, q: int) -> np.ndarray:
    """The ``q`` vertices of ``P_c`` (one permutation orbit), rows of a matrix."""
    _check_level(c)
    v = -c * np.eye(q - 1)
    return np.vstack([v, np.full(q - 1, c)])


def _level_into(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write ``level(x)`` into ``out`` and return it; ``x`` is colour-major, both vectors ``x.shape[1:]``."""
    q = x.shape[0] + 1
    s = _colour_reduce(np.add, x, out=out)
    top = _colour_reduce(np.maximum, x, out=work)
    np.subtract(np.multiply(q, top, out=top), s, out=top)
    return np.maximum(np.negative(s, out=s), top, out=s)


def level(x: np.ndarray) -> np.ndarray | float:
    """Smallest ``c`` with ``x in P_c`` (batch-friendly).

    ``c - level(x)`` is the membership margin: ``x in P_c`` exactly when it
    is ``>= 0``.
    """
    x = np.asarray(x, dtype=float)
    out = _level_into(np.moveaxis(x, -1, 0), np.empty(x.shape[:-1]), np.empty(x.shape[:-1]))
    return float(out) if out.ndim == 0 else out


def _dirichlet_weights_into(rng: np.random.Generator, e: np.ndarray, acc: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
    """Write the first ``q-1`` of ``len(e)`` Dirichlet(1, ..., 1) weight vectors into ``out``.

    ``out`` is colour-major, shape ``(q-1, n)``; ``-c * out`` are uniform
    samples of ``D_c``.  ``e`` (row-major ``(n, q)``, so the generator fills
    it in draw order) and ``acc`` (shape ``(n,)``) are work arrays.  This is
    numpy's Dirichlet(1, ..., 1) sampler spelled out: standard exponentials,
    each draw summed left to right from ``+0.0`` and multiplied by
    ``1/sum``, so ``out.T`` has the bits of
    ``rng.dirichlet(np.ones(q), size=n)[:, :q-1]`` and the generator is left
    in the same state.
    """
    rng.standard_exponential(out=e)
    np.add(e[:, 0], 0.0, out=acc)
    for k in range(1, e.shape[1]):
        np.add(acc, e[:, k], out=acc)
    np.divide(1.0, acc, out=acc)
    return np.multiply(e[:, :-1].T, acc, out=out)


def sample_face(c: float, q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples of the facet ``{x <= 0, sum x = -c}`` of ``D_c``."""
    _check_level(c)
    return -c * rng.dirichlet(np.ones(q - 1), size=count)


def _polytope_weights(q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vertex weights of the convexity probe's samples of ``P_c``, shape ``(count, q)``.

    Points ``weights @ polytope_vertices(c, q)`` are uniform in ``P_c``,
    except that a ``BOUNDARY_FRACTION`` share of them is moved onto a
    uniformly chosen facet (one Dirichlet weight zeroed out).  The weights do
    not depend on ``c``.
    """
    w = rng.dirichlet(np.ones(q), size=count)
    onto = rng.random(count) < BOUNDARY_FRACTION
    drop = rng.integers(0, q, size=count)
    w[onto, drop[onto]] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return w


def _midpoint_pullback_levels(fx: np.ndarray, fy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Level of the preimage of ``(fx+fy)/2``, for images ``fx = F(x)``, ``fy = F(y)``.

    ``fx`` and ``fy`` are row-major and broadcast against each other; the
    result has their broadcast shape without the colour axis.  +inf where
    the midpoint has no preimage.  Symmetric in ``fx, fy`` bit for bit, since
    floating-point addition commutes.  The midpoint is written into one
    colour-major array, which the preimage and level kernels then overwrite
    in place.
    """
    shape = np.broadcast_shapes(np.shape(fx), np.shape(fy))
    mid = np.add(np.moveaxis(fx, -1, 0), np.moveaxis(fy, -1, 0),
                 out=np.empty(shape[-1:] + shape[:-1]))
    np.multiply(0.5, mid, out=mid)
    # a caller that passes freshly mapped batches holds no other reference to
    # them, so they are freed here and the kernels below run beside one batch
    del fx, fy
    work = np.empty(shape[:-1])
    valid = _log_ratio_map_preimage_into(mid, params, mid, work)
    # rows without a preimage hold unspecified values; their level becomes +inf
    with np.errstate(invalid="ignore", over="ignore"):
        out = _level_into(mid, np.empty(shape[:-1]), work)
    np.copyto(out, np.inf, where=~valid)
    return out


def convexity_probe(levels, params: ModelParams, pair_count: int, seed: int,
                    threads: int = 1) -> list[CertificationReport]:
    """Sampled test that midpoints of ``F(P_c)`` pull back into ``P_c``, one report per level ``c``.

    Draws ``pair_count`` random pairs from ``P_c`` (plus every pair of
    polytope vertices, deterministically), maps them forward, and pulls the
    image midpoints back through the inverse map.  The report's margin is
    ``c - max(level of pullback)``; a pair whose pullback exceeds the level
    by more than 1e-6 — or has no pullback at all — is a reported witness.
    Each chunk draws its vertex weights once and evaluates every level of
    ``levels`` on them, so a level's report is the one a single-level call
    gives.
    """
    check_integers(pair_count=pair_count, seed=seed)
    q = params.q
    vertices = [polytope_vertices(c, q) for c in levels]
    if not vertices:
        return []
    pairs = list(itertools.combinations(range(q), 2))

    def worst_pair(x: np.ndarray, y: np.ndarray):
        lev = _midpoint_pullback_levels(log_ratio_map(x, params), log_ratio_map(y, params), params)
        k = int(np.argmax(lev))
        # copies: a view would keep the level's whole batch alive with the result
        return float(lev[k]), x[k].copy(), y[k].copy()

    def run_chunk(rng: np.random.Generator, n: int):
        wx = _polytope_weights(q, n, rng)
        wy = _polytope_weights(q, n, rng)
        return [worst_pair(wx @ vx, wy @ vx) for vx in vertices]

    sampled = sampled_sweep(run_chunk, pair_count, seed, threads)
    reports = []
    for j, (c, vx) in enumerate(zip(levels, vertices)):
        det = worst_pair(vx[[a for a, _ in pairs]], vx[[b for _, b in pairs]])
        results = [det] + [chunk[j] for chunk in sampled]
        worst_level, worst_x, worst_y = max(results, key=lambda r: r[0])
        violation = worst_level - c
        passed = bool(violation <= WITNESS_THRESHOLD)
        witness = None
        if not passed:
            witness = {
                "x": list(worst_x),
                "y": list(worst_y),
                "pullback_level": worst_level,
                "violation": violation,
            }
        reports.append(CertificationReport(
            kind="midpoint_convexity",
            parameters={"q": q, "d": params.d, "alpha": params.alpha, "c": c,
                        "boundary_fraction": BOUNDARY_FRACTION},
            sample_count=int(pair_count + len(pairs)),
            seed=seed,
            min_margin=float(c - worst_level),
            passed=passed,
            witness=witness,
        ))
    return reports


def _witness_cloud(q: int, pairs_per_c: int, seed: int, ci: int) -> np.ndarray:
    """Vertex weights of the witness search's point cloud on the boundary of ``P_c``.

    Edge grids between every pair of vertices (each vertex recurs at the end
    of ``q-1`` of them), plus random facet points drawn for level index ``ci``.
    """
    m = max(8, int(np.sqrt(pairs_per_c / max(1, q * (q - 1) // 2))))
    weights = []
    for i, j in itertools.combinations(range(q), 2):
        s = np.linspace(0.0, 1.0, m)
        w = np.zeros((m, q))
        w[:, i], w[:, j] = 1.0 - s, s
        weights.append(w)
    n_rand = min(pairs_per_c // 10, 2000)
    wr = spawn_rng(seed, ci, 1).dirichlet(np.ones(q), size=n_rand)
    wr[np.arange(n_rand), spawn_rng(seed, ci, 2).integers(0, q, n_rand)] = 0.0
    wr /= wr.sum(axis=1, keepdims=True)
    weights.append(wr)
    return np.vstack(weights)


def _worst_unordered_pair(fc: np.ndarray, params: ModelParams) -> tuple[float, int, int]:
    """Highest midpoint pullback level over the pairs ``i <= j`` of images ``fc``.

    Returns ``(level, i, j)`` for the first maximum of the ordered ``n x n``
    scan in row-major order.  The scan runs in row blocks: rows
    ``[i0, i0+h)`` against columns ``[i0, n)``, about ``DEFAULT_CHUNK`` pairs
    each, passed to the pullback as broadcast views of ``fc``.  The levels
    are symmetric bit for bit, so a pair ``(i, j)`` of a block with ``j < i``
    mirrors the pair ``(j, i)`` that the block visits earlier, and the first
    maximum of a block never falls on such a pair; the strict ``>`` across
    blocks keeps the earliest one, ties included.  A pair without a preimage
    has level ``+inf``, which no later pair can exceed, so the scan stops at
    the first one.
    """
    n, width = fc.shape
    top_level, top_i, top_j = -np.inf, 0, 0
    i0 = 0
    while i0 < n and top_level < np.inf:
        cols = n - i0
        rows = fc[i0:i0 + max(1, DEFAULT_CHUNK // cols)]
        h = len(rows)
        lev = _midpoint_pullback_levels(np.broadcast_to(rows[:, None], (h, cols, width)),
                                        fc[None, i0:], params)
        k = int(np.argmax(lev))
        if lev.flat[k] > top_level:
            top_level, top_i, top_j = float(lev.flat[k]), i0 + k // cols, i0 + k % cols
        i0 += h
    return top_level, top_i, top_j


def convexity_witness_search(params: ModelParams, c_values, pairs_per_c: int = 250_000,
                             seed: int = 0) -> dict | None:
    """Best-effort search for a genuine convexity violation.

    Scans a dense point cloud on the boundary of ``P_c`` (edge grids plus
    random facet points) over all unordered pairs (the midpoint is
    symmetric, see :func:`_worst_unordered_pair`); ``F`` is evaluated once
    per cloud point.  Returns the strongest witness found (violation > 1e-6)
    or ``None`` if the budget is exhausted without one.  Only boundary points
    are scanned, so a coarse cloud (small ``pairs_per_c``) can miss a
    violation that only interior pairs show.  Measured against a search that
    also refines interior pairs, over 1,140 searches (q in {3, 4, 5, 6, 8},
    d in {2, 3, 4, 10, 50, inf}, alpha in {0.3, 0.7, 1}, seeds 0 and 1):
    at 1,000 pairs per level the scan returned ``None`` for ``(6, 50, 1.0)``
    at c=7, ``(8, 50, 0.3)`` at c=9 and ``(8, 50, 0.7)`` at c=8, where
    interior pairs violate by 0.009-0.038; at 3,000 pairs one search found a
    smaller violation than the reference, with the same verdict; at 20,000
    pairs all 1,140 matched.

    Every level and ``pairs_per_c`` are validated before any draw.  A
    midpoint without a preimage has level ``+inf``, which no later witness
    can beat, so once the best witness has an infinite violation the
    remaining levels are skipped.  Each level draws from its own
    ``spawn_rng(seed, ci, ...)`` streams, so skipping leaves the result
    unchanged.  A skipped level is not evaluated at all, so it cannot raise
    the ``DomainError`` that ``F`` raises off its domain (where ``w <= 0``).
    """
    if not isinstance(pairs_per_c, (int, np.integer)) or pairs_per_c < 0:
        raise DomainError(f"pairs_per_c must be an integer >= 0, got {pairs_per_c!r}")
    q = params.q
    c_values = list(c_values)
    vertices = [polytope_vertices(c, q) for c in c_values]
    best: dict | None = None
    for ci, (c, vx) in enumerate(zip(c_values, vertices)):
        if best is not None and best["violation"] == np.inf:
            break
        w_cloud = _witness_cloud(q, pairs_per_c, seed, ci)
        top_level, i, j = _worst_unordered_pair(log_ratio_map(w_cloud @ vx, params), params)
        violation = top_level - c
        if violation > WITNESS_THRESHOLD and (best is None or violation > best["violation"]):
            best = {
                "c": float(c),
                "x": list(w_cloud[i] @ vx),
                "y": list(w_cloud[j] @ vx),
                "pullback_level": top_level,
                "violation": float(violation),
            }
    return best
