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
the permutation action, so sampled sweeps only ever need ``D_c``.

The convexity probe asks whether midpoints of images under the recursion map
pull back inside the same level set; its negative answers (witnesses) are as
meaningful as its positive margins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import log_ratio_map, log_ratio_map_preimage
from .params import ModelParams
from .reporting import DEFAULT_CHUNK, CertificationReport, sampled_sweep, spawn_rng

WITNESS_THRESHOLD = 1e-6
#: Rounds of local refinement around the worst pair of each witness-search scan.
WITNESS_REFINE_ROUNDS = 12
#: Share of :func:`sample_polytope` samples moved onto a facet of ``P_c``.
BOUNDARY_FRACTION = 0.5


def polytope_vertices(c: float, q: int) -> np.ndarray:
    """The ``q`` vertices of ``P_c`` (one permutation orbit), rows of a matrix."""
    if c <= 0:
        raise DomainError(f"level must be positive, got {c}")
    v = -c * np.eye(q - 1)
    return np.vstack([v, np.full(q - 1, c)])


def level(x: np.ndarray) -> np.ndarray | float:
    """Smallest ``c`` with ``x in P_c`` (batch-friendly)."""
    x = np.asarray(x, dtype=float)
    q = x.shape[-1] + 1
    s = x.sum(axis=-1)
    out = np.maximum(-s, q * x.max(axis=-1) - s)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    margin: float
    #: 0 for the coordinate-sum constraint, else the color k in 1..q-1 whose
    #: constraint is tightest.
    tight_constraint: int


def membership(x: np.ndarray, c: float) -> MembershipReport:
    """Check ``x in P_c`` via the reduced constraint system."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("membership expects a single vector")
    if c <= 0:
        raise DomainError(f"level must be positive, got {c}")
    q = len(x) + 1
    s = x.sum()
    slacks = np.concatenate([[s + c], s - q * x + c])
    worst = int(np.argmin(slacks))
    return MembershipReport(bool(slacks[worst] >= 0), float(slacks[worst]), worst)


def sample_fundamental(c: float, q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples of ``D_c`` (Dirichlet weights over its q vertices)."""
    if c <= 0:
        raise DomainError(f"level must be positive, got {c}")
    w = rng.dirichlet(np.ones(q), size=count)
    return -c * w[:, : q - 1]


def sample_face(c: float, q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples of the facet ``{x <= 0, sum x = -c}`` of ``D_c``."""
    if c <= 0:
        raise DomainError(f"level must be positive, got {c}")
    return -c * rng.dirichlet(np.ones(q - 1), size=count)


def sample_polytope(c: float, q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Samples of ``P_c``, biased onto its boundary.

    Points are uniform in ``P_c``, except that a ``BOUNDARY_FRACTION`` share
    of them is moved onto a uniformly chosen facet (one Dirichlet weight
    zeroed out).
    """
    w = rng.dirichlet(np.ones(q), size=count)
    onto = rng.random(count) < BOUNDARY_FRACTION
    drop = rng.integers(0, q, size=count)
    w[onto, drop[onto]] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return w @ polytope_vertices(c, q)


def _midpoint_pullback_levels(fx: np.ndarray, fy: np.ndarray, params: ModelParams) -> np.ndarray:
    """Level of the preimage of ``(fx+fy)/2``, for images ``fx = F(x)``, ``fy = F(y)``.

    +inf where the midpoint has no preimage.  Symmetric in ``fx, fy`` bit for
    bit, since floating-point addition commutes.
    """
    mid = 0.5 * (fx + fy)
    # drop the images before the preimage allocates: a caller that passes
    # freshly mapped batches holds no other reference, so they are freed here
    # and the peak memory holds one batch (the midpoint), not three
    del fx, fy
    back, valid = log_ratio_map_preimage(mid, params)
    # level only on rows with a preimage, +inf elsewhere (a definite violation)
    out = np.full(valid.shape, np.inf)
    if valid.any():
        out[valid] = level(back[valid])
    return out


def convexity_probe(c: float, params: ModelParams, pair_count: int, seed: int,
                    threads: int = 1) -> CertificationReport:
    """Sampled test that midpoints of ``F(P_c)`` pull back into ``P_c``.

    Draws ``pair_count`` random pairs from ``P_c`` (plus every pair of
    polytope vertices, deterministically), maps them forward, and pulls the
    image midpoints back through the inverse map.  The report's margin is
    ``c - max(level of pullback)``; a pair whose pullback exceeds the level
    by more than 1e-6 — or has no pullback at all — is a reported witness.
    """
    q = params.q
    vx = polytope_vertices(c, q)
    pairs = list(itertools.combinations(range(q), 2))
    det_x = vx[[i for i, _ in pairs]]
    det_y = vx[[j for _, j in pairs]]

    def worst_pair(x: np.ndarray, y: np.ndarray):
        lev = _midpoint_pullback_levels(log_ratio_map(x, params), log_ratio_map(y, params),
                                        params)
        k = int(np.argmax(lev))
        return float(lev[k]), x[k], y[k]

    def run_chunk(rng: np.random.Generator, n: int):
        x = sample_polytope(c, q, n, rng)
        return worst_pair(x, sample_polytope(c, q, n, rng))

    results = [worst_pair(det_x, det_y)] + sampled_sweep(run_chunk, pair_count, seed, threads)
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
    return CertificationReport(
        kind="midpoint_convexity",
        parameters={"q": q, "d": params.d, "alpha": params.alpha, "c": c,
                    "boundary_fraction": BOUNDARY_FRACTION},
        sample_count=int(pair_count + len(det_x)),
        seed=seed,
        min_margin=float(c - worst_level),
        passed=passed,
        witness=witness,
    )


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
    scan in row-major order: the levels are symmetric, so that maximum has
    ``i <= j``, and the strict ``>`` over row-major blocks of the triangle
    (``DEFAULT_CHUNK`` pairs each) picks it, ties included.
    """
    n = len(fc)
    n_pairs = n * (n + 1) // 2
    row_start = np.concatenate([[0], np.cumsum(np.arange(n, 1, -1))])  # index of (i, i)
    top_level, top_i, top_j = -np.inf, 0, 0
    for lo in range(0, n_pairs, DEFAULT_CHUNK):
        flat = np.arange(lo, min(lo + DEFAULT_CHUNK, n_pairs))
        ii = np.searchsorted(row_start, flat, side="right") - 1
        jj = flat - row_start[ii] + ii
        lev = _midpoint_pullback_levels(fc[ii], fc[jj], params)
        k = int(np.argmax(lev))
        if lev[k] > top_level:
            top_level, top_i, top_j = float(lev[k]), int(ii[k]), int(jj[k])
    return top_level, top_i, top_j


def convexity_witness_search(params: ModelParams, c_values, pairs_per_c: int = 250_000,
                             seed: int = 0) -> dict | None:
    """Best-effort search for a genuine convexity violation.

    Scans dense point clouds on the boundary of ``P_c`` (edge grids plus
    random facet points) over all unordered pairs (the midpoint is
    symmetric); ``F`` is evaluated once per cloud point.  Then it locally
    refines the worst pair by perturbing its vertex-weight coordinates.
    Returns the strongest witness found (violation > 1e-6) or ``None`` if the
    budget is exhausted without one.
    """
    q = params.q
    best: dict | None = None
    for ci, c in enumerate(c_values):
        vx = polytope_vertices(c, q)
        w_cloud = _witness_cloud(q, pairs_per_c, seed, ci)
        fc = log_ratio_map(w_cloud @ vx, params)
        top_level, top_i, top_j = _worst_unordered_pair(fc, params)
        wx, wy = w_cloud[top_i].copy(), w_cloud[top_j].copy()

        # local refinement in weight space (stays inside P_c by construction)
        sigma = 0.15
        for r in range(WITNESS_REFINE_ROUNDS):
            rr = spawn_rng(seed, ci, 3, r)
            px = np.abs(wx + sigma * rr.standard_normal((400, q)))
            py = np.abs(wy + sigma * rr.standard_normal((400, q)))
            px = np.vstack([wx, px]) ; py = np.vstack([wy, py])
            px /= px.sum(axis=1, keepdims=True)
            py /= py.sum(axis=1, keepdims=True)
            lev = _midpoint_pullback_levels(log_ratio_map(px @ vx, params),
                                            log_ratio_map(py @ vx, params), params)
            k = int(np.argmax(lev))
            if lev[k] > top_level:
                top_level, wx, wy = float(lev[k]), px[k].copy(), py[k].copy()
            sigma *= 0.6

        violation = top_level - c
        if violation > WITNESS_THRESHOLD and (best is None or violation > best["violation"]):
            best = {
                "c": float(c),
                "x": list(wx @ vx),
                "y": list(wy @ vx),
                "pullback_level": top_level,
                "violation": float(violation),
            }
    return best
