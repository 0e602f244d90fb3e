"""Exact partition-function oracles and recursion cross-checks.

Everything here computes ground truth the slow way so the recursion maps can
be validated against it:

* :func:`brute_force_Z` enumerates colorings outright (vectorized in chunks);
* :func:`dp_log_Z` runs a leaf-to-root dynamic program in log space, exact up
  to floating point for trees far beyond enumeration range;
* :func:`root_log_ratios` / :func:`conditional_root_distribution` derive the
  quantities the recursion predicts, straight from the dynamic program;
* :func:`recursion_root_log_ratios` runs the recursion-map pipeline on an
  explicit regular tree (the thing being cross-checked);
* :func:`enumerate_log_ratio_sets` enumerates every achievable log-ratio
  vector at small depth by compressing boundaries to color multisets.

A configuration's weight is ``w**m`` with ``m`` its number of monochromatic
edges; ``Z`` sums weights over colorings compatible with the boundary.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetError, DomainError
from .maps import leaf_counts_log_ratios, log_ratio_map
from .params import ModelParams
from .trees import BoundaryCondition, TreeSpec

BRUTE_FORCE_BUDGET = 10_000_000
BRUTE_FORCE_CHUNK = 200_000
DP_VERTEX_BUDGET = 1_000_000


def _collect_pins(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition | None,
                  pinned_root: int | None) -> dict[int, int]:
    """Validate an oracle query and return its pinned vertices and colors."""
    if not (isinstance(q, (int, np.integer)) and q >= 2):
        raise DomainError(f"q must be an integer >= 2, got {q!r}")
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"w must lie in [0, 1], got {w!r}")
    pinned: dict[int, int] = {}
    if boundary is not None:
        boundary.validate(tree, q)
        pinned.update(boundary.colors)
    if pinned_root is not None:
        if not 1 <= pinned_root <= q:
            raise DomainError(f"root color {pinned_root} outside 1..{q}")
        if pinned.get(tree.root, pinned_root) != pinned_root:
            raise DomainError("root pinned to conflicting colors")
        pinned[tree.root] = pinned_root
    return pinned


def brute_force_Z(tree: TreeSpec, q: int, w: float,
                  boundary: BoundaryCondition | None = None,
                  pinned_root: int | None = None) -> float:
    """Partition function by direct enumeration of all free-vertex colorings."""
    pinned = _collect_pins(tree, q, w, boundary, pinned_root)
    free = [v for v in range(tree.n_vertices) if v not in pinned]
    total = q ** len(free)
    if total > BRUTE_FORCE_BUDGET:
        raise BudgetError(f"{total} colorings exceed the enumeration budget {BRUTE_FORCE_BUDGET}")
    base = np.zeros(tree.n_vertices, dtype=np.int16)
    for v, c in pinned.items():
        base[v] = c
    edges = tree.edges()
    z = 0.0
    for lo in range(0, total, BRUTE_FORCE_CHUNK):
        idx = np.arange(lo, min(lo + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        cols = np.tile(base, (len(idx), 1))
        for j, v in enumerate(free):
            cols[:, v] = (idx // q**j) % q + 1
        mono = np.zeros(len(idx), dtype=np.int32)
        for a, b in edges:
            mono += cols[:, a] == cols[:, b]
        z += float(np.power(float(w), mono).sum())
    return z


def dp_log_Z(tree: TreeSpec, q: int, w: float,
             boundary: BoundaryCondition | None = None,
             pinned_root: int | None = None) -> float:
    """``log Z`` by the leaf-to-root dynamic program.

    Per-vertex tables are normalized by their running maximum, so depth and
    size are limited only by the vertex budget, not by float range.  Returns
    ``-inf`` when no compatible coloring has positive weight (possible only
    at ``w = 0``).
    """
    table = _dp_tables(tree, q, w, boundary, pinned_root)
    return _logsumexp(table[tree.root])


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


def _dp_tables(tree: TreeSpec, q: int, w: float,
               boundary: BoundaryCondition | None,
               pinned_root: int | None) -> np.ndarray:
    """Per-vertex arrays ``L[v][i] = log Z(subtree of v | v colored i+1)``."""
    pinned = _collect_pins(tree, q, w, boundary, pinned_root)
    if tree.n_vertices > DP_VERTEX_BUDGET:
        raise BudgetError(f"{tree.n_vertices} vertices exceed the dp budget")
    table = np.zeros((tree.n_vertices, q))
    for v in reversed(tree.topological_order()):
        lv = np.zeros(q)
        for c in tree.children[v]:
            lc = table[c]
            m = lc.max()
            if m == -np.inf:
                lv += -np.inf
                continue
            e = np.exp(lc - m)
            # sum_j w**[i==j] * exp(lc_j), evaluated for all i at once
            inner = e.sum() - (1.0 - w) * e
            with np.errstate(divide="ignore"):
                lv += m + np.log(inner)
        if v in pinned:
            keep = lv[pinned[v] - 1]
            lv = np.full(q, -np.inf)
            lv[pinned[v] - 1] = keep
        table[v] = lv
    return table


def root_log_ratios(tree: TreeSpec, q: int, w: float,
                    boundary: BoundaryCondition) -> np.ndarray:
    """Exact log-ratio vector of the root: ``log Z_i - log Z_q`` for i < q.

    Requires ``w > 0`` and a root that is not itself a boundary vertex (for a
    pinned root the ratios degenerate to the infinite patterns).
    """
    if not 0.0 < w <= 1.0:
        raise DomainError("log-ratios require w in (0, 1]")
    if tree.root in boundary.colors:
        raise DomainError("log-ratios are undefined when the root is pinned "
                          "(a pinned vertex has the infinite patterns)")
    table = _dp_tables(tree, q, w, boundary, None)
    root = table[tree.root]
    return root[: q - 1] - root[q - 1]


def conditional_root_distribution(tree: TreeSpec, q: int, w: float,
                                  boundary: BoundaryCondition) -> np.ndarray:
    """Distribution of the root color conditioned on the boundary."""
    if not 0.0 < w <= 1.0:
        raise DomainError("the conditional distribution requires w in (0, 1]")
    table = _dp_tables(tree, q, w, boundary, None)
    root = table[tree.root]
    p = np.exp(root - root.max())
    return p / p.sum()


def max_uniform_deviation(p: np.ndarray) -> float:
    """``max_i |p_i - 1/q|`` — distance of a color law from uniform."""
    p = np.asarray(p, dtype=float)
    return float(np.abs(p - 1.0 / len(p)).max())


def recursion_root_log_ratios(q: int, d: int, n: int, w: float, leaf_colors) -> np.ndarray:
    """Root log-ratios of the regular tree via the recursion-map pipeline.

    Leaves are seeded with their depth-0 patterns and messages are combined
    level by level with the one-child map; leaf multiplicities are compressed
    to per-parent color counts so only the map evaluations remain.  Agreement
    with :func:`root_log_ratios` is the core correctness check.
    """
    params = ModelParams.from_weight(q, d, w)
    if params.w <= 0.0:
        raise DomainError("the recursion pipeline requires w > 0")
    if n < 1:
        raise DomainError("depth must be >= 1")
    leaf_colors = np.asarray(leaf_colors, dtype=int)
    if leaf_colors.shape != (d**n,):
        raise DomainError(f"need {d**n} leaf colors, got shape {leaf_colors.shape}")
    if leaf_colors.min() < 1 or leaf_colors.max() > q:
        raise DomainError("leaf colors must lie in 1..q")
    # Depth n-1: each parent sees a color multiset.
    groups = leaf_colors.reshape(-1, d)
    counts = np.stack([(groups == c).sum(axis=1) for c in range(1, q + 1)], axis=1)
    level = leaf_counts_log_ratios(counts, params)
    # Depths n-2 .. 0: plain batched recursion steps.
    for _ in range(n - 1):
        level = log_ratio_map(level, params).reshape(-1, d, q - 1).mean(axis=1)
    assert level.shape == (1, q - 1)
    return level[0]


def enumerate_log_ratio_sets(n: int, d: int, q: int, w: float,
                             max_states: int = 200_000) -> np.ndarray:
    """All log-ratio vectors achievable at depth ``n`` of the regular tree.

    Works level by level: the depth-1 set is indexed by leaf color counts,
    and each further level by size-``d`` multisets of the previous level
    (boundary conditions only enter through such multisets).  Vectors are
    deduplicated at 1e-12 resolution.  Guarded by hard caps on ``n, d, q``
    and by a predicted per-level state budget.
    """
    if not (1 <= n <= 3 and 2 <= d <= 4 and 3 <= q <= 4):
        raise BudgetError(f"enumeration supports n<=3, d<=4, q<=4; got n={n}, d={d}, q={q}")
    params = ModelParams.from_weight(q, d, w)
    if params.w <= 0.0:
        raise DomainError("enumeration requires w > 0")
    counts = np.array([k for k in itertools.product(range(d + 1), repeat=q)
                       if sum(k) == d])
    level = _dedup(leaf_counts_log_ratios(counts, params))
    for _ in range(n - 1):
        m = len(level)
        predicted = math.comb(m + d - 1, d)
        if predicted > max_states:
            raise BudgetError(f"{predicted} multisets at the next level exceed "
                              f"the state budget {max_states}")
        mapped = log_ratio_map(level, params)
        combos = np.array(list(itertools.combinations_with_replacement(range(m), d)))
        level = _dedup(mapped[combos].mean(axis=1))
    return level


def _dedup(rows: np.ndarray) -> np.ndarray:
    rounded = np.round(rows, 12) + 0.0  # +0.0 folds -0.0 into 0.0 for the byte view
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return rows[np.sort(keep)]
