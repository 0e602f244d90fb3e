"""Exact partition-function oracles and recursion cross-checks.

Everything here computes ground truth the slow way so the recursion maps can
be validated against it:

* :func:`brute_force_Z` enumerates colorings outright (vectorized in chunks);
* :func:`dp_log_Z` runs a leaf-to-root dynamic program in log space, exact up
  to floating point for trees far beyond enumeration range.  It is one array
  pass per (level, child slot) of the :class:`TreeSpec` layout, deepest first;
  each vertex adds its children's messages in tuple order, so the tables are
  bitwise those of a loop over the vertices, on regular and irregular trees alike;
* :func:`root_log_ratios` / :func:`conditional_root_distribution` derive the
  quantities the recursion predicts, straight from the dynamic program, and
  :func:`root_summary` gives both with ``log Z`` from a single pass;
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
from .trees import BoundaryCondition, TreeSpec, _int64s

BRUTE_FORCE_BUDGET = 10_000_000
BRUTE_FORCE_CHUNK = 200_000
DP_VERTEX_BUDGET = 1_000_000


def _collect_pins(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition | None,
                  pinned_root: int | None) -> np.ndarray:
    """Validate an oracle query and return its per-vertex pin array.

    Entry ``v`` is the color pinned onto vertex ``v``, or 0 if ``v`` is free.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 2):
        raise DomainError(f"q must be an integer >= 2, got {q!r}")
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"w must lie in [0, 1], got {w!r}")
    pins = np.zeros(tree.n_vertices, dtype=np.min_scalar_type(q))
    if boundary is not None:
        # range-check as int64: in the pin dtype an out-of-range color or
        # vertex could wrap around to a valid one
        k = len(boundary.colors)
        vertices = _int64s(boundary.colors.keys, k)
        colors = _int64s(boundary.colors.values, k)
        bad_vertex = (vertices < 0) | (vertices >= tree.n_vertices)
        bad = bad_vertex | (colors < 1) | (colors > q)
        if bad.any():
            i = int(np.argmax(bad))
            vertex, color = next(itertools.islice(boundary.colors.items(), i, None))
            if bad_vertex[i]:
                raise DomainError(f"pinned vertex {vertex} not in tree")
            raise DomainError(f"color {color} for vertex {vertex} outside 1..{q}")
        pins[vertices] = colors
    if pinned_root is not None:
        if not 1 <= pinned_root <= q:
            raise DomainError(f"root color {pinned_root} outside 1..{q}")
        if pins[tree.root] not in (0, pinned_root):
            raise DomainError("root pinned to conflicting colors")
        pins[tree.root] = pinned_root
    return pins


def brute_force_Z(tree: TreeSpec, q: int, w: float,
                  boundary: BoundaryCondition | None = None,
                  pinned_root: int | None = None) -> float:
    """Partition function by direct enumeration of all free-vertex colorings."""
    pins = _collect_pins(tree, q, w, boundary, pinned_root)
    free = np.flatnonzero(pins == 0)
    total = q ** len(free)
    if total > BRUTE_FORCE_BUDGET:
        raise BudgetError(f"{total} colorings exceed the enumeration budget {BRUTE_FORCE_BUDGET}")
    base = pins.astype(np.int16)
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
    size are limited only by the vertex budget, not by float range.  Each
    depth is one array operation per child slot: slot ``s`` adds the message
    of the ``s``-th child of every vertex that has one, so a vertex sums its
    children in tuple order and the result does not depend on how the tree
    is numbered or batched.  Returns ``-inf`` when no compatible coloring has
    positive weight (possible only at ``w = 0``).
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
    """Per-vertex arrays ``L[v][i] = log Z(subtree of v | v colored i+1)``.

    Deepest level first, one pass per child slot (see :func:`dp_log_Z`).
    """
    pins = _collect_pins(tree, q, w, boundary, pinned_root)
    if tree.n_vertices > DP_VERTEX_BUDGET:
        raise BudgetError(f"{tree.n_vertices} vertices exceed the dp budget "
                          f"DP_VERTEX_BUDGET={DP_VERTEX_BUDGET}")
    table = np.zeros((tree.n_vertices, q))
    below = None  # the deepest level has no children
    for level in reversed(tree.levels):
        _add_child_messages(table, level, below, tree.counts, w)
        _pin_rows(table, level, pins)
        below = level
    return table


def _add_child_messages(table: np.ndarray, parents: np.ndarray, below: np.ndarray | None,
                        counts: np.ndarray, w: float) -> None:
    """Add the messages of ``below``, the next level, into their parents' rows,
    one child slot at a time (the block layout of :class:`TreeSpec`)."""
    k = counts[parents]
    start = np.cumsum(k) - k
    for s in itertools.count():
        keep = k > s
        parents, k, start = parents[keep], k[keep], start[keep]
        if not len(parents):
            return
        msg = table[below[start + s]]
        m = msg.max(axis=1, keepdims=True)
        # An all -inf child (w = 0 conflict) gets m = 0: exp gives 0 and
        # log(0) = -inf, so its message is the -inf row.
        m[m == -np.inf] = 0.0
        # m + log(sum_j w**[i==j] * exp(msg_j - m)), for all i at once
        np.subtract(msg, m, out=msg)
        np.exp(msg, out=msg)
        total = msg.sum(axis=1, keepdims=True)
        np.multiply(msg, 1.0 - w, out=msg)
        np.subtract(total, msg, out=msg)
        with np.errstate(divide="ignore"):
            np.log(msg, out=msg)
        np.add(m, msg, out=msg)
        msg += table[parents]
        table[parents] = msg


def _pin_rows(table: np.ndarray, level: np.ndarray, pins: np.ndarray) -> None:
    """Set every entry but the pinned color's to -inf in the rows of pinned vertices."""
    pinned = level[pins[level] > 0]
    color = pins[pinned] - 1
    keep = table[pinned, color]
    table[pinned] = -np.inf
    table[pinned, color] = keep


def root_summary(tree: TreeSpec, q: int, w: float,
                 boundary: BoundaryCondition) -> tuple[float, np.ndarray, np.ndarray]:
    """``log Z``, the conditional root law and the root log-ratios, from one DP pass.

    The same values as :func:`dp_log_Z`, :func:`conditional_root_distribution`
    and :func:`root_log_ratios`, under the latter's requirements.
    """
    if not 0.0 < w <= 1.0:
        raise DomainError(f"log-ratios require w in (0, 1], got w={w}")
    if tree.root in boundary.colors:
        raise DomainError("log-ratios are undefined when the root is pinned "
                          "(a pinned vertex has the infinite patterns)")
    root = _dp_tables(tree, q, w, boundary, None)[tree.root]
    return _logsumexp(root), _root_law(root), root[: q - 1] - root[q - 1]


def root_log_ratios(tree: TreeSpec, q: int, w: float,
                    boundary: BoundaryCondition) -> np.ndarray:
    """Exact log-ratio vector of the root: ``log Z_i - log Z_q`` for i < q.

    Requires ``w > 0`` and a root that is not itself a boundary vertex (for a
    pinned root the ratios degenerate to the infinite patterns).
    """
    return root_summary(tree, q, w, boundary)[2]


def conditional_root_distribution(tree: TreeSpec, q: int, w: float,
                                  boundary: BoundaryCondition) -> np.ndarray:
    """Distribution of the root color conditioned on the boundary."""
    if not 0.0 < w <= 1.0:
        raise DomainError("the conditional distribution requires w in (0, 1]")
    return _root_law(_dp_tables(tree, q, w, boundary, None)[tree.root])


def _root_law(root: np.ndarray) -> np.ndarray:
    p = np.exp(root - root.max())
    return p / p.sum()


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
