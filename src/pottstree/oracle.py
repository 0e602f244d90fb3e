"""Exact partition-function oracles and recursion cross-checks.

Everything here computes ground truth the slow way so the recursion maps can
be validated against it:

* :func:`brute_force_Z` enumerates colorings outright (vectorized in chunks);
* :func:`dp_log_Z` runs a leaf-to-root dynamic program in log space, exact up
  to floating point for trees far beyond enumeration range.  It is one pass
  per level of the regular :class:`TreeSpec`, deepest first, on colour-major
  ``(q, width)`` arrays, and holds only two levels at a time, so its memory
  grows with the widest level; each vertex adds its children's messages in
  order, as strided slices of the level below, so the root row is bitwise
  that of a loop over the vertices.  A level whose every vertex is pinned
  (the leaves, under a full boundary) sends its messages in closed form,
  with the same bits;
* :func:`root_log_ratios` / :func:`conditional_root_distribution` derive the
  quantities the recursion predicts, straight from the dynamic program, and
  :func:`root_summary` gives both with ``log Z`` from a single pass.  A query
  runs at most one pass: the boundary keeps the root row of its last
  ``(tree, q, w)``, read-only, so :func:`dp_log_Z` and these three answer a
  repeat of that query from it;
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
from .maps import _colour_reduce, leaf_counts_log_ratios, log_ratio_map
from .params import ModelParams
from .reporting import check_integers
from .trees import BoundaryCondition, TreeSpec, _integers, _power_over_2_64, regular_size

BRUTE_FORCE_BUDGET = 10_000_000
BRUTE_FORCE_CHUNK = 200_000
DP_VERTEX_BUDGET = 1_000_000
#: Most multisets one level of :func:`enumerate_log_ratio_sets` may form.
ENUMERATION_STATE_BUDGET = 200_000
#: The boundary of a query that pins nothing; a boundary is immutable, so one is shared.
_FREE = BoundaryCondition()


def _check_query(q: int, w: float) -> None:
    """Refuse a query whose ``q`` or ``w`` lies outside the oracles' domain."""
    if not (isinstance(q, (int, np.integer)) and q >= 2):
        raise DomainError(f"q must be an integer >= 2, got {q!r}")
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"w must lie in [0, 1], got {w!r}")


def _collect_pins(tree: TreeSpec, q: int, boundary: BoundaryCondition) -> np.ndarray:
    """Validate a query's pins and return its per-vertex pin array.

    Entry ``v`` is the color pinned onto vertex ``v``, or 0 if ``v`` is free.
    """
    pins = np.zeros(tree.n_vertices, dtype=np.min_scalar_type(q))
    # range-checked in the boundary's own dtypes: in the pin dtype an
    # out-of-range color or vertex could wrap around to a valid one
    vertices, colors = boundary.pins
    bad_vertex = (vertices < 0) | (vertices >= tree.n_vertices)
    bad = bad_vertex | (colors < 1) | (colors > q)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_vertex[i]:
            raise DomainError(f"pinned vertex {vertices[i]} not in tree")
        raise DomainError(f"color {colors[i]} for vertex {vertices[i]} outside 1..{q}")
    pins[vertices] = colors
    return pins


def brute_force_Z(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition = _FREE) -> float:
    """Partition function by direct enumeration of all free-vertex colorings."""
    _check_query(q, w)
    pins = _collect_pins(tree, q, boundary)
    free = np.flatnonzero(pins == 0)
    # q >= 2, so an exponent of the budget's bit length is already over it: the power stays short
    if q ** min(len(free), BRUTE_FORCE_BUDGET.bit_length()) > BRUTE_FORCE_BUDGET:
        raise BudgetError(f"{q}**{len(free)} colorings exceed the enumeration budget "
                          f"BRUTE_FORCE_BUDGET={BRUTE_FORCE_BUDGET}")
    total = q ** len(free)
    child = np.arange(1, tree.n_vertices)
    parents = (child - 1) // tree.d
    z = 0.0
    for lo in range(0, total, BRUTE_FORCE_CHUNK):
        idx = np.arange(lo, min(lo + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        cols = np.repeat(pins[:, None], len(idx), axis=1)  # cols[v]: v's color in each coloring
        for v in free:  # the j-th free vertex takes base-q digit j of the coloring's index
            cols[v] = idx % q + 1
            idx //= q
        mono = np.zeros(len(idx), dtype=np.int32)
        for a, b in zip(parents, child):
            mono += cols[a] == cols[b]
        z += float(np.power(float(w), mono).sum())
    return z


def dp_log_Z(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition = _FREE) -> float:
    """``log Z`` by the leaf-to-root dynamic program.

    Each message is normalized by its largest entry, so depth and size are
    limited only by the vertex budget, not by float range.  The pass runs
    level by level, deepest first, on colour-major ``(q, width)`` arrays and
    holds only a level and the one below it, so its memory grows with the
    widest level, not with the tree.  Child slot ``s`` adds the message of
    every vertex's ``s``-th child, so a vertex sums its children in order,
    bitwise as a loop over the vertices.  A level whose every vertex is
    pinned sends its messages in closed form, with the bits of the general
    formula: a vertex pinned to ``c`` sends ``L_c`` on every colour and
    ``L_c + log(w)`` on ``c``, the log taken of ``1 - (1 - w)`` as that
    formula rounds it.
    Returns ``-inf`` when no compatible coloring has positive weight
    (possible only at ``w = 0``).
    """
    return _logsumexp(_root_row(tree, q, w, boundary))


def _root_row(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition) -> np.ndarray:
    """:func:`_dp_tables`'s root row, read-only, kept on ``boundary`` for its last query.

    ``q`` and ``w`` are checked before the lookup, so a repeat of a query
    is refused exactly as a first one is.  A boundary and a tree are
    immutable, so the kept row cannot go stale; the boundary keeps one row,
    that of the last ``(tree, q, w)`` it was asked about.
    """
    _check_query(q, w)
    key = (tree, q, w)
    last = vars(boundary).get("_last_root_row")
    if last is not None and last[0] == key:
        return last[1]
    row = _dp_tables(tree, q, w, boundary)
    row.setflags(write=False)
    vars(boundary)["_last_root_row"] = (key, row)  # as cached_property stores ``pins``
    return row


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


def _dp_tables(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition) -> np.ndarray:
    """The root's row ``L[i] = log Z(tree | root colored i+1)``.

    ``table[:, j]`` is that row for the ``j``-th vertex of the current level.
    The level below is turned into its messages in place, in closed form
    when every vertex of it is pinned; child ``s`` of vertex ``j`` is message
    ``j*d + s``, so child slot ``s`` adds the strided slice ``[:, s::d]`` into
    the whole level in one call; the add is elementwise, so each entry sums
    its children in slot order.  Pinned vertices keep only their colour's
    entry.  A fully pinned level below the root skips that mask: its closed
    form reads only that entry.  The vertex budget is checked before any
    per-vertex array, and ``q`` and ``w`` by the caller, :func:`_root_row`.
    """
    _check_dp_budget(tree.n_vertices)
    pins = _collect_pins(tree, q, boundary)
    d = tree.d
    below = below_pins = None  # the deepest level has no children
    for depth in reversed(range(tree.n + 1)):
        level = tree.level(depth)
        table = np.zeros((q, len(level)))
        if below is not None:
            if below_pins.all():
                _pinned_messages_in_place(below, below_pins, w)
            else:
                _messages_in_place(below, w)
            for s in range(d):
                table += below[:, s::d]
        pinned = pins[level.start:level.stop]
        if depth == 0 or not pinned.all():
            _mask_pins(table, pinned)
        below, below_pins = table, pinned
    return below[:, 0]


def _mask_pins(table: np.ndarray, pinned: np.ndarray) -> None:
    """Set each pinned column of a level to ``-inf`` off its colour's entry."""
    cols = np.flatnonzero(pinned)
    if len(cols):
        colours = pinned[cols]
        for colour, row in enumerate(table, start=1):
            row[cols[colours != colour]] = -np.inf


def _pinned_messages_in_place(logs: np.ndarray, pinned: np.ndarray, w: float) -> None:
    """:func:`_messages_in_place` for a level whose every vertex is pinned.

    Vertex ``j`` pinned to colour ``c`` sends ``L_c + 0.0`` on every colour
    and ``L_c + log(1 - (1 - w))`` on colour ``c``, with ``L_c = logs[c-1, j]``:
    the bits :func:`_messages_in_place` gives a column whose one finite entry
    is ``L_c`` (there ``exp`` gives 1 and 0, the colour sum 1, and ``1 - (1 - w)``
    the pinned colour), and ``-inf`` everywhere when ``L_c`` is.  The other
    entries of a column are never read, so they need no mask.
    """
    with np.errstate(divide="ignore"):
        own = np.log(np.float64(1.0 - (1.0 - w)))
    for colour, own_row in enumerate(logs, start=1):
        # the columns pinned to this colour; the other colours' columns are disjoint
        at = np.flatnonzero(pinned == colour)
        entry = own_row[at]
        sent = entry + 0.0
        # one row at a time: a 2-D ``logs[:, at] = sent`` took 1.35 ms against
        # 0.93 ms at q=3 on 3**10 leaves (2-core Xeon), though at q=300 these
        # q*q row writes take 10x its time
        for row in logs:
            row[at] = sent
        own_row[at] = entry + own


def _messages_in_place(logs: np.ndarray, w: float) -> None:
    """Overwrite a colour-major level of log-tables with the messages its
    vertices send up, ``m + log(sum_j w**[i==j] * exp(logs_j - m))`` for all
    ``i``: ``m`` is a column's max (exact in any order), and the sum has
    numpy's row-sum bits."""
    m = logs.max(axis=0)
    # An all -inf column (w = 0 conflict) gets m = 0: exp gives 0 and
    # log(0) = -inf, so its message is the -inf column.
    m[m == -np.inf] = 0.0
    np.subtract(logs, m, out=logs)
    np.exp(logs, out=logs)
    total = _colour_reduce(np.add, logs)
    np.multiply(logs, 1.0 - w, out=logs)
    np.subtract(total, logs, out=logs)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    np.add(m, logs, out=logs)


def _check_dp_budget(n_vertices: int) -> None:
    if n_vertices > DP_VERTEX_BUDGET:
        raise BudgetError(f"{n_vertices} vertices exceed the dp budget "
                          f"DP_VERTEX_BUDGET={DP_VERTEX_BUDGET}")


def _check_regular_dp_budget(d: int, n: int) -> None:
    """:func:`_check_dp_budget` for ``TreeSpec.regular(d, n)``, before it is built."""
    if _power_over_2_64(d, n):  # the exact vertex count would be too long to form or print
        raise BudgetError(f"a depth-{n} tree with down-degree {d} has more than 2**64 vertices, "
                          f"over the dp budget DP_VERTEX_BUDGET={DP_VERTEX_BUDGET}")
    _check_dp_budget(regular_size(d, n))


def root_summary(tree: TreeSpec, q: int, w: float, boundary: BoundaryCondition
                 ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``log Z``, the conditional root law, the root log-ratios and the root
    row ``log Z(root colored i+1)``, from one DP pass.

    The same values as :func:`dp_log_Z`, :func:`conditional_root_distribution`
    and :func:`root_log_ratios`, under the latter's requirements; entry
    ``c-1`` of the row is ``log Z`` with the root pinned to ``c``, the
    :func:`dp_log_Z` of the boundary plus that pin.  The row is the one the
    boundary keeps for this query, so it is read-only.
    """
    if not 0.0 < w <= 1.0:
        raise DomainError(f"log-ratios require w in (0, 1], got w={w}")
    if tree.root in boundary.colors:
        raise DomainError("log-ratios are undefined when the root is pinned")
    root = _root_row(tree, q, w, boundary)
    return _logsumexp(root), _root_law(root), root[: q - 1] - root[q - 1], root


def root_log_ratios(tree: TreeSpec, q: int, w: float,
                    boundary: BoundaryCondition) -> np.ndarray:
    """Exact log-ratio vector of the root: ``log Z_i - log Z_q`` for i < q.

    Requires ``w > 0`` and a root that is not itself a boundary vertex (a
    pinned root has no finite log-ratio vector).
    """
    return root_summary(tree, q, w, boundary)[2]


def conditional_root_distribution(tree: TreeSpec, q: int, w: float,
                                  boundary: BoundaryCondition) -> np.ndarray:
    """Distribution of the root color conditioned on the boundary."""
    if not 0.0 < w <= 1.0:
        raise DomainError(f"the conditional distribution requires w in (0, 1], got w={w}")
    return _root_law(_root_row(tree, q, w, boundary))


def _root_law(root: np.ndarray) -> np.ndarray:
    p = np.exp(root - root.max())
    return p / p.sum()


def recursion_root_log_ratios(q: int, d: int, n: int, w: float, leaf_colors) -> np.ndarray:
    """Root log-ratios of the regular tree via the recursion-map pipeline.

    Leaves enter through their pattern images (:func:`maps.pattern_image`),
    compressed to per-parent color counts; messages are then combined level
    by level with the one-child map.  Agreement with :func:`root_log_ratios`
    is the core correctness check.
    """
    params = ModelParams.from_weight(q, d, w)
    check_integers(d=d, n=n)
    if n < 1:
        raise DomainError("depth must be >= 1")
    leaf_colors = _integers(leaf_colors, "leaf color {} is not an integer")
    if _power_over_2_64(d, n):  # no array holds that many colors; the power is too long to print
        raise DomainError(f"need {d}**{n} leaf colors, got shape {leaf_colors.shape}")
    if leaf_colors.shape != (d**n,):
        raise DomainError(f"need {d**n} leaf colors, got shape {leaf_colors.shape}")
    if leaf_colors.min() < 1 or leaf_colors.max() > q:
        raise DomainError("leaf colors must lie in 1..q")
    # Depth n-1: each parent sees a color multiset, counted in slot parent*q + color-1
    # of one bincount (colors cast to int64 first: uint64 and int64 mix to float).
    slots = (np.arange(d**n) // d) * q + (leaf_colors.astype(np.int64) - 1)
    counts = np.bincount(slots, minlength=d**(n - 1) * q).reshape(-1, q)
    level = leaf_counts_log_ratios(counts, params)
    # Depths n-2 .. 0: plain batched recursion steps.
    for _ in range(n - 1):
        level = log_ratio_map(level, params).reshape(-1, d, q - 1).mean(axis=1)
    assert level.shape == (1, q - 1)
    return level[0]


def enumerate_log_ratio_sets(n: int, d: int, q: int, w: float) -> np.ndarray:
    """All log-ratio vectors achievable at depth ``n`` of the regular tree.

    Works level by level: the depth-1 set is indexed by leaf color counts,
    and each further level by size-``d`` multisets of the previous level
    (boundary conditions only enter through such multisets).  Vectors are
    deduplicated at 1e-12 resolution.  Guarded by hard caps on ``n, d, q``
    and by the predicted per-level state budget ``ENUMERATION_STATE_BUDGET``.
    """
    if not (1 <= n <= 3 and 2 <= d <= 4 and 3 <= q <= 4):
        raise BudgetError(f"enumeration supports n<=3, d<=4, q<=4; got n={n}, d={d}, q={q}")
    params = ModelParams.from_weight(q, d, w)
    counts = np.array([k for k in itertools.product(range(d + 1), repeat=q)
                       if sum(k) == d])
    level = _dedup(leaf_counts_log_ratios(counts, params))
    for _ in range(n - 1):
        m = len(level)
        predicted = math.comb(m + d - 1, d)
        if predicted > ENUMERATION_STATE_BUDGET:
            raise BudgetError(f"{predicted} multisets at the next level exceed "
                              f"the state budget {ENUMERATION_STATE_BUDGET}")
        mapped = log_ratio_map(level, params)
        combos = np.array(list(itertools.combinations_with_replacement(range(m), d)))
        level = _dedup(mapped[combos].mean(axis=1))
    return level


def _dedup(rows: np.ndarray) -> np.ndarray:
    rounded = np.round(rows, 12) + 0.0  # +0.0 folds -0.0 into 0.0 for the byte view
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return rows[np.sort(keep)]
