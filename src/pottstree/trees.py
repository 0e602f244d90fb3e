"""Rooted trees and boundary conditions for the exact oracles.

The canonical instance is the regular rooted tree of depth ``n`` in which the
root and every internal vertex have exactly ``d`` children (the root of the
(d+1)-regular tree with one neighbor removed).  Vertices are integers in BFS
order starting at the root, so the ``d**n`` leaves are the final block of
indices; "leaf index k" always refers to this BFS order.

:class:`TreeSpec` owns the layout: it builds the BFS levels and child counts
once, the arrays from which its traversals and the exact DP read every child.

Boundary conditions pin the leaves to colors ``1..q``.  The on-disk format is
a plain text file:

    q d n
    <leaf_index> <color>
    ...

with one line per leaf (all ``d**n`` leaves must appear exactly once; blank
lines and ``#`` comments are ignored).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError


@dataclass(frozen=True)
class TreeSpec:
    """An explicit rooted tree given by per-vertex child tuples.

    Laid out once in int32 arrays: ``counts[v]`` is the number of children of
    ``v``, and ``levels[k]`` the vertices at depth ``k``, each vertex's
    children one block in tuple order, the blocks in ``levels[k - 1]``'s order.
    """

    children: tuple[tuple[int, ...], ...]
    root: int = 0
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    levels: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.children)
        if not 0 <= self.root < n:
            raise DomainError(f"root {self.root} out of range for {n} vertices")
        counts = np.fromiter(map(len, self.children), np.int32, n)
        flat = _int64s(lambda: itertools.chain.from_iterable(self.children), int(counts.sum()))
        bad = (flat < 0) | (flat >= n)
        if bad.any():
            c = next(itertools.islice(itertools.chain.from_iterable(self.children), bad.argmax(), None))
            raise DomainError(f"child index {c} out of range")
        two = np.bincount(np.append(flat, self.root), minlength=n) > 1
        if two.any():
            raise DomainError(f"vertex {two.argmax()} has two parents (not a tree)")
        # every vertex has at most one parent and the root none, so the walk ends
        levels = _bfs_levels(self.root, counts, flat.astype(np.int32))
        if sum(map(len, levels)) != n:
            raise DomainError("children lists do not describe a single rooted tree")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    @property
    def n_edges(self) -> int:
        return len(self.children) - 1

    def leaves(self) -> list[int]:
        return np.flatnonzero(self.counts == 0).tolist()

    def edges(self) -> list[tuple[int, int]]:
        return [(v, c) for v, ch in enumerate(self.children) for c in ch]

    def depths(self) -> np.ndarray:
        """Depth of every vertex (root = 0)."""
        depth = np.empty(self.n_vertices, dtype=int)
        for k, level in enumerate(self.levels):
            depth[level] = k
        return depth

    def topological_order(self) -> list[int]:
        """Vertices in an order where parents precede children (BFS)."""
        return np.concatenate(self.levels).tolist()

    @classmethod
    def regular(cls, d: int, n: int) -> "TreeSpec":
        """Depth-``n`` tree with down-degree ``d`` everywhere, BFS-numbered."""
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise DomainError(f"down-degree d must be an integer >= 1, got {d!r}")
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise DomainError(f"depth n must be an integer >= 0, got {n!r}")
        # row v of the zipped ranges is vertex v's children, d*v + 1 .. d*v + d
        total = sum(d**k for k in range(n + 1))
        return cls(tuple(zip(*(range(s, total, d) for s in range(1, d + 1)))) + ((),) * d**n)


def _int64s(values, count: int) -> np.ndarray:
    """``values()`` as int64, ints beyond int64 as -1: every caller's range
    check then rejects them, where numpy would raise ``OverflowError``."""
    try:
        return np.fromiter(values(), np.int64, count)
    except OverflowError:
        return np.fromiter((v if -2**63 <= v < 2**63 else -1 for v in values()), np.int64, count)


def _bfs_levels(root: int, counts: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """The vertices at each depth, each parent's children in tuple order."""
    first = np.cumsum(counts) - counts
    levels = [np.array([root], dtype=np.int32)]
    while True:
        k = counts[levels[-1]]
        size = int(k.sum())
        if not size:
            return levels
        # child j of the concatenation is flat[first[parent] + j - start[parent]]
        start = np.cumsum(k) - k
        idx = np.repeat(first[levels[-1]] - start, k)
        idx += np.arange(size)
        levels.append(flat[idx])


@dataclass
class BoundaryCondition:
    """Colors (in ``1..q``) pinned onto a subset of vertices, usually leaves."""

    colors: dict[int, int] = field(default_factory=dict)

    @classmethod
    def monochromatic(cls, tree: TreeSpec, color: int) -> "BoundaryCondition":
        return cls({v: color for v in tree.leaves()})

    @classmethod
    def from_leaf_colors(cls, tree: TreeSpec, leaf_colors) -> "BoundaryCondition":
        """Assign ``leaf_colors[k]`` to the k-th leaf in BFS order."""
        leaves = tree.leaves()
        if len(leaf_colors) != len(leaves):
            raise DomainError(
                f"got {len(leaf_colors)} colors for {len(leaves)} leaves"
            )
        return cls({v: int(c) for v, c in zip(leaves, leaf_colors)})

    @classmethod
    def random(cls, tree: TreeSpec, q: int, rng: np.random.Generator) -> "BoundaryCondition":
        leaves = tree.leaves()
        draws = rng.integers(1, q + 1, size=len(leaves))
        return cls({v: int(c) for v, c in zip(leaves, draws)})


@dataclass(frozen=True)
class BoundaryFile:
    """Parsed contents of a boundary-condition file."""

    q: int
    d: int
    n: int
    leaf_colors: tuple[int, ...]

    def tree(self) -> TreeSpec:
        return TreeSpec.regular(self.d, self.n)


def read_boundary_file(path) -> BoundaryFile:
    """Parse a boundary-condition file, reporting 1-based line numbers on error."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [(i + 1, ln.split("#", 1)[0].strip()) for i, ln in enumerate(raw)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError("empty boundary file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"header must be 'q d n', got {header!r}", line=no)
    try:
        q, d, n = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"header fields must be integers, got {header!r}", line=no)
    if q < 3:
        raise ParseError(f"q must be >= 3, got {q}", line=no)
    if d < 1:
        raise ParseError(f"d must be >= 1, got {d}", line=no)
    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", line=no)
    n_leaves = d**n
    colors: list[int | None] = [None] * n_leaves
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<leaf_index> <color>', got {ln!r}", line=no)
        try:
            idx, color = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"fields must be integers, got {ln!r}", line=no)
        if not 0 <= idx < n_leaves:
            raise ParseError(f"leaf index {idx} outside 0..{n_leaves - 1}", line=no)
        if not 1 <= color <= q:
            raise ParseError(f"color {color} outside 1..{q}", line=no)
        if colors[idx] is not None:
            raise ParseError(f"leaf {idx} assigned twice", line=no)
        colors[idx] = color
    missing = [i for i, c in enumerate(colors) if c is None]
    if missing:
        raise ParseError(f"missing colors for {len(missing)} leaves (first: {missing[0]})")
    return BoundaryFile(q, d, n, tuple(colors))


def write_boundary_file(path, q: int, d: int, n: int, leaf_colors) -> None:
    leaf_colors = list(leaf_colors)
    if len(leaf_colors) != d**n:
        raise DomainError(f"need {d**n} leaf colors, got {len(leaf_colors)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{q} {d} {n}\n")
        for i, c in enumerate(leaf_colors):
            fh.write(f"{i} {int(c)}\n")
