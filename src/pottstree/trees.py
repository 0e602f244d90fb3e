"""Rooted trees and boundary conditions for the exact oracles.

The canonical instance is the regular rooted tree of depth ``n`` in which the
root and every internal vertex have exactly ``d`` children (the root of the
(d+1)-regular tree with one neighbor removed).  Vertices are integers in BFS
order starting at the root, so the ``d**n`` leaves are the final block of
indices; "leaf index k" always refers to this BFS order.

:class:`TreeSpec` holds a tree only as int32 arrays (the child counts, the
children, and the BFS levels from which the exact DP reads every child).

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
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DomainError, ParseError

#: Most vertices a :class:`TreeSpec` can hold: its arrays index vertices with int32.
MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True, eq=False)
class TreeSpec:
    """A rooted tree, checked and laid out in int32 arrays.

    ``counts[v]`` is the number of children of ``v``; ``child`` lists them
    vertex by vertex, each vertex's in order.  ``levels[k]`` is the vertices
    at depth ``k``, each vertex's children one block in that order, the blocks
    in ``levels[k - 1]``'s order.  Built by :meth:`regular` or :meth:`from_children`.
    """

    counts: np.ndarray
    child: np.ndarray
    root: int = 0
    levels: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.counts)
        if not 0 <= self.root < n:
            raise DomainError(f"root {self.root} out of range for {n} vertices")
        counts, child = np.asarray(self.counts), np.asarray(self.child)
        if counts.min() < 0 or counts.sum() != len(child):
            raise DomainError(f"child counts do not match the {len(child)} children")
        if len(child) and not 0 <= child.min() <= child.max() < n:
            raise DomainError(f"child index {child[(child < 0) | (child >= n)][0]} out of range")
        seen = np.zeros(n, dtype=bool)
        seen[child] = True
        if seen[self.root] or np.count_nonzero(seen) < len(child):
            two = np.bincount(np.append(child, self.root), minlength=n) > 1
            raise DomainError(f"vertex {two.argmax()} has two parents (not a tree)")
        object.__setattr__(self, "counts", counts.astype(np.int32, copy=False))
        object.__setattr__(self, "child", child.astype(np.int32, copy=False))
        # every vertex has at most one parent and the root none, so the walk ends
        levels = _bfs_levels(self.root, self.counts, self.child)
        if sum(map(len, levels)) != n:
            raise DomainError("children lists do not describe a single rooted tree")
        object.__setattr__(self, "levels", tuple(levels))

    @classmethod
    def from_children(cls, children, root: int = 0) -> "TreeSpec":
        """The tree in which vertex ``v`` has the children ``children[v]``, in order."""
        counts = np.fromiter(map(len, children), np.int32, len(children))
        child = _int64s(lambda: itertools.chain.from_iterable(children), counts.sum())
        return cls(counts, child, root)

    @classmethod
    def regular(cls, d: int, n: int) -> "TreeSpec":
        """Depth-``n`` tree with down-degree ``d`` everywhere, BFS-numbered."""
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise DomainError(f"down-degree d must be an integer >= 1, got {d!r}")
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise DomainError(f"depth n must be an integer >= 0, got {n!r}")
        d, n = int(d), int(n)
        if _power_over_2_64(d, n):  # the exact vertex count would be too long to form or print
            raise DomainError(f"a depth-{n} tree with down-degree {d} has more than 2**64 "
                              "vertices, over the int32 layout limit of 2**31 - 1 vertices")
        total = regular_size(d, n)
        if total > MAX_VERTICES:
            raise DomainError(f"{total} vertices exceed the int32 layout limit of "
                              "2**31 - 1 vertices")
        # vertex v's children are d*v + 1 .. d*v + d, so the child array is 1 .. total - 1
        counts = np.zeros(total, np.int32)
        counts[: total - d**n] = d
        return cls(counts, np.arange(1, total, dtype=np.int32))

    @property
    def n_vertices(self) -> int:
        return len(self.counts)

    def leaves(self) -> list[int]:
        return _leaf_vertices(self).tolist()


def regular_size(d: int, n: int) -> int:
    """The number of vertices of ``TreeSpec.regular(d, n)``."""
    return n + 1 if d == 1 else (d ** (n + 1) - 1) // (d - 1)


def _power_over_2_64(d: int, n: int) -> bool:
    """Whether bit lengths alone show ``d**n > 2**64``, without forming the power.

    When this is False, ``d**n < 2**128`` for every ``d >= 1``, so the exact
    power is cheap to form and print.
    """
    return n * (d.bit_length() - 1) > 64


def _int64s(values, count: int) -> np.ndarray:
    """``values()`` as int64; as exact Python ints if one overflows, for range checks to name it."""
    try:
        return np.fromiter(values(), np.int64, count)
    except OverflowError:
        return np.fromiter(values(), object, count)


def _index(value, message: str) -> int:
    """``value`` as an exact int if it is a Python or numpy integer; otherwise a
    :class:`DomainError` with the message ``message.format(repr(value))``."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(message.format(repr(value))) from None


def _integers(values, message: str) -> np.ndarray:
    """A new array of ``values``, each a Python or numpy integer: as numpy reads
    them when that gives an integer dtype, without a Python loop; otherwise
    value by value through :func:`_index`, into a 1-D array of int64 or,
    beyond it, exact ints.  A value that is not an integer is named by ``message``."""
    array = np.array(values)
    if array.dtype.kind in "iu":
        return array
    items = array.tolist() if isinstance(values, np.ndarray) else list(values)
    return _int64s(lambda: (_index(v, message) for v in items), len(items))


def _bfs_levels(root: int, counts: np.ndarray, child: np.ndarray) -> list[np.ndarray]:
    """The vertices at each depth, each parent's children in child-array order."""
    first = np.cumsum(counts, dtype=np.int32)
    first -= counts
    levels = [np.array([root], dtype=np.int32)]
    while (k := counts[levels[-1]]).any():
        # child j of the concatenation is child[first[parent] + j - start[parent]]
        idx = np.repeat(first[levels[-1]] - np.cumsum(k, dtype=np.int32) + k, k)
        idx += np.arange(len(idx), dtype=np.int32)
        levels.append(child[idx])
        del idx  # freed before the next level's counts are read
    return levels


@dataclass(frozen=True)
class BoundaryCondition:
    """Colors (in ``1..q``) pinned onto a subset of vertices, usually leaves.

    Immutable: ``colors`` is a read-only mapping from vertex to color, a copy
    of the one passed in.  Every vertex and color must be a Python or numpy
    integer, held as an exact ``int``; anything else is refused here, not
    truncated later.  :attr:`pins` holds the same pins as two arrays,
    made once: by :meth:`random`, :meth:`monochromatic` and
    :meth:`from_leaf_colors` from the leaf arrays they draw on (in leaf
    order), and on first use for a boundary made from a mapping.
    """

    colors: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        try:
            colors = {operator.index(v): operator.index(c) for v, c in self.colors.items()}
        except TypeError:  # name the first pin that is not an integer
            for v, c in self.colors.items():
                v = _index(v, "pinned vertex {} is not an integer")
                _index(c, f"color {{}} for vertex {v} is not an integer")
            raise
        object.__setattr__(self, "colors", MappingProxyType(colors))

    @cached_property
    def pins(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vertices, colors)`` in the mapping's order: int32 vertices and
        colors in the smallest unsigned dtype that holds them, where every
        value fits; otherwise int64, or exact ints beyond int64, so that a
        range check can name them."""
        k = len(self.colors)
        return _compact_pins(_int64s(self.colors.keys, k), _int64s(self.colors.values, k))

    @classmethod
    def _from_pins(cls, vertices: np.ndarray, colors: np.ndarray) -> "BoundaryCondition":
        """The boundary pinning ``vertices[i]`` to ``colors[i]``, its one dict made from the arrays."""
        vertices, colors = _compact_pins(vertices, colors)
        boundary = cls.__new__(cls)  # skips the copy of a dict made here
        object.__setattr__(boundary, "colors",
                           MappingProxyType(dict(zip(vertices.tolist(), colors.tolist()))))
        object.__setattr__(boundary, "pins", (vertices, colors))
        return boundary

    @classmethod
    def monochromatic(cls, tree: TreeSpec, color: int) -> "BoundaryCondition":
        color = _index(color, "color {} is not an integer")
        leaves = _leaf_vertices(tree)
        return cls._from_pins(leaves, np.full(len(leaves), color))

    @classmethod
    def from_leaf_colors(cls, tree: TreeSpec, leaf_colors) -> "BoundaryCondition":
        """Assign ``leaf_colors[k]`` to the k-th leaf in BFS order."""
        leaves = _leaf_vertices(tree)
        colors = _integers(leaf_colors, "leaf color {} is not an integer")
        if colors.shape != leaves.shape:
            raise DomainError(f"got {colors.size} colors for {len(leaves)} leaves")
        return cls._from_pins(leaves, colors)

    @classmethod
    def random(cls, tree: TreeSpec, q: int, rng: np.random.Generator) -> "BoundaryCondition":
        q = _index(q, "q must be an integer, got {}")
        leaves = _leaf_vertices(tree)
        return cls._from_pins(leaves, rng.integers(1, q + 1, size=len(leaves)))


def _leaf_vertices(tree: TreeSpec) -> np.ndarray:
    """The leaves of ``tree`` in BFS order, as int32."""
    return np.flatnonzero(tree.counts == 0).astype(np.int32)


def _compact_pins(vertices: np.ndarray, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pins as int32 vertices and colors in the smallest unsigned dtype, where every value fits."""
    if (vertices.dtype != object and len(vertices)
            and 0 <= vertices.min() <= vertices.max() <= MAX_VERTICES):
        vertices = vertices.astype(np.int32, copy=False)
    if colors.dtype != object and len(colors) and colors.min() >= 0:
        colors = colors.astype(np.min_scalar_type(colors.max()), copy=False)
    return vertices, colors


@dataclass(frozen=True)
class BoundaryFile:
    """Parsed contents of a boundary-condition file."""

    q: int
    d: int
    n: int
    leaf_colors: tuple[int, ...]


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
    if _power_over_2_64(d, n):  # no file lists that many leaves, nor can an index array hold them
        raise ParseError(f"{d}**{n} leaves exceed 2**64", line=no)
    n_leaves = d**n
    colors: dict[int, int] = {}  # by leaf index; the d**n tuple only once all are here
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
        if idx in colors:
            raise ParseError(f"leaf {idx} assigned twice", line=no)
        colors[idx] = color
    if len(colors) < n_leaves:
        first = next(i for i in itertools.count() if i not in colors)
        raise ParseError(f"missing colors for {n_leaves - len(colors)} leaves (first: {first})")
    return BoundaryFile(q, d, n, tuple(colors[i] for i in range(n_leaves)))
