"""Rooted trees and boundary conditions for the exact oracles.

The canonical instance is the regular rooted tree of depth ``n`` in which the
root and every internal vertex have exactly ``d`` children (the root of the
(d+1)-regular tree with one neighbor removed).  Vertices are integers in BFS
order starting at the root, so the ``d**n`` leaves are the final block of
indices; "leaf index k" always refers to this BFS order.

:class:`TreeSpec` holds only ``d`` and ``n``: vertex ``v``'s children are
``d*v + 1 .. d*v + d``, so each depth is one contiguous block of vertices,
which the exact DP reads as a slice.

Boundary conditions pin the leaves to colors ``1..q``.  Their pins are two
arrays, vertices and colors; a boundary made from its leaves keeps nothing
else, and its ``colors`` mapping is a read-only view of those colors, so
no boundary holds a dict per leaf.  The on-disk format is a plain text file:

    q d n
    <leaf_index> <color>
    ...

with one line per leaf (all ``d**n`` leaves must appear exactly once; blank
lines and ``#`` comments are ignored).
"""

from __future__ import annotations

import itertools
import operator
import os
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from stat import S_ISREG
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .errors import DomainError, ParseError

#: Most vertices a :class:`TreeSpec` can hold: pins index vertices with int32.
MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True)
class TreeSpec:
    """The depth-``n`` rooted tree with down-degree ``d`` everywhere, BFS-numbered.

    Nothing is stored per vertex: vertex ``v``'s children are
    ``d*v + 1 .. d*v + d``, so depth ``k`` is one contiguous block of ``d**k``
    vertices (:meth:`level`) and the leaves are the last.  ``d >= 1`` and
    ``n >= 0`` must be integers, and the tree at most ``MAX_VERTICES`` vertices.
    """

    d: int
    n: int
    #: The vertex numbering starts at the root.
    root: ClassVar[int] = 0

    def __post_init__(self):
        d, n = self.d, self.n
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)

    @classmethod
    def regular(cls, d: int, n: int) -> "TreeSpec":
        """Depth-``n`` tree with down-degree ``d`` everywhere, BFS-numbered."""
        return cls(d, n)

    @property
    def n_vertices(self) -> int:
        return regular_size(self.d, self.n)

    def level(self, k: int) -> range:
        """The vertices at depth ``k``, in order: one block, after the shallower ones."""
        return range(regular_size(self.d, k - 1), regular_size(self.d, k))

    def leaves(self) -> list[int]:
        return list(self.level(self.n))


def regular_size(d: int, n: int) -> int:
    """The number of vertices of ``TreeSpec.regular(d, n)``; 0 at ``n = -1``."""
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


@dataclass(frozen=True)
class BoundaryCondition:
    """Colors (in ``1..q``) pinned onto a subset of vertices, usually leaves.

    Immutable: ``colors`` is a read-only mapping from vertex to color.  Every
    vertex and color must be a Python or numpy integer, held as an exact
    ``int``; anything else is refused here, not truncated later.
    :attr:`pins` holds the same pins as two arrays, in ``colors``' order.
    :meth:`random`, :meth:`monochromatic` and :meth:`from_leaf_colors` pin
    the leaves, in leaf order: they make :attr:`pins` from the arrays they
    draw on, and ``colors`` is a view of those colors, one exact ``int`` per
    leaf in a list, with no dict.  A boundary made from a mapping keeps a
    read-only copy of it, and makes :attr:`pins` on first use.
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
    def _from_leaves(cls, tree: TreeSpec, colors: np.ndarray) -> "BoundaryCondition":
        """The boundary pinning the k-th leaf of ``tree`` to ``colors[k]``: its
        pins, and ``colors`` a view of them with no dict per leaf."""
        leaves = tree.level(tree.n)
        vertices, colors = _compact_pins(np.arange(leaves.start, leaves.stop, dtype=np.int32),
                                         colors)
        boundary = cls.__new__(cls)  # skips the dict that __post_init__ would make
        object.__setattr__(boundary, "colors", _LeafColors(leaves.start, colors.tolist()))
        object.__setattr__(boundary, "pins", (vertices, colors))
        return boundary

    @classmethod
    def monochromatic(cls, tree: TreeSpec, color: int) -> "BoundaryCondition":
        color = _index(color, "color {} is not an integer")
        return cls._from_leaves(tree, np.full(len(tree.level(tree.n)), color))

    @classmethod
    def from_leaf_colors(cls, tree: TreeSpec, leaf_colors) -> "BoundaryCondition":
        """Assign ``leaf_colors[k]`` to the k-th leaf in BFS order."""
        n_leaves = len(tree.level(tree.n))
        colors = _integers(leaf_colors, "leaf color {} is not an integer")
        if colors.shape != (n_leaves,):
            raise DomainError(f"got {colors.size} colors for {n_leaves} leaves")
        return cls._from_leaves(tree, colors)

    @classmethod
    def random(cls, tree: TreeSpec, q: int, rng: np.random.Generator) -> "BoundaryCondition":
        q = _index(q, "q must be an integer, got {}")
        if q < 1:
            raise DomainError(f"q must be >= 1, got {q}")
        return cls._from_leaves(tree, rng.integers(1, q + 1, size=len(tree.level(tree.n))))


class _LeafColors(Mapping):
    """A read-only mapping from the leaves ``first, first + 1, ...`` to ``colors``.

    It keeps the colours once, as exact ints in leaf order, so a boundary
    made from its leaves holds no dict per leaf.  A key that is not an
    integer (:func:`operator.index`) or not one of the leaves is missing.
    """

    __slots__ = ("_first", "_colors")

    def __init__(self, first: int, colors: list[int]):
        self._first, self._colors = first, colors

    def __getitem__(self, vertex) -> int:
        try:
            i = operator.index(vertex) - self._first
        except TypeError:
            raise KeyError(vertex) from None
        if 0 <= i < len(self._colors):
            return self._colors[i]
        raise KeyError(vertex)

    def __iter__(self):
        return iter(range(self._first, self._first + len(self._colors)))

    def __len__(self) -> int:
        return len(self._colors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


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


def _check_utf8(line: str, no: int) -> bool:
    """True, or a :class:`ParseError` at line ``no`` if ``line`` holds an escaped byte."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ParseError(f"byte 0x{ord(line[err.start]) - 0xDC00:02x} is not UTF-8", line=no)
    return True


def read_boundary_file(path) -> BoundaryFile:
    """Parse a boundary-condition file, reporting 1-based line numbers on error.

    The lines stream into one slot per leaf, 0 until the leaf is seen, so the
    parse holds neither the file's lines nor a dict per leaf.  A file too
    short to list every leaf keeps only the leaves it names, so it fails
    without a slot per leaf.  A leading byte-order mark is skipped; a byte
    that is not UTF-8 is refused on its line.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = ((no, ln.split("#", 1)[0].strip()) for no, ln in enumerate(fh, start=1)
                 if ln.isascii() or _check_utf8(ln, no))
        lines = ((no, ln) for no, ln in lines if ln)
        no, header = next(lines, (None, ""))
        if not header:
            raise ParseError("empty boundary file")
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
        # a leaf takes at least 4 bytes, "i c" and a line break, past a header of 5
        stat = os.fstat(fh.fileno())
        short = S_ISREG(stat.st_mode) and stat.st_size < 4 * n_leaves
        slots = defaultdict(int) if short else [0] * n_leaves
        seen = 0
        for no, ln in lines:
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
            if slots[idx]:
                raise ParseError(f"leaf {idx} assigned twice", line=no)
            slots[idx] = color
            seen += 1
    if seen < n_leaves:  # always so for a short file
        first = next(i for i in itertools.count() if not slots[i])
        raise ParseError(f"missing colors for {n_leaves - seen} leaves (first: {first})")
    return BoundaryFile(q, d, n, tuple(slots))
