"""Color permutations acting on log-ratio vectors.

A permutation of the ``q`` colors acts on length-``(q-1)`` log-ratio vectors
through the quotient convention: embed ``x`` as ``(x, 0)`` in R^q, permute
coordinates, and re-normalize so the image of color ``q``'s slot is the new
zero.  Concretely, with ``s = pi^{-1}``,

    (pi . x)_i = xt[s(i)] - xt[s(q)],      xt = (x_1, ..., x_{q-1}, 0).

This is a left action: ``(pi o sigma) . x = pi . (sigma . x)``.  The recursion
maps commute with it, which is what lets polytope computations be reduced to a
fundamental domain.

Permutations are tuples over colors ``1..q`` with ``perm[i-1] = pi(i)``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetError, DomainError
from .params import validate_log_ratio


def is_permutation(perm) -> bool:
    perm = tuple(int(p) for p in perm)
    return sorted(perm) == list(range(1, len(perm) + 1))


def _check(perm) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if not is_permutation(perm):
        raise DomainError(f"not a permutation of 1..{len(perm)}: {perm!r}")
    return perm


def identity_permutation(q: int) -> tuple[int, ...]:
    return tuple(range(1, q + 1))


def transposition(q: int, a: int, b: int) -> tuple[int, ...]:
    """The permutation swapping colors ``a`` and ``b``."""
    if not (1 <= a <= q and 1 <= b <= q):
        raise DomainError(f"colors must lie in 1..{q}")
    perm = list(range(1, q + 1))
    perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
    return tuple(perm)


def compose(pi, sigma) -> tuple[int, ...]:
    """Return ``pi o sigma`` (apply ``sigma`` first)."""
    pi, sigma = _check(pi), _check(sigma)
    if len(pi) != len(sigma):
        raise DomainError("cannot compose permutations of different sizes")
    return tuple(pi[s - 1] for s in sigma)


def invert(perm) -> tuple[int, ...]:
    perm = _check(perm)
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p - 1] = i + 1
    return tuple(inv)


def random_permutation(q: int, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(c) + 1 for c in rng.permutation(q))


def all_permutations(q: int) -> list[tuple[int, ...]]:
    """All q! permutations; guarded to q <= 8 to keep enumeration sane."""
    if q > 8:
        raise BudgetError(f"refusing to enumerate {q}! permutations")
    return [tuple(p) for p in itertools.permutations(range(1, q + 1))]


def apply_permutation(perm, x: np.ndarray) -> np.ndarray:
    """Act on a log-ratio vector (or a batch with shape ``(..., q-1)``)."""
    perm = _check(perm)
    q = len(perm)
    x = validate_log_ratio(x, q)
    inv = invert(perm)
    # Embed with a zero slot for color q, permute slots, re-zero the new q slot.
    xt = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    gathered = xt[..., [inv[i] - 1 for i in range(q)]]
    return gathered[..., : q - 1] - gathered[..., q - 1:]
