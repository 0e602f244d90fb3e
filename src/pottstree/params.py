"""Model parameters and log-ratio vector conventions.

The model lives on a rooted tree whose internal vertices have ``d`` children.
Colors are ``1..q``; an assignment is weighted by ``w**m`` where ``m`` counts
monochromatic edges and ``w`` is the interaction weight.  Throughout the
package the anti-ferromagnetic regime is parameterized by

    w = 1 - alpha * q / (d + 1),        0 < alpha <= 1,

so that ``alpha = 1`` sits exactly at the uniqueness threshold
``w_c = max(0, 1 - q/(d+1))`` and smaller ``alpha`` moves strictly inside the
uniqueness region.  ``d`` may be the symbolic value :data:`INFINITY`, in which
case the recursion maps degenerate to their large-degree limits (only
``alpha = 1`` is meaningful there).

A *log-ratio vector* for ``q`` colors is a finite numpy float64 array of
length ``q - 1``: coordinate ``i`` is ``log(Z_{i+1}) - log(Z_q)`` for the
partition functions of a subtree with the root pinned to color ``i+1`` versus
color ``q``.  A pinned vertex has no log-ratio vector; it enters the recursion
only through the closed-form image of its color, :func:`maps.pattern_image`.
:func:`validate_log_ratio` enforces this convention for every map argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Symbolic infinite degree (the large-degree limit of the recursion maps).
INFINITY = math.inf


@dataclass(frozen=True)
class ModelParams:
    """Parameter triple ``(q, d, alpha)`` with the derived weight ``w``.

    ``d`` is either a real degree (> 1; integer for anything touching an
    actual tree) or :data:`INFINITY`.  ``alpha`` may be 0 (the free model,
    ``w = 1``) or any value up to 1; operations with a narrower domain
    validate on entry.  Instances are immutable and hashable.
    """

    q: int
    d: float
    alpha: float = 1.0
    w: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 3:
            raise DomainError(f"q must be an integer >= 3, got {self.q!r}")
        if self.d != INFINITY:
            if not (isinstance(self.d, (int, float, np.integer, np.floating))
                    and math.isfinite(self.d) and self.d > 1):
                raise DomainError(f"d must be a finite real > 1 or INFINITY, got {self.d!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.d == INFINITY and self.alpha != 1.0:
            raise DomainError("infinite degree is only defined for alpha = 1")
        if self.d == INFINITY:
            w = 1.0  # limit of 1 - q/(d+1)
        else:
            w = 1.0 - self.alpha * self.q / (self.d + 1.0)
        object.__setattr__(self, "w", float(w))

    @classmethod
    def from_weight(cls, q: int, d: int | float, w: float) -> "ModelParams":
        """Build parameters from an explicit weight ``w in [0, 1]``."""
        if d == INFINITY:
            raise DomainError("use ModelParams(q, INFINITY) directly for the limit maps")
        if not 0.0 <= w <= 1.0:
            raise DomainError(f"w must lie in [0, 1], got {w!r}")
        alpha = (1.0 - w) * (d + 1.0) / q
        if alpha > 1.0 + 1e-12:
            raise DomainError(
                f"w={w} with q={q}, d={d} needs alpha={alpha} > 1 (beyond the uniqueness threshold)"
            )
        return cls(q, d, min(alpha, 1.0))


def validate_log_ratio(x: np.ndarray, q: int) -> np.ndarray:
    """Coerce ``x`` to a float64 array; check its width ``q - 1`` and that it is finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != q - 1:
        raise DomainError(f"log-ratio vector must have length q-1={q - 1}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("log-ratio vectors must be finite")
    return x
