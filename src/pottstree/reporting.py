"""Reproducibility plumbing: seeds, chunking, grids, value formatting and atomic files.

Conventions used by every sweep in the package:

* Randomness comes from numpy's PCG64.  :func:`sampled_sweep` is the one
  place that owns the chunk and seed layout: a sweep with master seed ``s``
  is cut into ``DEFAULT_CHUNK``-sized chunks numbered ``0, 1, ...``; chunk
  ``i`` draws from ``Generator(PCG64(SeedSequence([s, i])))``.  The chunk
  layout depends only on the sample count, never on the thread count, and
  per-chunk results are reduced in chunk order — so outputs are
  byte-identical for any ``--threads``.  Must-test points are evaluated by
  the caller, outside the sweep.  The chunks run on one thread pool per
  thread count, made on first use and kept for the life of the process.
* Floats are serialized with ``repr`` (shortest round-trip form), decimal
  point, no locale.
* Files are written to a temporary sibling and atomically renamed, so a
  crashed run never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_CHUNK = 25_000


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for stream ``key`` of master ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, key)])))


def chunk_sizes(total: int) -> list[int]:
    """Sizes of the fixed chunk decomposition of ``total`` samples."""
    if total < 0:
        raise DomainError(f"sample count must be >= 0, got {total}")
    full, rest = divmod(total, DEFAULT_CHUNK)
    return [DEFAULT_CHUNK] * full + ([rest] if rest else [])


_EXECUTORS: dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` workers, shared by every sweep."""
    with _EXECUTORS_LOCK:
        if threads not in _EXECUTORS:
            _EXECUTORS[threads] = ThreadPoolExecutor(max_workers=threads,
                                                     thread_name_prefix=f"pottstree-{threads}")
        return _EXECUTORS[threads]


def parallel_chunk_map(fn, n_chunks: int, threads: int = 1) -> list:
    """Evaluate ``fn(i)`` for ``i in range(n_chunks)``, results in index order.

    ``threads=1`` runs inline; larger values run on the shared pool of that
    many workers.  Since results are consumed in index order, the output is
    independent of scheduling.  ``fn`` must never start a sweep itself: a
    nested sweep waits for workers of the same bounded pool that its own
    callers occupy, and can deadlock.
    """
    if threads <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    return list(_executor(threads).map(fn, range(n_chunks)))


def sampled_sweep(fn, total: int, seed: int, threads: int) -> list:
    """Run ``fn(rng, n)`` on each chunk of ``total`` samples, results in chunk order.

    Chunk ``i`` has ``n = chunk_sizes(total)[i]`` samples and draws from
    ``rng = spawn_rng(seed, i)``, so the results do not depend on ``threads``.
    """
    sizes = chunk_sizes(total)
    return parallel_chunk_map(lambda i: fn(spawn_rng(seed, i), sizes[i]), len(sizes), threads)


def parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive grid.

    The endpoint is included when it lands within 1e-12 of a grid point.
    A bare number parses as a single-point grid.
    """
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise DomainError(f"malformed grid {text!r} (want start:stop:step)")
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise DomainError(f"malformed grid {text!r} (want start:stop:step)")
    start, stop, step = values
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if stop < start - 1e-12:
        raise DomainError(f"grid stop {stop} precedes start {start}")
    count = int(np.floor((stop - start) / step + 1e-12)) + 1
    return [start + k * step for k in range(count)]


def format_value(v) -> str:
    """Serialize one CSV/manifest value deterministically."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary sibling and a rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path, header: list[str], rows: list[list]) -> None:
    """Write an RFC-4180-style CSV (header + rows) atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    write_text_atomic(path, buf.getvalue())


def code_version() -> str:
    """``git describe`` of the working tree, or the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from . import __version__
    return f"pottstree-{__version__}"


@dataclass
class CertificationReport:
    """Outcome of one certification check; every check in the package returns one.

    ``kind`` names the check: ``two_step_level`` and ``diagonal_minimality``
    and ``convergence`` (:mod:`pottstree.certify`), ``midpoint_convexity``
    (:mod:`pottstree.polytope`), ``gap_positivity`` and ``gradient_identity``
    (:mod:`pottstree.gradients`).  ``parameters`` holds the check's inputs
    and its measured values.  ``min_margin`` is the worst (smallest) slack
    observed; a negative value means the asserted property failed on some
    sample, and ``witness``, where the check fills it, then carries a
    machine-readable description of the worst offender.
    """

    kind: str
    parameters: dict
    sample_count: int
    seed: int
    min_margin: float
    passed: bool
    witness: dict | None = None
