"""Span tracer that wraps pottstree's module functions from the outside.

Nothing under ``src/`` is edited.  :func:`install` replaces every public
function of the measured layers (and a few private ones that carry work
counters) by a timing wrapper, in every module that binds the same object
under the same name.  So ``pottstree.maps.log_ratio_map`` and
``pottstree.polytope.log_ratio_map`` are both wrapped, and internal calls
such as ``two_step_map -> log_ratio_map`` are seen.

A span records its name, start, end, parent and counters.  Spans stay in
memory and are summarised once, when the pass ends.  Counter work (row
hashing for ``unique_row_frac`` and the like) runs after the span's end
clock is read.  :func:`summarize` takes it out of every enclosing span's
inclusive and self time.

Spans opened in a worker thread with an empty stack take as parent the span
open on the main thread at that moment; in pottstree that is the
``reporting.parallel_chunk_map`` call that owns the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: The measured layers, one per pottstree module.  ``params`` and
#: ``symmetry`` are validation and permutation helpers with no measurable
#: cost of their own, so they are left unwrapped.
LAYERS = ("cli", "certify", "polytope", "maps", "oracle", "trees", "gradients", "reporting")

#: Private functions wrapped because a work counter lives at their boundary.
PRIVATE = {
    "polytope": ("_midpoint_pullback_levels",),  # pairs evaluated by the witness scan
    "oracle": ("_dp_tables",),                   # one full DP pass
}

_clock = time.perf_counter


def _rows(x) -> int:
    a = np.asarray(x)
    return int(a.size // a.shape[-1]) if a.ndim else 1


def _distinct_rows(x) -> int:
    """Number of distinct rows of a float batch (hash of the row bytes)."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim < 2:
        return 1
    if a.size == 0:
        return 0
    bits = a.reshape(-1, a.shape[-1]).view(np.uint64)
    h = np.zeros(len(bits), dtype=np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for k in range(bits.shape[1]):
            h = (h ^ bits[:, k]) * mult
            h ^= h >> np.uint64(29)
    h.sort()  # sort and compare: several times faster than np.unique here
    return int((h[1:] != h[:-1]).sum()) + 1


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_log_ratio_map(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    return {"rows": _rows(x), "distinct_rows": _distinct_rows(x)}


def _count_rows(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 0, "x"))}


def _count_preimage(args, kwargs, result):
    valid = np.asarray(result[1])
    return {"rows": int(valid.size), "valid": int(valid.sum())}


def _count_samples(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 2, "count"))}


def _count_pairs(args, kwargs, result):
    return {"pairs": _rows(_arg(args, kwargs, 0, "x"))}


def _count_witness_request(args, kwargs, result):
    c_values = list(_arg(args, kwargs, 1, "c_values"))
    pairs_per_c = _arg(args, kwargs, 2, "pairs_per_c", 250_000)
    return {"pairs_requested": int(pairs_per_c) * len(c_values)}


def _count_steps(args, kwargs, result):
    return {"steps": len(result) - 1}


def _count_vertices(args, kwargs, result):
    return {"vertices": _arg(args, kwargs, 0, "tree").n_vertices}


def _count_dp_query(args, kwargs, result):
    # The span keeps both objects alive, so their ids stay distinct.
    return {"query": (_arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 3, "boundary"))}


def _count_colorings(args, kwargs, result):
    tree, q = _arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 1, "q")
    boundary = _arg(args, kwargs, 3, "boundary")
    pinned = set(boundary.colors) if boundary is not None else set()
    if _arg(args, kwargs, 4, "pinned_root") is not None:
        pinned.add(tree.root)
    return {"colorings": int(q) ** (tree.n_vertices - len(pinned))}


def _count_trials(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 2, "trials"))}


def _count_chunks(args, kwargs, result):
    return {"chunks": int(_arg(args, kwargs, 1, "n_chunks"))}


#: Work counters, keyed by span name; each maps (args, kwargs, result) to counts.
COUNTERS = {
    "maps.log_ratio_map": _count_log_ratio_map,
    "maps.two_step_map": _count_rows,
    "maps.log_ratio_map_preimage": _count_preimage,
    "polytope.sample_fundamental": _count_samples,
    "polytope.sample_polytope": _count_samples,
    "polytope.level": _count_rows,
    "polytope._midpoint_pullback_levels": _count_pairs,
    "polytope.convexity_witness_search": _count_witness_request,
    "certify.contraction_sequence": _count_steps,
    "oracle.dp_log_Z": _count_vertices,
    "oracle._dp_tables": _count_dp_query,
    "oracle.brute_force_Z": _count_colorings,
    "gradients.positivity_sweep": _count_trials,
    "reporting.parallel_chunk_map": _count_chunks,
}


def _cli_label(args, kwargs) -> str:
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class Span:
    __slots__ = ("name", "sid", "parent", "t0", "t1", "t2", "counts")

    def __init__(self, name, sid, parent, t0):
        self.name, self.sid, self.parent, self.t0 = name, sid, parent, t0
        self.t1 = self.t2 = t0  # end of the call; end of its counter work
        self.counts = None


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self.suspended = False

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        label = _cli_label if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(label(args, kwargs) if label else name, next(self._ids),
                        parent.sid if parent else 0, _clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = span.t2 = _clock()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            span.t2 = _clock()
            return result

        return traced


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions wherever pottstree binds them."""
    modules = {layer: importlib.import_module(f"pottstree.{layer}") for layer in LAYERS}
    binders = [m for n, m in list(sys.modules.items())
               if n == "pottstree" or n.startswith("pottstree.")]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                if not attr.startswith("_"):
                    _wrap_class(tracer, layer, obj)
                continue
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", obj)
            for m in binders:
                if vars(m).get(attr) is obj:
                    setattr(m, attr, wrapped)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(tracer: Tracer) -> dict:
    """Per-span-name totals: calls, inclusive and self seconds, summed counters.

    Inclusive time is a span's duration minus the union of the counter work
    intervals of all its descendants.  Self time is its duration minus the
    union of its children's intervals, where a child's interval runs on to
    the end of its counter work.  Union rather than sum, because descendants
    in the two pool threads can do counter work at the same moment.  Each
    counter is also summed per parent span name, as
    ``"<counter>@<parent name>"``.  Distinct DP queries are counted by
    ``(tree, boundary)`` identity.
    """
    children = defaultdict(list)
    counter_work = defaultdict(list)  # sid -> counter intervals of descendants
    names, parents = {0: ""}, {}
    for s in tracer.spans:
        children[s.parent].append((s.t0, s.t2))
        names[s.sid], parents[s.sid] = s.name, s.parent
    for s in tracer.spans:
        if s.t2 > s.t1:
            ancestor = s.parent
            while ancestor:
                counter_work[ancestor].append((s.t1, s.t2))
                ancestor = parents.get(ancestor, 0)
    out: dict[str, dict] = {}
    queries: set = set()
    for s in tracer.spans:
        rec = out.setdefault(s.name, defaultdict(float))
        rec["calls"] += 1
        rec["s"] += (s.t1 - s.t0) - _covered(counter_work.get(s.sid, []), s.t0, s.t1)
        rec["self_s"] += (s.t1 - s.t0) - _covered(children.get(s.sid, []), s.t0, s.t1)
        for k, v in (s.counts or {}).items():
            if k == "query":
                queries.add((id(v[0]), id(v[1])))
            else:
                rec[k] += v
                rec[f"{k}@{names.get(s.parent, '')}"] += v
    if queries:
        out["oracle._dp_tables"]["queries"] = len(queries)
    return {k: dict(v) for k, v in out.items()}
