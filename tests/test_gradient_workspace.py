"""``positivity_sweep`` runs each chunk in place in one workspace per worker.

The closed forms of :mod:`pottstree.gradients` are private ``out=`` kernels,
and a sweep chunk calls them on rows cut from a buffer that lives as long as
one sweep.  These tests hold every kernel, through the chunk, to the bytes of
the allocating expressions (copied below) and bound what a sweep allocates.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from pottstree import DomainError, gradients, positivity_sweep, spawn_rng
from pottstree.gradients import (_SWEEP_ROWS, _positivity_chunk, _rescaled_gap_into,
                                 _sweep_workspace)
from pottstree.reporting import DEFAULT_CHUNK


def _exponents(y1, y2, y3, t, l):
    den = 1.0 + l * y1 + y2 + (t - l - 1.0) * y3
    return tuple((t + 1.0) * (1.0 - y) / den for y in (y1, y2, y3))


def _gap_from(y1, y2, y3, t, l, exponents):
    a1, a2, a3 = exponents
    m = t - l - 1.0
    c1 = y1 * y3 * m + (l + 1.0) * y1 + (l + 1.0) * y1 * y2 - l * y2
    c2 = -y2 * y3 * m - (l + 1.0) * y1 * y2 + y1 - 2.0 * y2
    c3 = (y1 - y2) * (1.0 - y3) * m
    return c1 * np.exp(a1) + c2 * np.exp(a2) + c3 * np.exp(a3)


def _frozen_point(c1, c2, c3, l, t):
    b = c3 * (t - l - 1.0) + c1 * l + c2 + t + 1.0
    return b, tuple(1.0 - c * (t + 1.0) / b for c in (c1, c2, c3))


def _rescaled_gap(c1, c2, c3, l, t):
    b, y = _frozen_point(c1, c2, c3, l, t)
    return _gap_from(*y, t, l, _exponents(*y, t, l)) * (b / (1.0 + t)) ** 2


def _line(c1, c2, c3, l):
    u1 = 2.0 + l + c2 - 2.0 * c1 + l * c1 * c2 - l * c1**2
    u2 = -(2.0 + l + l * c1 - (l + 1.0) * c2 + c1 * c2 - c2**2)
    value = u1 * np.exp(c1) + u2 * np.exp(c2)
    slope = ((1.0 + c3 - c1) * np.exp(c1) - (1.0 + c3 - c2) * np.exp(c2)
             + (c2 - c1) * c3 * np.exp(c3))
    return value, slope


def _chunk(q, l, rng, n):
    """One sweep chunk from fresh arrays: its rows and its result tuple."""
    u = np.sort(rng.random((n, 3)), axis=1)[:, ::-1]
    x = u[:, 0], u[:, 1], u[:, 2]
    t = float(q - 1)
    c = _exponents(*x, t, l)
    gap = _gap_from(*x, t, l, c)
    value, slope = _line(*c, l)
    r = [_rescaled_gap(*c, l, l + k) for k in (1.0, 2.0, 3.0)]
    scale = np.maximum(1.0, np.abs(r[2]))
    closed_err = np.maximum(np.abs(r[0] - value), np.abs((r[2] - r[0]) / 2.0 - slope)) / scale
    linear_err = np.abs(r[0] - 2.0 * r[1] + r[2]) / scale
    margin = np.minimum(np.minimum(gap, value), slope)
    k = int(np.argmin(margin))
    result = (float(margin[k]), float(closed_err.max()), float(linear_err.max()),
              (float(x[0][k]), float(x[1][k]), float(x[2][k]),
               float(gap[k]), float(value[k]), float(slope[k])))
    return (*x, *c, gap, value, slope, *r), result


QL = [(q, l) for q in range(3, 13) for l in range(1, q - 1)]


@pytest.mark.parametrize("q,l", QL)
def test_each_chunk_matches_the_fresh_array_reference(q, l):
    buf = np.empty(_SWEEP_ROWS * DEFAULT_CHUNK)
    # the largest chunk first, so the smaller ones land on stale buffer contents
    for n in (DEFAULT_CHUNK, 7, 1):
        raw, rows = _sweep_workspace(buf, n)
        assert np.shares_memory(raw, rows[:3]) and not np.shares_memory(raw, rows[3:])
        ours, numpys = spawn_rng(q, l, n), spawn_rng(q, l, n)
        got = _positivity_chunk(q, l, ours, (raw, rows))
        want_rows, want = _chunk(q, l, numpys, n)
        assert repr(got) == repr(want), n
        # the triple, its exponents, gap, line and the three rescaled gaps stay in rows 3-14
        for i, w in enumerate(want_rows):
            assert rows[3 + i].tobytes() == np.ascontiguousarray(w).tobytes(), (n, i)
        assert ours.random(3).tobytes() == numpys.random(3).tobytes(), n


def test_the_kernel_rejects_a_degenerate_frozen_point():
    # a NaN constant gives a NaN B, which must not pass as positive
    for c1 in ([0.2, -30.0, 0.3], [0.2, np.nan, 0.3]):
        c = np.array(c1), np.full(3, 0.5), np.full(3, 0.5)
        with pytest.raises(DomainError, match="nonpositive denominator"):
            _rescaled_gap_into(*c, 1, 2.0, np.empty(3), [np.empty(3) for _ in range(10)])


def test_workers_never_share_a_workspace():
    want = positivity_sweep(7, 3, 200_000, seed=4, threads=1)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = positivity_sweep(7, 3, 200_000, seed=4, threads=4)
            assert repr((got.min_margin, got.parameters)) == repr(
                (want.min_margin, want.parameters))
    finally:
        sys.setswitchinterval(old)


def test_positivity_sweep_allocates_one_workspace(monkeypatch):
    buffers = []
    sweep = gradients.sampled_sweep

    def recording(fn, total, seed, threads, floats_per_sample):
        return sweep(lambda rng, n, buf: buffers.append(buf) or fn(rng, n, buf),
                     total, seed, threads, floats_per_sample)

    monkeypatch.setattr(gradients, "sampled_sweep", recording)
    workspace_bytes = _SWEEP_ROWS * DEFAULT_CHUNK * 8
    positivity_sweep(8, 3, 50_000, seed=1)  # warm: imports, caches
    assert [b.size for b in buffers] == [_SWEEP_ROWS * DEFAULT_CHUNK] * 2  # two chunks
    assert buffers[0].base is buffers[1].base  # one worker, one buffer
    tracemalloc.start()
    try:
        positivity_sweep(8, 3, 50_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two chunks share the one buffer (a peak about 32 kB above it); the slack
    # covers the generators and small objects, and one more row of
    # temporaries (200 kB) would break it
    assert peak < workspace_bytes + 100_000, (peak, workspace_bytes)
