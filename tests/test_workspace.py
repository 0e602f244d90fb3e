"""``two_step_level`` runs each chunk in place in one workspace per worker.

The chunk draws its Dirichlet weights once with ``_dirichlet_weights_into``,
then scales them at every level of the grid and takes the two-step peak of
each batch with ``_two_step_peak``, writing into colour-major arrays
cut from a buffer that lives as long as one sweep.  These tests hold that
path to the bytes of the allocating formulas and bound what it allocates.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from pottstree import (INFINITY, ModelParams, level, log_ratio_map, spawn_rng, two_step_level,
                       two_step_map, validate_log_ratio)
from pottstree.certify import _fundamental_probe_points, _sampled_peaks, _workspace
from pottstree.polytope import _dirichlet_weights_into
from pottstree.reporting import DEFAULT_CHUNK, chunk_sizes


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _buffer(q):
    return np.empty(DEFAULT_CHUNK * 2 * q)


@pytest.mark.parametrize("q", range(3, 13))
def test_workspace_draw_is_numpy_dirichlet(q):
    buf = _buffer(q)
    # the largest draw first, so the smaller ones land on stale buffer contents
    for n in (DEFAULT_CHUNK, 7, 1):
        e, w, x, u = _workspace(buf, n, q)
        ours, numpys = spawn_rng(q, n), spawn_rng(q, n)
        got = _dirichlet_weights_into(ours, e, u, out=w)
        want = numpys.dirichlet(np.ones(q), size=n)[:, : q - 1]
        assert _same_bytes(got.T, want), n
        assert np.shares_memory(got, w)
        # the generator is left where numpy's sampler leaves it
        assert ours.random(3).tobytes() == numpys.random(3).tobytes(), n
        for c in (1.0, 2.7):
            # each level's batch lies over the exponentials, dead once the weights exist
            assert _same_bytes(np.multiply(w, -c, out=x).T, -c * want), (c, n)


def _reference_peak(c, params, rng, n):
    """One chunk's peak from fresh arrays: numpy's Dirichlet and the public maps."""
    x = -c * rng.dirichlet(np.ones(params.q), size=n)[:, : params.q - 1]
    return float(np.max(level(two_step_map(x, params))))


def _reference_estimate(c, params, sample_count, seed):
    """The parent's estimate in two parts: the probe points' peak and the chunks' peak."""
    probe = float(np.max(level(two_step_map(_fundamental_probe_points(c, params.q).T, params))))
    sampled = [_reference_peak(c, params, spawn_rng(seed, i), n)
               for i, n in enumerate(chunk_sizes(sample_count))]
    return probe, max(sampled)


@pytest.mark.parametrize("q", [3, 5, 8, 12])
@pytest.mark.parametrize("d", [1000, INFINITY])
def test_each_chunk_peak_matches_the_fresh_array_reference(q, d):
    params = ModelParams(q, d, 1.0)
    buf = _buffer(q)
    levels = (0.3, 1.0, q / 2.0, q + 1.0)
    for n in (DEFAULT_CHUNK, 10_000, 7, 1):
        # one draw for the whole grid; the reference draws afresh at each level
        got = _sampled_peaks(levels, params, spawn_rng(q, n), _workspace(buf, n, q))
        for c, peak in zip(levels, got):
            assert repr(peak) == repr(_reference_peak(c, params, spawn_rng(q, n), n)), (c, n)


# (q, q, 2q+2): small degree, high level, where a sample beats every probe point
@pytest.mark.parametrize("q, d, c", [(q, d, c) for q in (3, 5, 8, 12) for d in (1000, INFINITY)
                                     for c in (0.3, q / 2.0, q + 1.0)]
                         + [(5, 5, 12.0), (8, 8, 18.0), (12, 12, 26.0)])
def test_two_step_level_matches_the_per_chunk_reference(q, d, c):
    params = ModelParams(q, d, 1.0)
    # 60_000 samples: two full chunks and a partial last one
    probe, sampled = _reference_estimate(c, params, 60_000, seed=q)
    if d == q:
        assert sampled > probe
    for threads in (1, 2):
        got = two_step_level([c], params, 60_000, seed=q, threads=threads)[0]
        assert repr(got.parameters["estimate"]) == repr(max(probe, sampled)), threads


def test_workers_never_share_a_workspace():
    # more workers than cores and a short switch interval, so chunks interleave;
    # at (5, 5, 12) the estimate comes from a sample, so a clobbered chunk shows
    params = ModelParams(5, 5, 1.0)
    want = two_step_level([12.0], params, 200_000, seed=3, threads=1)[0].parameters["estimate"]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = two_step_level([12.0], params, 200_000, seed=3, threads=4)[0]
            got = got.parameters["estimate"]
            assert repr(got) == repr(want)
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("params", [ModelParams(5, 12, 0.8), ModelParams(5, INFINITY)])
def test_public_maps_leave_their_input_unchanged(params):
    rng = np.random.default_rng(2)
    batch = rng.normal(scale=2.0, size=(40, params.q - 1))
    batch[3, 1] = 800.0  # one row takes the overflow-safe shift
    # validate_log_ratio hands back the caller's own float64 array ...
    assert validate_log_ratio(batch, params.q) is batch
    # ... so a map that worked in place would overwrite it
    for x in (batch, batch[0], batch[::2], np.asfortranarray(batch)):
        before = x.copy()
        for fn in (lambda a: log_ratio_map(a, params), lambda a: two_step_map(a, params), level):
            fn(x)
            assert _same_bytes(x, before)


def test_two_step_level_allocates_one_workspace():
    q = 5
    params = ModelParams(q, 1000, 1.0)
    buf = _buffer(q)
    workspace_bytes = buf.nbytes
    assert workspace_bytes == DEFAULT_CHUNK * 2 * q * 8
    e, w, x, u = _workspace(buf, DEFAULT_CHUNK, q)
    assert sum(a.nbytes for a in (e, w, u)) == workspace_bytes
    assert np.shares_memory(x, e) and not np.shares_memory(x, w)
    for levels in ([3.0], [0.5 * k for k in range(1, 13)]):
        two_step_level(levels, params, 100_000, threads=1)  # warm: imports, caches
        tracemalloc.start()
        try:
            two_step_level(levels, params, 100_000, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # four chunks and every level share the one buffer; per-chunk
        # temporaries would double the peak
        assert peak < 1.15 * workspace_bytes, (len(levels), peak, workspace_bytes)
