"""``convexity_probe`` runs each chunk in place in one workspace per worker.

The chunk draws its two weight batches once with ``_polytope_weights_into``,
then at every level of the grid writes both products colour-major, maps them
in place, writes their midpoint over the first and levels its pullback with
``_pullback_levels_into``, all in arrays cut from a buffer that lives as long
as one sweep.  These tests hold that path to the reports of the allocating
probe and bound what it allocates.
"""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pottstree import (INFINITY, ModelParams, convexity_probe, level, log_ratio_map,
                       log_ratio_map_preimage, polytope_vertices, spawn_rng)
from pottstree import polytope
from pottstree.polytope import _polytope_weights_into, _probe_workspace
from pottstree.reporting import DEFAULT_CHUNK, CertificationReport, chunk_sizes
from test_certify import GRIDS, README_GRID


def _dirichlet_form(q, count, rng):
    """The probe's vertex weights as written before the kernel: numpy's Dirichlet sampler."""
    w = rng.dirichlet(np.ones(q), size=count)
    onto = rng.random(count) < polytope.BOUNDARY_FRACTION
    drop = rng.integers(0, q, size=count)
    w[onto, drop[onto]] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return w


def _allocating_probe(levels, params, pair_count, seed):
    """``convexity_probe`` as written before its workspace, as a reference.

    Every level of every chunk takes fresh row-major products ``w @ vx``,
    maps them with the public ``log_ratio_map`` and pulls the midpoints back
    with the public preimage and level, gathering the valid rows.
    """
    q = params.q
    vertices = [polytope_vertices(c, q) for c in levels]
    pairs = list(itertools.combinations(range(q), 2))

    def worst_pair(x, y):
        back, valid = log_ratio_map_preimage(
            0.5 * (log_ratio_map(x, params) + log_ratio_map(y, params)), params)
        lev = np.full(valid.shape, np.inf)
        lev[valid] = level(back[valid])
        k = int(np.argmax(lev))
        return float(lev[k]), x[k].copy(), y[k].copy()

    sampled = []
    for i, n in enumerate(chunk_sizes(pair_count)):
        rng = spawn_rng(seed, i)
        wx, wy = _dirichlet_form(q, n, rng), _dirichlet_form(q, n, rng)
        sampled.append([worst_pair(wx @ vx, wy @ vx) for vx in vertices])
    reports = []
    for j, (c, vx) in enumerate(zip(levels, vertices)):
        det = worst_pair(vx[[a for a, _ in pairs]], vx[[b for _, b in pairs]])
        worst_level, worst_x, worst_y = max([det] + [chunk[j] for chunk in sampled],
                                            key=lambda r: r[0])
        violation = worst_level - c
        passed = bool(violation <= polytope.WITNESS_THRESHOLD)
        witness = None if passed else {"x": list(worst_x), "y": list(worst_y),
                                       "pullback_level": worst_level, "violation": violation}
        reports.append(CertificationReport(
            kind="midpoint_convexity",
            parameters={"q": q, "d": params.d, "alpha": params.alpha, "c": c,
                        "boundary_fraction": polytope.BOUNDARY_FRACTION},
            sample_count=int(pair_count + len(pairs)), seed=seed,
            min_margin=float(c - worst_level), passed=passed, witness=witness))
    return reports


@pytest.mark.parametrize("q", [3, 5, 8, 12])
def test_weights_kernel_gives_the_dirichlet_form_bits(q):
    buf = np.empty(DEFAULT_CHUNK * 4 * q)
    # the largest draw first, so the smaller ones land on stale buffer contents
    for n in (DEFAULT_CHUNK, 37, 1):
        wx, wy, xc, yc, u, v = _probe_workspace(buf, n, q)
        ours, numpys = spawn_rng(q, n), spawn_rng(q, n)
        for w in (wx, wy):
            got = _polytope_weights_into(ours, w, u)
            assert np.shares_memory(got, w)
            assert got.tobytes() == _dirichlet_form(q, n, numpys).tobytes(), n
        # the generator is left where the allocating form leaves it
        assert ours.random(3).tobytes() == numpys.random(3).tobytes(), n


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("pair_count", [1, 30_000, 37_501])
def test_probe_matches_the_allocating_reference(grid, pair_count):
    witnesses = 0
    for params, levels in GRIDS[grid]:
        want = _allocating_probe(levels, params, pair_count, seed=3)
        witnesses += sum(r.witness is not None for r in want)
        for threads in (1, 2):
            got = convexity_probe(levels, params, pair_count, seed=3, threads=threads)
            # every field, floats by repr: margin, sample count, witness x and y
            assert repr(got) == repr(want), threads
    # the q3-d3 witnesses are sampled rows, whose x and y the probe recomputes
    if grid == "q3-d3-witnesses" and pair_count > 1:
        assert witnesses > 0


def test_workers_never_share_a_probe_workspace():
    # more workers than cores and a short switch interval, so chunks interleave;
    # at (5, 10, 1) and c=6 the witness comes from a sample, so a clobbered chunk shows
    params = ModelParams(5, 10, 1.0)
    want = repr(convexity_probe([4.0, 6.0], params, 150_000, seed=3, threads=1))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert repr(convexity_probe([4.0, 6.0], params, 150_000, seed=3, threads=4)) == want
    finally:
        sys.setswitchinterval(old)


def test_a_probe_sweep_makes_one_buffer_per_worker(monkeypatch):
    made, got = [], {}
    sweep = polytope.sampled_sweep

    def recording(fn, total, seed, threads, floats_per_sample):
        made.append(floats_per_sample)

        def recorded(rng, n, buf):
            got.setdefault(threading.get_ident(), []).append(buf)
            return fn(rng, n, buf)
        return sweep(recorded, total, seed, threads, floats_per_sample)

    monkeypatch.setattr(polytope, "sampled_sweep", recording)
    q = 5
    convexity_probe(README_GRID, ModelParams(q, 1000, 1.0), 100_000, seed=0, threads=2)
    assert made == [4 * q]  # one sweep
    assert sum(len(bufs) for bufs in got.values()) == 4  # one call per chunk
    assert all(b.size == DEFAULT_CHUNK * 4 * q for bufs in got.values() for b in bufs)
    firsts = [bufs[0] for bufs in got.values()]
    assert len(firsts) <= 2
    assert all(b.base is bufs[0].base for bufs in got.values() for b in bufs)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(firsts, 2))


@pytest.mark.parametrize("params", [ModelParams(5, 1000, 1.0), ModelParams(5, INFINITY)])
def test_readme_grid_probe_traces_at_most_five_megabytes(params):
    # the workspace is 25,000 * 4 * 5 floats = 4.0 MB; fresh batches at every
    # level of every chunk traced 6.06 MB at (5, 1000, 1)
    convexity_probe(README_GRID, params, 100_000, seed=0, threads=1)  # warm: imports, caches
    tracemalloc.start()
    try:
        convexity_probe(README_GRID, params, 100_000, seed=0, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6, peak
