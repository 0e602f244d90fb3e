"""Invariant polytopes: geometry, sampling, and image-midpoint probes."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from pottstree import (
    INFINITY,
    DomainError,
    ModelParams,
    all_permutations,
    apply_permutation,
    convexity_probe,
    convexity_witness_search,
    level,
    log_ratio_map,
    log_ratio_map_preimage,
    polytope_vertices,
    spawn_rng,
)
from pottstree import polytope
from pottstree.polytope import (_dirichlet_weights_into, _midpoint_pullback_levels,
                                _polytope_weights_into, _witness_cloud, _worst_unordered_pair)


def polytope_samples(c, q, count, rng):
    """The probe's samples of ``P_c``: boundary-biased vertex weights times the vertices."""
    w = _polytope_weights_into(rng, np.empty((count, q)), np.empty(count))
    return w @ polytope_vertices(c, q)


def orbit_margin(x, c, q):
    """Membership margin via the full permutation orbit of the sum constraint."""
    return min(c + apply_permutation(p, x).sum() for p in all_permutations(q))


def test_vertices_shape_and_levels():
    v = polytope_vertices(2.5, 4)
    assert v.shape == (4, 3)
    np.testing.assert_allclose(level(v), np.full(4, 2.5), rtol=0, atol=1e-12)


def test_vertices_form_one_orbit():
    q, c = 4, 1.5
    v = polytope_vertices(c, q)
    rows = {tuple(np.round(r, 9)) for r in v}
    for perm in all_permutations(q):
        for r in v:
            assert tuple(np.round(apply_permutation(perm, r), 9)) in rows


def test_level_basics():
    assert level(np.zeros(3)) == 0.0
    assert level(np.array([1.0, 1.0])) == 1.0      # the (c, ..., c) vertex at c=1
    assert level(np.array([-2.0, 0.0])) == 2.0     # the -c e_1 vertex at c=2
    x = np.array([0.3, -0.7, 0.1])
    assert level(3.0 * x) == pytest.approx(3.0 * level(x), rel=1e-14)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_membership_margin_matches_orbit_enumeration(q):
    rng = np.random.default_rng(q)
    c = 2.0
    for _ in range(200):
        x = rng.normal(scale=1.5, size=q - 1)
        expected = orbit_margin(x, c, q)
        assert c - level(x) == pytest.approx(expected, abs=1e-12)
        assert (level(x) <= c) == (expected >= 0)


@pytest.mark.parametrize("q,c", [(3, 1.0), (4, 2.5), (5, 6.0)])
def test_sampled_points_lie_inside(q, c):
    x = polytope_samples(c, q, 500, spawn_rng(1))
    assert (level(x) <= c * (1 + 1e-12)).all()
    weights = np.empty((q - 1, 500))
    x = -c * _dirichlet_weights_into(spawn_rng(2), np.empty((500, q)), np.empty(500), weights).T
    assert (x <= 1e-12).all()
    assert (x.sum(axis=1) >= -c * (1 + 1e-12)).all()


@pytest.mark.parametrize("q", [3, 4, 5])
def test_every_point_has_an_orbit_representative_in_the_fundamental_domain(q):
    c = 3.0
    x = polytope_samples(c, q, 300, spawn_rng(7))
    for row in x:
        embedded_max = max(float(row.max()), 0.0)
        k = int(np.argmax(row)) + 1 if row.max() > 0 else q
        swap = tuple(q if i == k else k if i == q else i for i in range(1, q + 1))
        y = apply_permutation(swap, row)
        assert (y <= 1e-12).all()
        assert y.sum() >= -c - 1e-9
        assert embedded_max >= 0.0


def test_boundary_fraction_puts_samples_on_facets():
    q, c = 3, 2.0
    x = polytope_samples(c, q, 4000, spawn_rng(4))
    on_facet = np.abs(level(x) - c) <= 1e-9
    assert 0.45 <= on_facet.mean() <= 0.55  # BOUNDARY_FRACTION = 0.5


@pytest.mark.parametrize("params", [ModelParams(3, 1000, 1.0), ModelParams(3, INFINITY)])
def test_midpoint_probe_passes_in_the_contractive_regime(params):
    report = convexity_probe([2.0], params, pair_count=2000, seed=0)[0]
    assert report.passed
    assert report.min_margin >= -1e-9
    assert report.witness is None


def test_a_grid_probe_peaks_like_a_single_level_probe():
    # each level keeps copies of its worst rows; views would keep every
    # level's whole batch alive (42 MB against 7 MB here)
    params = ModelParams(5, 1000, 1.0)
    grid = [0.5 * k for k in range(1, 13)]
    convexity_probe(grid[:1], params, 30_000, seed=0)  # warm: imports, caches
    peaks = []
    for levels in (grid[:1], grid):
        tracemalloc.start()
        try:
            convexity_probe(levels, params, 30_000, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_witness_search_finds_nonconvexity_at_low_degree():
    params = ModelParams(3, 3, 1.0)
    witness = convexity_witness_search(params, [6.0], pairs_per_c=4000, seed=0)
    assert witness is not None
    assert witness["violation"] > 1e-6
    # confirm independently: both endpoints inside P_c, midpoint pullback outside
    c = witness["c"]
    x, y = np.asarray(witness["x"]), np.asarray(witness["y"])
    assert level(x) <= c * (1 + 1e-12) and level(y) <= c * (1 + 1e-12)
    mid = 0.5 * (log_ratio_map(x, params) + log_ratio_map(y, params))
    back, valid = log_ratio_map_preimage(mid[None, :], params)
    assert (not valid[0]) or level(back[0]) > c + 1e-6


def test_witness_search_reports_none_when_there_is_nothing_to_find():
    params = ModelParams(3, 1000, 1.0)
    assert convexity_witness_search(params, [1.0], pairs_per_c=500, seed=0) is None


# chunk 97 scans one row per block, 500 a few rows with their mirror pairs;
# at (3, 5) and c=5 the first pair without a preimage is (2, 14)
@pytest.mark.parametrize("chunk", [polytope.DEFAULT_CHUNK, 97, 500])
@pytest.mark.parametrize("params, c", [(ModelParams(3, 3, 1.0), 6.0),
                                       (ModelParams(4, 5, 1.0), 5.0),
                                       (ModelParams(3, 5, 1.0), 5.0)])
def test_witness_scan_picks_the_pair_of_the_ordered_scan(params, c, chunk, monkeypatch):
    monkeypatch.setattr(polytope, "DEFAULT_CHUNK", chunk)
    q = params.q
    cloud = _witness_cloud(q, 500, seed=0, ci=0) @ polytope_vertices(c, q)
    n = len(cloud)
    assert len(np.unique(cloud, axis=0)) < n  # vertices recur at the ends of edge grids
    # reference: every ordered pair, F evaluated on the repeated and tiled rows
    lev = _midpoint_pullback_levels(log_ratio_map(np.repeat(cloud, n, axis=0), params),
                                    log_ratio_map(np.tile(cloud, (n, 1)), params), params)
    k = int(np.argmax(lev))
    assert _worst_unordered_pair(log_ratio_map(cloud, params), params) == (lev[k], k // n, k % n)


def test_midpoint_pullback_levels_are_bitwise_symmetric():
    params = ModelParams(3, 3, 1.0)
    rng = np.random.default_rng(5)
    fx, fy = rng.uniform(-4.0, 4.0, size=(2, 5000, 2))
    lev = _midpoint_pullback_levels(fx, fy, params)
    assert np.isinf(lev).any() and np.isfinite(lev).any()
    np.testing.assert_array_equal(lev, _midpoint_pullback_levels(fy, fx, params))



def _gather_scan_search(params, c_values, pairs_per_c, seed):
    """The witness search as written before row blocks, as a reference.

    Scans the triangle ``i <= j`` in row-major chunks of ``DEFAULT_CHUNK``
    gathered pairs, then runs 12 rounds of local refinement around the worst
    pair by perturbing its vertex weights; every chunk and every round runs,
    also after a pair without a preimage.  The search itself only scans, so a
    match shows that refinement does not raise the witness of that case.
    """
    refine_rounds = 12
    q = params.q
    best = None
    for ci, c in enumerate(c_values):
        vx = polytope_vertices(c, q)
        w_cloud = _witness_cloud(q, pairs_per_c, seed, ci)
        fc = log_ratio_map(w_cloud @ vx, params)
        ii, jj = np.triu_indices(len(fc))
        top_level, wx, wy = -np.inf, None, None
        for lo in range(0, len(ii), polytope.DEFAULT_CHUNK):
            i, j = ii[lo:lo + polytope.DEFAULT_CHUNK], jj[lo:lo + polytope.DEFAULT_CHUNK]
            lev = _reference_pullback_levels(fc[i], fc[j], params)
            k = int(np.argmax(lev))
            if lev[k] > top_level:
                top_level, wx, wy = float(lev[k]), w_cloud[i[k]].copy(), w_cloud[j[k]].copy()
        sigma = 0.15
        for r in range(refine_rounds):
            rr = spawn_rng(seed, ci, 3, r)
            px = np.vstack([wx, np.abs(wx + sigma * rr.standard_normal((400, q)))])
            py = np.vstack([wy, np.abs(wy + sigma * rr.standard_normal((400, q)))])
            px /= px.sum(axis=1, keepdims=True)
            py /= py.sum(axis=1, keepdims=True)
            lev = _reference_pullback_levels(log_ratio_map(px @ vx, params),
                                             log_ratio_map(py @ vx, params), params)
            k = int(np.argmax(lev))
            if lev[k] > top_level:
                top_level, wx, wy = float(lev[k]), px[k].copy(), py[k].copy()
            sigma *= 0.6
        violation = top_level - c
        if violation > polytope.WITNESS_THRESHOLD and (best is None
                                                       or violation > best["violation"]):
            best = {"c": float(c), "x": list(wx @ vx), "y": list(wy @ vx),
                    "pullback_level": top_level, "violation": float(violation)}
    return best


def _reference_pullback_levels(fx, fy, params):
    back, valid = log_ratio_map_preimage(0.5 * (fx + fy), params)
    out = np.full(valid.shape, np.inf)
    out[valid] = level(back[valid])
    return out


@pytest.mark.parametrize("params, c_values, seed", [
    *[(ModelParams(3, 3, 1.0), [6.0, 8.0, 12.0], seed) for seed in range(8)],
    (ModelParams(3, 3, 1.0), [4.0, 5.0, 6.0], 0),  # a finite witness, then +inf, then a skip
    (ModelParams(4, 5, 1.0), [5.0], 0),
    (ModelParams(3, 5, 1.0), [2.0, 4.0], 0),
    (ModelParams(4, 30, 1.0), [2.0, 5.0], 0),
    (ModelParams(3, 1000, 1.0), [1.0, 2.0, 4.0], 0),
    (ModelParams(3, INFINITY), [1.0, 2.0, 3.0], 0),
    (ModelParams(5, 10, 1.0), [6.0], 0),  # a finite witness, violation 0.413
    (ModelParams(6, 30, 1.0), [7.0], 0),  # violation 0.183
    (ModelParams(4, 12, 0.8), [5.0], 0),  # violation 0.0268
])
def test_witness_search_matches_the_gather_scan(params, c_values, seed):
    got = convexity_witness_search(params, c_values, pairs_per_c=2000, seed=seed)
    assert repr(got) == repr(_gather_scan_search(params, c_values, 2000, seed))
    if params.d >= 1000:
        assert got is None


def test_witness_search_stops_once_a_pair_has_no_preimage(monkeypatch):
    # criterion 06: the first row block holds a pair without a preimage at c=6,
    # so neither the rest of the scan nor c=8, 12 run
    pairs = []

    def counting(fx, fy, params):
        pairs.append(np.size(fx) // np.shape(fx)[-1])
        return pullback(fx, fy, params)

    pullback = polytope._midpoint_pullback_levels
    monkeypatch.setattr(polytope, "_midpoint_pullback_levels", counting)
    witness = convexity_witness_search(ModelParams(3, 3, 1.0), [6.0, 8.0, 12.0],
                                       pairs_per_c=20_000, seed=0)
    assert witness["c"] == 6.0 and witness["pullback_level"] == np.inf
    n = len(_witness_cloud(3, 20_000, seed=0, ci=0))
    assert len(pairs) == 1 and pairs[0] <= max(polytope.DEFAULT_CHUNK, n), pairs


@pytest.mark.parametrize("pairs_per_c", [-5, -1, 2000.0, float("nan")])
def test_witness_search_rejects_a_pair_budget_that_is_no_count(pairs_per_c):
    with pytest.raises(DomainError, match=re.escape(f"integer >= 0, got {pairs_per_c!r}")):
        convexity_witness_search(ModelParams(3, 3, 1.0), [6.0], pairs_per_c=pairs_per_c)
