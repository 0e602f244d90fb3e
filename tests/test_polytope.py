"""Invariant polytopes: geometry, sampling, and image-midpoint probes."""

import itertools

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
    membership,
    polytope_vertices,
    sample_face,
    sample_fundamental,
    sample_polytope,
    spawn_rng,
    transposition,
)
from pottstree import polytope
from pottstree.polytope import _midpoint_pullback_levels, _witness_cloud, _worst_unordered_pair


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
        report = membership(x, c)
        expected = orbit_margin(x, c, q)
        assert report.margin == pytest.approx(expected, abs=1e-12)
        assert report.inside == (expected >= 0)
        assert report.inside == (level(x) <= c)


def test_membership_tight_constraint_labels():
    # on the sum facet only the coordinate-sum constraint is tight
    r = membership(np.array([-1.2, -0.8]), 2.0)
    assert r.margin == pytest.approx(0.0, abs=1e-15)
    assert r.tight_constraint == 0
    # pushing coordinate 1 up makes color 1's constraint tightest
    r = membership(np.array([0.9, 0.1]), 2.0)
    assert r.tight_constraint == 1


def test_membership_rejects_batches_and_bad_levels():
    with pytest.raises(DomainError):
        membership(np.zeros((2, 2)), 1.0)
    with pytest.raises(DomainError):
        membership(np.zeros(2), 0.0)


@pytest.mark.parametrize("q,c", [(3, 1.0), (4, 2.5), (5, 6.0)])
def test_sampled_points_lie_inside(q, c):
    x = sample_polytope(c, q, 500, spawn_rng(1))
    assert (level(x) <= c * (1 + 1e-12)).all()
    x = sample_fundamental(c, q, 500, spawn_rng(2))
    assert (x <= 1e-12).all()
    assert (x.sum(axis=1) >= -c * (1 + 1e-12)).all()


@pytest.mark.parametrize("q", [3, 4, 5])
def test_every_point_has_an_orbit_representative_in_the_fundamental_domain(q):
    c = 3.0
    x = sample_polytope(c, q, 300, spawn_rng(7))
    for row in x:
        embedded_max = max(float(row.max()), 0.0)
        k = int(np.argmax(row)) + 1 if row.max() > 0 else q
        y = apply_permutation(transposition(q, k, q), row)
        assert (y <= 1e-12).all()
        assert y.sum() >= -c - 1e-9
        assert embedded_max >= 0.0


def test_face_samples_sit_on_the_sum_facet():
    q, c = 4, 2.0
    x = sample_face(c, q, 4000, spawn_rng(3))
    np.testing.assert_allclose(x.sum(axis=1), -c, rtol=0, atol=1e-12)
    assert (x <= 0).all()
    np.testing.assert_allclose(level(x), np.full(len(x), c), rtol=0, atol=1e-12)
    # coordinates are exchangeable, so the mean is the diagonal face point
    np.testing.assert_allclose(x.mean(axis=0), -c / (q - 1), atol=5 * c / np.sqrt(len(x)))


def test_boundary_fraction_puts_samples_on_facets():
    q, c = 3, 2.0
    x = sample_polytope(c, q, 4000, spawn_rng(4))
    on_facet = np.abs(level(x) - c) <= 1e-9
    assert 0.45 <= on_facet.mean() <= 0.55  # BOUNDARY_FRACTION = 0.5


@pytest.mark.parametrize("params", [ModelParams(3, 1000, 1.0), ModelParams(3, INFINITY)])
def test_midpoint_probe_passes_in_the_contractive_regime(params):
    report = convexity_probe(2.0, params, pair_count=2000, seed=0)
    assert report.passed
    assert report.min_margin >= -1e-9
    assert report.witness is None


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


@pytest.mark.parametrize("chunk", [polytope.DEFAULT_CHUNK, 97])
@pytest.mark.parametrize("params, c", [(ModelParams(3, 3, 1.0), 6.0),
                                       (ModelParams(4, 5, 1.0), 5.0)])
def test_witness_scan_picks_the_pair_of_the_ordered_scan(params, c, chunk, monkeypatch):
    monkeypatch.setattr(polytope, "DEFAULT_CHUNK", chunk)  # 97: blocks end mid-row
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

