"""Exact partition-function oracles and the recursion pipeline against them."""

import math
import tracemalloc

import numpy as np
import pytest

from pottstree import (
    BoundaryCondition,
    BudgetError,
    DomainError,
    ModelParams,
    TreeSpec,
    brute_force_Z,
    conditional_root_distribution,
    dp_log_Z,
    enumerate_log_ratio_sets,
    level,
    oracle,
    recursion_root_log_ratios,
    root_log_ratios,
    root_summary,
)

IRREGULAR = TreeSpec(children=((1, 2, 3), (4, 5), (), (6,), (), (), ()), root=0)


def test_single_edge_closed_form():
    t = TreeSpec.regular(1, 1)
    for q, w in [(3, 0.5), (4, 0.25), (5, 1.0)]:
        assert brute_force_Z(t, q, w) == pytest.approx(q * (w + q - 1), rel=1e-14)
        assert math.exp(dp_log_Z(t, q, w)) == pytest.approx(q * (w + q - 1), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_free_star_closed_form(d):
    t = TreeSpec.regular(d, 1)
    q, w = 4, 0.3
    expected = q * (w + q - 1) ** d
    assert brute_force_Z(t, q, w) == pytest.approx(expected, rel=1e-13)
    assert math.exp(dp_log_Z(t, q, w)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q,w", [(3, 0.7), (4, 0.2), (3, 1.0), (3, 0.0)])
def test_brute_force_and_dp_agree_on_irregular_tree(q, w):
    rng = np.random.default_rng(1)
    b = BoundaryCondition.random(IRREGULAR, q, rng)
    for boundary in (None, b):
        for pin in (None, 1, q):
            z_brute = brute_force_Z(IRREGULAR, q, w, boundary, pinned_root=pin)
            z_dp = math.exp(dp_log_Z(IRREGULAR, q, w, boundary, pinned_root=pin))
            assert z_dp == pytest.approx(z_brute, rel=1e-12, abs=1e-300)


def test_oracles_reject_a_root_pinned_to_two_colors():
    t = TreeSpec.regular(2, 1)
    b = BoundaryCondition({0: 1})
    for z in (brute_force_Z, dp_log_Z):
        with pytest.raises(DomainError, match="conflicting"):
            z(t, 3, 0.5, b, pinned_root=2)
    assert dp_log_Z(t, 3, 0.5, b, pinned_root=1) == math.log(brute_force_Z(t, 3, 0.5, b))


def test_oracles_reject_bad_pins():
    t = TreeSpec.regular(2, 1)
    for z in (brute_force_Z, dp_log_Z):
        with pytest.raises(DomainError, match=r"^color 5 for vertex 1 outside 1\.\.4$"):
            z(t, 4, 0.5, BoundaryCondition({1: 5}))
        # q + 256 and 2**32 + 1 would wrap to a valid color (uint8 at q = 5)
        # and vertex (int32) if they were cast before the range check
        with pytest.raises(DomainError, match=r"^color 261 for vertex 1 outside 1\.\.5$"):
            z(t, 5, 0.5, BoundaryCondition({1: 261}))
        for v in (3, -1, 2**32 + 1, 2**70):
            with pytest.raises(DomainError, match=rf"^pinned vertex {v} not in tree$"):
                z(t, 4, 0.5, BoundaryCondition({v: 1}))
        # beyond int64 too, and still the first offending pin
        with pytest.raises(DomainError, match=rf"^color {2**70} for vertex 1 outside 1\.\.4$"):
            z(t, 4, 0.5, BoundaryCondition({1: 2**70}))
        with pytest.raises(DomainError, match=r"^pinned vertex -1 not in tree$"):
            z(t, 4, 0.5, BoundaryCondition({1: 1, -1: 1, 2**70: 1}))
        # the first offending pin in the boundary's order is named
        with pytest.raises(DomainError, match=r"^color 0 for vertex 2 outside"):
            z(t, 4, 0.5, BoundaryCondition({1: 1, 2: 0, 5: 1}))
    # internal pins are allowed: the root pinned, its two children free
    w = 0.5
    assert dp_log_Z(t, 4, w, BoundaryCondition({0: 1})) == pytest.approx(
        2 * math.log(w + 3), rel=1e-14)


def test_dp_pins_colors_beyond_one_byte():
    t = TreeSpec.regular(1, 1)
    q, w = 300, 0.5
    b = BoundaryCondition({1: q})
    assert dp_log_Z(t, q, w, b) == pytest.approx(math.log(q - 1 + w), rel=1e-14)


def test_dp_handles_zero_weight_conflict():
    t = TreeSpec.regular(1, 1)
    b = BoundaryCondition.from_leaf_colors(t, [1])
    assert dp_log_Z(t, 3, 0.0, b, pinned_root=1) == -math.inf
    assert brute_force_Z(t, 3, 0.0, b, pinned_root=1) == 0.0


def test_root_log_ratios_match_pinned_partition_functions():
    t = TreeSpec.regular(2, 2)
    q, w = 3, 0.37
    b = BoundaryCondition.from_leaf_colors(t, [1, 2, 3, 1])
    x = root_log_ratios(t, q, w, b)
    logs = [math.log(brute_force_Z(t, q, w, b, pinned_root=c)) for c in range(1, q + 1)]
    np.testing.assert_allclose(x, np.array(logs[:-1]) - logs[-1], rtol=0, atol=1e-12)


def test_root_log_ratios_rejects_degenerate_calls():
    t = TreeSpec.regular(2, 1)
    b = BoundaryCondition.monochromatic(t, 1)
    with pytest.raises(DomainError):
        root_log_ratios(t, 3, 0.0, b)
    single = TreeSpec.regular(1, 0)
    with pytest.raises(DomainError):
        root_log_ratios(single, 3, 0.5, BoundaryCondition({0: 1}))


def test_root_log_ratios_rejects_a_pinned_root():
    t = TreeSpec.regular(2, 2)
    b = BoundaryCondition({0: 1, **{v: 2 for v in t.leaves()}})
    with pytest.raises(DomainError, match="root is pinned"):
        root_log_ratios(t, 3, 0.5, b)


def test_root_log_ratios_of_a_free_single_vertex_are_zero():
    single = TreeSpec.regular(1, 0)
    np.testing.assert_array_equal(root_log_ratios(single, 3, 0.5, BoundaryCondition()),
                                  np.zeros(2))


@pytest.mark.parametrize("q, d, n, w", [(3, 3, 4, 0.25), (5, 2, 5, 0.8)])
def test_root_summary_is_bitwise_the_three_oracles(q, d, n, w):
    t = TreeSpec.regular(d, n)
    b = BoundaryCondition.random(t, q, np.random.default_rng(q))
    log_z, p, ratios = root_summary(t, q, w, b)
    assert log_z == dp_log_Z(t, q, w, b)
    np.testing.assert_array_equal(p, conditional_root_distribution(t, q, w, b))
    np.testing.assert_array_equal(ratios, root_log_ratios(t, q, w, b))


def _reference_tables(tree, q, w, boundary, pinned_root):
    """The per-vertex loop that the level-and-slot pass of ``_dp_tables`` replaces."""
    pinned = dict(boundary.colors)
    if pinned_root is not None:
        pinned[tree.root] = pinned_root
    table = np.zeros((tree.n_vertices, q))
    for v in reversed(tree.topological_order()):
        lv = np.zeros(q)
        for c in tree.children[v]:
            lc = table[c]
            m = lc.max()
            if m == -np.inf:
                lv += -np.inf
                continue
            e = np.exp(lc - m)
            with np.errstate(divide="ignore"):
                lv += m + np.log(e.sum() - (1.0 - w) * e)
        if v in pinned:
            keep = lv[pinned[v] - 1]
            lv = np.full(q, -np.inf)
            lv[pinned[v] - 1] = keep
        table[v] = lv
    return table


def _random_query(rng):
    """A random tree with shuffled labels and child order, and random pins on it."""
    n = int(rng.integers(1, 40))
    parent = [int(rng.integers(0, v)) for v in range(1, n)]
    label = rng.permutation(n)
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent, start=1):
        children[label[p]].append(int(label[v]))
    for ch in children:
        rng.shuffle(ch)
    tree = TreeSpec(tuple(tuple(ch) for ch in children), root=int(label[0]))
    q = int(rng.integers(2, 11))
    w = float(rng.choice([0.0, rng.uniform(), 1.0]))
    pinned = rng.random(n) < rng.uniform(0, 0.6)
    boundary = BoundaryCondition({int(v): int(rng.integers(1, q + 1))
                                  for v in np.flatnonzero(pinned)})
    pinned_root = None
    if rng.random() < 0.3:
        pinned_root = boundary.colors.get(tree.root, int(rng.integers(1, q + 1)))
    return tree, q, w, boundary, pinned_root


def _assert_bitwise_reference(tree, q, w, boundary, pinned_root):
    got = oracle._dp_tables(tree, q, w, boundary, pinned_root)
    want = _reference_tables(tree, q, w, boundary, pinned_root)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dp_tables_are_bitwise_the_per_vertex_loop_on_random_trees():
    rng = np.random.default_rng(2022)
    single = TreeSpec(((),))
    _assert_bitwise_reference(single, 3, 0.5, BoundaryCondition(), None)
    _assert_bitwise_reference(single, 3, 0.5, BoundaryCondition(), 2)
    for _ in range(500):
        _assert_bitwise_reference(*_random_query(rng))


@pytest.mark.parametrize("n", range(6, 11))
def test_dp_tables_are_bitwise_the_per_vertex_loop_on_regular_trees(n):
    t = TreeSpec.regular(3, n)
    b = BoundaryCondition.random(t, 3, np.random.default_rng(n))
    _assert_bitwise_reference(t, 3, ModelParams(3, 3, 1.0).w, b, None)


def test_dp_pass_peak_memory_is_within_three_tables():
    t = TreeSpec.regular(3, 10)
    b = BoundaryCondition.random(t, 3, np.random.default_rng(0))
    tracemalloc.start()
    try:
        table = oracle._dp_tables(t, 3, 0.25, b, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


def test_dp_budget_error_names_the_limit():
    n = oracle.DP_VERTEX_BUDGET + 1
    star = TreeSpec((tuple(range(1, n)),) + ((),) * (n - 1))
    with pytest.raises(BudgetError, match=f"^{n} vertices exceed the dp budget "
                                          r"DP_VERTEX_BUDGET=1000000$"):
        dp_log_Z(star, 3, 0.5)


def test_conditional_distribution_monochromatic_star():
    q, d, w = 3, 4, 0.6
    t = TreeSpec.regular(d, 1)
    b = BoundaryCondition.monochromatic(t, 1)
    p = conditional_root_distribution(t, q, w, b)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert p[0] == pytest.approx(w**d / (w**d + q - 1), rel=1e-13)
    assert p[1] == pytest.approx(p[2], rel=1e-13)


def test_conditional_distribution_is_uniform_at_weight_one():
    t = TreeSpec.regular(2, 2)
    b = BoundaryCondition.from_leaf_colors(t, [1, 1, 2, 3])
    p = conditional_root_distribution(t, 4, 1.0, b)
    assert np.abs(p - 1 / 4).max() <= 1e-15


@pytest.mark.parametrize("q,d,n,w", [
    (3, 2, 1, 0.5), (3, 2, 2, 0.5), (3, 2, 3, 0.25),
    (4, 3, 2, 0.4), (5, 2, 2, 0.8), (3, 4, 2, 0.55),
])
def test_recursion_pipeline_matches_dp(q, d, n, w):
    rng = np.random.default_rng(q * 100 + d * 10 + n)
    t = TreeSpec.regular(d, n)
    leaf_colors = rng.integers(1, q + 1, size=d**n)
    b = BoundaryCondition.from_leaf_colors(t, leaf_colors)
    from_dp = root_log_ratios(t, q, w, b)
    from_recursion = recursion_root_log_ratios(q, d, n, w, leaf_colors)
    np.testing.assert_allclose(from_recursion, from_dp, rtol=0, atol=1e-10)


def test_recursion_matches_dp_on_a_random_boundary_at_depth_12():
    # 797,161 vertices: the deepest d=3 tree inside the dp budget
    q, d, n = 3, 3, 12
    w = ModelParams(q, d, 1.0).w
    t = TreeSpec.regular(d, n)
    leaf_colors = np.random.default_rng(12).integers(1, q + 1, size=d**n)
    b = BoundaryCondition.from_leaf_colors(t, leaf_colors)
    np.testing.assert_allclose(recursion_root_log_ratios(q, d, n, w, leaf_colors),
                               root_log_ratios(t, q, w, b), rtol=0, atol=1e-9)


def test_recursion_pipeline_input_checks():
    with pytest.raises(DomainError):
        recursion_root_log_ratios(3, 2, 1, 0.0, [1, 2])  # w = 0 has no finite patterns
    with pytest.raises(DomainError):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1, 2, 3])  # wrong leaf count
    with pytest.raises(DomainError):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1, 5])  # color out of range


def test_depth_one_enumeration_is_exhaustive():
    # compare against root log-ratios of every boundary condition directly
    q, d, w = 3, 2, 1 - 0.8 * 3 / 3  # alpha = 0.8
    t = TreeSpec.regular(d, 1)
    seen = []
    for c1 in range(1, q + 1):
        for c2 in range(1, q + 1):
            b = BoundaryCondition.from_leaf_colors(t, [c1, c2])
            seen.append(root_log_ratios(t, q, w, b))
    expected = np.unique(np.round(seen, 9), axis=0)
    got = np.unique(np.round(enumerate_log_ratio_sets(1, d, q, w), 9), axis=0)
    np.testing.assert_array_equal(got, expected)


def test_depth_two_enumeration_is_exhaustive():
    q, d, w = 3, 2, 0.45
    t = TreeSpec.regular(d, 2)
    seen = []
    for code in range(q ** 4):
        colors = [(code // q**k) % q + 1 for k in range(4)]
        b = BoundaryCondition.from_leaf_colors(t, colors)
        seen.append(root_log_ratios(t, q, w, b))
    expected = np.unique(np.round(seen, 9), axis=0)
    got = np.unique(np.round(enumerate_log_ratio_sets(2, d, q, w), 9), axis=0)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_depth_one_sets_stay_in_the_invariant_polytope():
    q, d = 3, 4
    w = 1 - q / (d + 1)  # alpha = 1
    vectors = enumerate_log_ratio_sets(1, d, q, w)
    assert (level(vectors) <= q + 1 + 1e-12).all()


def test_enumeration_budget_guards():
    with pytest.raises(BudgetError):
        enumerate_log_ratio_sets(4, 2, 3, 0.5)
    with pytest.raises(BudgetError):
        enumerate_log_ratio_sets(3, 4, 4, 0.5, max_states=10)


def test_brute_force_budget_guard():
    t = TreeSpec.regular(3, 3)
    with pytest.raises(BudgetError):
        brute_force_Z(t, 5, 0.5)


def test_brute_force_rejects_bad_weight():
    t = TreeSpec.regular(1, 1)
    with pytest.raises(DomainError):
        brute_force_Z(t, 3, 1.5)
    with pytest.raises(DomainError):
        brute_force_Z(t, 3, -0.1)
