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


def _pin_root(tree, boundary, color):
    """``boundary`` with the root pinned to ``color`` as well; ``boundary`` itself for ``None``."""
    return boundary if color is None else BoundaryCondition({**boundary.colors, tree.root: color})


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
    t = TreeSpec.regular(2, 2)
    rng = np.random.default_rng(1)
    b = BoundaryCondition.random(t, q, rng)
    for boundary in (BoundaryCondition(), b):
        for pin in (None, 1, q):
            pinned = _pin_root(t, boundary, pin)
            z_brute = brute_force_Z(t, q, w, pinned)
            z_dp = math.exp(dp_log_Z(t, q, w, pinned))
            assert z_dp == pytest.approx(z_brute, rel=1e-12, abs=1e-300)


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
    b = _pin_root(t, BoundaryCondition.from_leaf_colors(t, [1]), 1)
    assert dp_log_Z(t, 3, 0.0, b) == -math.inf
    assert brute_force_Z(t, 3, 0.0, b) == 0.0


def test_root_log_ratios_match_pinned_partition_functions():
    t = TreeSpec.regular(2, 2)
    q, w = 3, 0.37
    b = BoundaryCondition.from_leaf_colors(t, [1, 2, 3, 1])
    x = root_log_ratios(t, q, w, b)
    logs = [math.log(brute_force_Z(t, q, w, _pin_root(t, b, c))) for c in range(1, q + 1)]
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
    log_z, p, ratios, row = root_summary(t, q, w, b)
    assert log_z == dp_log_Z(t, q, w, b)
    np.testing.assert_array_equal(p, conditional_root_distribution(t, q, w, b))
    np.testing.assert_array_equal(ratios, root_log_ratios(t, q, w, b))
    # entry c-1 of the root row is log Z with the root pinned to c, sign bit included
    pinned = np.array([dp_log_Z(t, q, w, _pin_root(t, b, c)) for c in range(1, q + 1)])
    assert np.array_equal(row.view(np.int64), pinned.view(np.int64))


def _reference_tables(children, root, q, w, boundary):
    """The per-vertex loop that the level-and-slot pass of ``_dp_tables`` replaces."""
    pinned = dict(boundary.colors)
    order = [root]  # a BFS over the child lists: parents before children
    for v in order:
        order.extend(children[v])
    table = np.zeros((len(children), q))
    for v in reversed(order):
        lv = np.zeros(q)
        for c in children[v]:
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


def _regular_children(d, n):
    """Vertex ``v``'s children in the BFS numbering of ``TreeSpec.regular(d, n)``."""
    internal = sum(d**k for k in range(n))
    return [range(d * v + 1, d * v + d + 1) for v in range(internal)] + [()] * d**n


#: The exclusive bound on the depth of a random query's tree, by down-degree: at most 40 vertices.
_DEPTHS = {1: 40, 2: 5, 3: 4, 4: 3}


def _random_query(rng, colours=(2, 11)):
    """A random regular tree and random pins anywhere on it, the root included."""
    d = int(rng.integers(1, 5))
    tree = TreeSpec.regular(d, int(rng.integers(0, _DEPTHS[d])))
    children = _regular_children(tree.d, tree.n)
    q = int(rng.integers(*colours))
    w = float(rng.choice([0.0, rng.uniform(), 1.0]))
    pinned = rng.random(tree.n_vertices) < rng.uniform(0, 0.6)
    pins = {int(v): int(rng.integers(1, q + 1)) for v in np.flatnonzero(pinned)}
    if rng.random() < 0.3:  # the root pinned too, to its boundary colour if it has one
        pins[tree.root] = pins.get(tree.root, int(rng.integers(1, q + 1)))
    return tree, children, q, w, BoundaryCondition(pins)


def _assert_bitwise_reference(tree, children, q, w, boundary):
    # the level pass keeps no per-vertex table, so the root row is what it returns
    got = oracle._dp_tables(tree, q, w, boundary)
    want = _reference_tables(children, tree.root, q, w, boundary)[tree.root]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dp_tables_are_bitwise_the_per_vertex_loop_on_random_trees():
    rng = np.random.default_rng(2022)
    for d in (1, 3):
        single = TreeSpec.regular(d, 0)
        _assert_bitwise_reference(single, [()], 3, 0.5, BoundaryCondition())
        _assert_bitwise_reference(single, [()], 3, 0.5, BoundaryCondition({0: 2}))
    for _ in range(500):
        _assert_bitwise_reference(*_random_query(rng))


@pytest.mark.parametrize("n", range(6, 11))
def test_dp_tables_are_bitwise_the_per_vertex_loop_on_regular_trees(n):
    t = TreeSpec.regular(3, n)
    b = BoundaryCondition.random(t, 3, np.random.default_rng(n))
    _assert_bitwise_reference(t, _regular_children(3, n), 3, ModelParams(3, 3, 1.0).w, b)


def test_dp_tables_are_bitwise_the_per_vertex_loop_from_eight_colours():
    # from 8 colours numpy sums a message's colours pairwise, not left to right
    rng = np.random.default_rng(8)
    for _ in range(300):
        _assert_bitwise_reference(*_random_query(rng, colours=(8, 14)))
    for q in (8, 9, 12):
        t = TreeSpec.regular(3, 5)
        b = BoundaryCondition.random(t, q, np.random.default_rng(q))
        for w in (0.0, 0.77, 1.0):
            _assert_bitwise_reference(t, _regular_children(3, 5), q, w, b)


def _level_pins(tree, q, rng, modes):
    """Pins on ``tree`` level by level: ``modes[depth]`` is "full", "mixed" or "free"."""
    share = {"full": 1.0, "mixed": 0.5, "free": 0.0}
    return BoundaryCondition({v: int(rng.integers(1, q + 1))
                              for depth, mode in enumerate(modes)
                              for v in tree.level(depth) if rng.random() < share[mode]})


@pytest.mark.parametrize("q", [3, 4, 8, 9, 10, 11, 12, 13])
def test_dp_tables_are_bitwise_the_per_vertex_loop_on_fully_pinned_levels(q):
    # fully pinned levels send closed-form messages; from 8 colours the colour sum is pairwise
    rng = np.random.default_rng(230 + q)
    for modes in [("free", "full", "mixed", "full", "full"),
                  ("full", "full", "full", "free", "full"),
                  ("mixed", "free", "full", "mixed", "mixed"),
                  ("full",) * 5]:
        tree = TreeSpec.regular(int(rng.integers(1, 5)), len(modes) - 1)
        children = _regular_children(tree.d, tree.n)
        b = _level_pins(tree, q, rng, modes)
        w_random = float(rng.uniform(0.0, 0.5))  # where 1 - (1 - w) is not always w
        for w in (0.0, 1.0, w_random):
            for root_pin in (None, b.colors.get(tree.root, int(rng.integers(1, q + 1)))):
                _assert_bitwise_reference(tree, children, q, w, _pin_root(tree, b, root_pin))


@pytest.mark.parametrize("q", [3, 8, 13])
def test_pinned_messages_are_bitwise_the_messages_of_a_one_entry_column(q):
    rng = np.random.default_rng(q)
    width = 600
    pinned = rng.integers(1, q + 1, width).astype(np.min_scalar_type(q))
    entry = rng.choice([-0.0, 0.0, -np.inf, 1e300, -1e300, 5e-324], width)
    entry[::3] = rng.normal(0.0, 40.0, len(entry[::3]))
    for w in (0.0, 1.0, 0.1, *rng.uniform(0.0, 1.0, 3)):
        column = np.full((q, width), -np.inf)  # what the per-vertex pass sends up
        column[pinned - 1, np.arange(width)] = entry
        logs = rng.normal(0.0, 10.0, (q, width))  # the unmasked level holds anything there
        logs[pinned - 1, np.arange(width)] = entry
        oracle._messages_in_place(column, w)
        oracle._pinned_messages_in_place(logs, pinned, w)
        assert np.array_equal(logs.view(np.int64), column.view(np.int64))


def test_dp_pass_peak_memory_is_bounded_by_the_widest_level():
    t = TreeSpec.regular(3, 10)
    b = BoundaryCondition.random(t, 3, np.random.default_rng(0))
    level_nbytes = 3 * len(t.level(t.n)) * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        oracle._dp_tables(t, 3, 0.25, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the widest level, its parents' level, and a max and a sum per vertex
    assert peak <= 2.25 * level_nbytes
    # a path holds one vertex per level: a per-vertex table would be 96 kB
    path = TreeSpec.regular(1, 1_999)
    tracemalloc.start()
    try:
        oracle._dp_tables(path, 6, 0.25, BoundaryCondition({1_999: 2}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24_000


def test_dp_budget_error_names_the_limit():
    n = oracle.DP_VERTEX_BUDGET + 1
    star = TreeSpec.regular(n - 1, 1)
    with pytest.raises(BudgetError, match=f"^{n} vertices exceed the dp budget "
                                          r"DP_VERTEX_BUDGET=1000000$"):
        dp_log_Z(star, 3, 0.5)


def test_dp_budget_is_checked_before_any_per_vertex_array():
    # 7,174,453 vertices: a pin array alone would take 7 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"^7174453 vertices exceed the dp budget "
                                              r"DP_VERTEX_BUDGET=1000000$"):
            dp_log_Z(TreeSpec.regular(3, 14), 3, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [7, 8])
def test_brute_force_budget_error_names_the_power_not_its_digits(n):
    tree = TreeSpec.regular(3, n)
    with pytest.raises(BudgetError, match=rf"^3\*\*{tree.n_vertices} colorings exceed ") as exc:
        brute_force_Z(tree, 3, 0.5)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("n", [9000, 10000])
def test_recursion_leaf_count_error_names_the_power_not_its_digits(n):
    # 3**10000 used to exceed Python's int-to-text digit limit; 3**9000 filled the message
    with pytest.raises(DomainError, match=rf"^need 3\*\*{n} leaf colors, got shape \(3,\)$") as exc:
        recursion_root_log_ratios(3, 3, n, 0.5, [1, 2, 3])
    assert len(str(exc.value)) < 200


def test_conditional_distribution_monochromatic_star():
    q, d, w = 3, 4, 0.6
    t = TreeSpec.regular(d, 1)
    b = BoundaryCondition.monochromatic(t, 1)
    p = conditional_root_distribution(t, q, w, b)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert p[0] == pytest.approx(w**d / (w**d + q - 1), rel=1e-13)
    assert p[1] == pytest.approx(p[2], rel=1e-13)


@pytest.mark.parametrize("w", [0.0, 1.5, -0.25])
def test_conditional_distribution_error_names_the_weight(w):
    t = TreeSpec.regular(2, 1)
    with pytest.raises(DomainError, match=rf"^the conditional distribution requires w in "
                                          rf"\(0, 1\], got w={w}$"):
        conditional_root_distribution(t, 3, w, BoundaryCondition.monochromatic(t, 1))


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
    with pytest.raises(DomainError, match="w > 0"):
        recursion_root_log_ratios(3, 2, 1, 0.0, [1, 2])  # w = 0 has no finite patterns
    with pytest.raises(DomainError):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1, 2, 3])  # wrong leaf count
    with pytest.raises(DomainError):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1, 5])  # color out of range


def test_recursion_pipeline_refuses_leaf_colors_that_are_not_integers():
    # used to be truncated to [1, 2]
    with pytest.raises(DomainError, match=r"^leaf color 1\.7 is not an integer$"):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1.7, 2.2])
    # beyond int64 the range check refuses it too, where a cast to int used to overflow
    with pytest.raises(DomainError, match=r"^leaf colors must lie in 1\.\.q$"):
        recursion_root_log_ratios(3, 2, 1, 0.5, [1, 2**70])


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


def test_enumeration_budget_guards(monkeypatch):
    with pytest.raises(BudgetError):
        enumerate_log_ratio_sets(4, 2, 3, 0.5)
    monkeypatch.setattr(oracle, "ENUMERATION_STATE_BUDGET", 10)
    with pytest.raises(BudgetError, match="state budget 10$"):
        enumerate_log_ratio_sets(3, 4, 4, 0.5)


def test_brute_force_enumerates_every_coloring_across_chunks():
    # 3**13 colorings: eight chunks of BRUTE_FORCE_CHUNK
    t = TreeSpec.regular(3, 2)
    q, w = 3, 0.9
    assert brute_force_Z(t, q, w) == pytest.approx(q * (w + q - 1) ** 12, rel=1e-12)


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
