"""Tree layouts, boundary conditions, and the boundary file format."""

import numpy as np
import pytest

from pottstree import (
    BoundaryCondition,
    DomainError,
    ParseError,
    TreeSpec,
    read_boundary_file,
    write_boundary_file,
)


def test_regular_tree_counts():
    t = TreeSpec.regular(3, 2)
    assert t.n_vertices == 1 + 3 + 9
    assert t.n_edges == 12
    assert len(t.leaves()) == 9
    depths = t.depths()
    assert depths[t.root] == 0
    assert np.bincount(depths).tolist() == [1, 3, 9]


def test_regular_tree_leaves_are_final_bfs_block():
    t = TreeSpec.regular(2, 3)
    assert t.leaves() == list(range(7, 15))


def test_regular_tree_depth_zero():
    t = TreeSpec.regular(4, 0)
    assert t.n_vertices == 1
    assert t.leaves() == [t.root]


def test_hand_built_tree_validation():
    t = TreeSpec(children=((1, 2), (3,), (), ()), root=0)
    assert t.leaves() == [2, 3]
    assert set(t.edges()) == {(0, 1), (0, 2), (1, 3)}
    order = t.topological_order()
    assert order.index(0) < order.index(1) < order.index(3)


def test_tree_rejects_cycles_and_orphans():
    with pytest.raises(DomainError):
        TreeSpec(children=((1,), (0,)), root=0)  # 2-cycle
    with pytest.raises(DomainError):
        TreeSpec(children=((1,), (), ()), root=0)  # vertex 2 unreachable


def test_monochromatic_boundary():
    t = TreeSpec.regular(2, 2)
    b = BoundaryCondition.monochromatic(t, 2)
    assert set(b.colors) == set(t.leaves())
    assert set(b.colors.values()) == {2}


def test_boundary_from_leaf_colors_order():
    t = TreeSpec.regular(2, 1)
    b = BoundaryCondition.from_leaf_colors(t, [1, 3])
    assert [b.colors[v] for v in t.leaves()] == [1, 3]
    with pytest.raises(DomainError):
        BoundaryCondition.from_leaf_colors(t, [1, 2, 3])


def test_random_boundary_is_valid():
    t = TreeSpec.regular(3, 2)
    b = BoundaryCondition.random(t, q=4, rng=np.random.default_rng(0))
    assert all(1 <= c <= 4 for c in b.colors.values())


def test_boundary_file_round_trip(tmp_path):
    path = tmp_path / "boundary.txt"
    colors = [1, 3, 2, 2, 1, 3, 1, 2, 3]
    write_boundary_file(path, q=3, d=3, n=2, leaf_colors=colors)
    spec = read_boundary_file(path)
    assert (spec.q, spec.d, spec.n) == (3, 3, 2)
    assert list(spec.leaf_colors) == colors
    tree = spec.tree()
    assert [spec.boundary().colors[v] for v in tree.leaves()] == colors


def test_boundary_file_allows_comments_blank_lines_and_any_order(tmp_path):
    path = tmp_path / "boundary.txt"
    path.write_text("# header comment\n3 2 1\n\n1 2  # second leaf first\n0 1\n")
    spec = read_boundary_file(path)
    assert (spec.q, spec.d, spec.n) == (3, 2, 1)
    assert spec.leaf_colors == (1, 2)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("3 2\n0 1\n1 2\n", 1),           # header too short
        ("3 2 1\n0 1 2\n", 2),            # per-leaf line with three fields
        ("3 2 1\n0 1\n1 7\n", 3),         # color out of range
        ("3 2 1\n0 1\n1 x\n", 3),         # not an integer
        ("3 2 1\n0 1\n5 2\n", 3),         # leaf index out of range
        ("3 2 1\n0 1\n0 2\n", 3),         # duplicate assignment
    ],
)
def test_boundary_file_errors_carry_line_numbers(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_boundary_file(path)
    assert f"line {lineno}" in str(err.value)


def test_boundary_file_reports_missing_leaves(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 1\n0 1\n")
    with pytest.raises(ParseError, match="missing"):
        read_boundary_file(path)


def test_write_boundary_file_checks_count(tmp_path):
    with pytest.raises(DomainError):
        write_boundary_file(tmp_path / "x.txt", q=3, d=2, n=2, leaf_colors=[1, 2])
