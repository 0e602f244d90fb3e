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
    with pytest.raises(DomainError, match=r"^vertex 0 has two parents \(not a tree\)$"):
        TreeSpec(children=((0,),))  # self-loop at the root
    with pytest.raises(DomainError, match="^children lists do not describe"):
        TreeSpec(children=((1,), (), (3,), (2,)))  # a cycle apart from the root
    # 2**40 would wrap in int32 and 2**70 overflow int64 if cast unchecked
    for c in (-1, 2, 2**40, 2**70):
        with pytest.raises(DomainError, match=rf"^child index {c} out of range$"):
            TreeSpec(children=((1,), (c,)))
    for r in (-1, 2):
        with pytest.raises(DomainError, match=rf"^root {r} out of range for 2 vertices$"):
            TreeSpec(children=((1,), ()), root=r)


def _bfs_reference(tree):
    """Topological order and depths by a plain Python BFS over the child tuples."""
    order, depth = [tree.root], {tree.root: 0}
    for v in order:
        for c in tree.children[v]:
            order.append(c)
            depth[c] = depth[v] + 1
    return order, [depth[v] for v in range(tree.n_vertices)]


def test_traversals_match_a_python_bfs():
    rng = np.random.default_rng(8)
    trees = [TreeSpec(((),)), TreeSpec(children=((), (3, 0), (), (2,)), root=1),
             TreeSpec.regular(3, 3)]
    for _ in range(200):
        n = int(rng.integers(1, 60))
        label = rng.permutation(n)  # shuffled labels, so the root is rarely 0
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[label[rng.integers(0, v)]].append(int(label[v]))
        for ch in children:
            rng.shuffle(ch)
        trees.append(TreeSpec(tuple(map(tuple, children)), root=int(label[0])))
    for t in trees:
        order, depths = _bfs_reference(t)
        assert t.topological_order() == order
        assert t.depths().tolist() == depths
        assert t.leaves() == [v for v, ch in enumerate(t.children) if not ch]


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
    boundary = BoundaryCondition.from_leaf_colors(tree, spec.leaf_colors)
    assert [boundary.colors[v] for v in tree.leaves()] == colors


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
