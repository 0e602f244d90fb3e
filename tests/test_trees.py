"""Tree layouts, boundary conditions, and the boundary file format."""

import tracemalloc

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


def _regular_children(d, n):
    """The BFS-numbered regular tree written out: vertex v's children are d*v + 1 .. d*v + d."""
    internal = sum(d**k for k in range(n))
    return [tuple(range(d * v + 1, d * v + d + 1)) for v in range(internal)] + [()] * d**n


def _bfs_reference(children, root):
    """The vertices at each depth by a plain Python BFS over the child lists."""
    levels = [[root]]
    while below := [c for v in levels[-1] for c in children[v]]:
        levels.append(below)
    return levels


def _assert_layout(tree, children, root):
    assert tree.root == root
    assert tree.counts.dtype == tree.child.dtype == np.int32
    assert tree.counts.tolist() == [len(ch) for ch in children]
    assert tree.child.tolist() == [c for ch in children for c in ch]
    assert [level.tolist() for level in tree.levels] == _bfs_reference(children, root)
    assert all(level.dtype == np.int32 for level in tree.levels)
    assert tree.leaves() == [v for v, ch in enumerate(children) if not ch]


def test_regular_tree_counts():
    t = TreeSpec.regular(3, 2)
    assert t.n_vertices == 1 + 3 + 9
    assert len(t.child) == 12
    assert len(t.leaves()) == 9
    assert t.levels[0].tolist() == [t.root]
    assert [len(level) for level in t.levels] == [1, 3, 9]


@pytest.mark.parametrize("n", [0, 1, 2, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_regular_tree_is_the_explicit_bfs_tree(d, n):
    children = _regular_children(d, n)
    _assert_layout(TreeSpec.regular(d, n), children, 0)
    _assert_layout(TreeSpec.from_children(children), children, 0)


def test_regular_tree_layout_allocates_under_two_megabytes():
    tracemalloc.start()
    try:
        t = TreeSpec.regular(3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_vertices == 88_573
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n, message", [
    (40, r"^18236498188585393201 vertices exceed the int32 layout limit of 2\*\*31 - 1 vertices$"),
    (10_000, r"^a depth-10000 tree with down-degree 3 has more than 2\*\*64 vertices, "
             r"over the int32 layout limit of 2\*\*31 - 1 vertices$"),
])
def test_regular_tree_refuses_more_vertices_than_int32_indexes(n, message):
    with pytest.raises(DomainError, match=message):
        TreeSpec.regular(3, n)


def test_regular_tree_leaves_are_final_bfs_block():
    t = TreeSpec.regular(2, 3)
    assert t.leaves() == list(range(7, 15))


def test_regular_tree_depth_zero():
    t = TreeSpec.regular(4, 0)
    assert t.n_vertices == 1
    assert t.leaves() == [t.root]


def test_hand_built_tree_validation():
    t = TreeSpec.from_children(((1, 2), (3,), (), ()), root=0)
    assert t.leaves() == [2, 3]
    assert t.counts.tolist() == [2, 1, 0, 0]
    assert t.child.tolist() == [1, 2, 3]
    assert [level.tolist() for level in t.levels] == [[0], [1, 2], [3]]


def test_tree_rejects_cycles_and_orphans():
    with pytest.raises(DomainError):
        TreeSpec.from_children(((1,), (0,)), root=0)  # 2-cycle
    with pytest.raises(DomainError):
        TreeSpec.from_children(((1,), (), ()), root=0)  # vertex 2 unreachable
    with pytest.raises(DomainError, match=r"^vertex 0 has two parents \(not a tree\)$"):
        TreeSpec.from_children(((0,),))  # self-loop at the root
    with pytest.raises(DomainError, match=r"^vertex 1 has two parents \(not a tree\)$"):
        TreeSpec.from_children(((1, 2), (), (1,)))  # a repeated child below the root
    with pytest.raises(DomainError, match="^children lists do not describe"):
        TreeSpec.from_children(((1,), (), (3,), (2,)))  # a cycle apart from the root
    # 2**40 would wrap in int32 and 2**70 overflow int64 if cast unchecked
    for c in (-1, 2, 2**40, 2**70):
        with pytest.raises(DomainError, match=rf"^child index {c} out of range$"):
            TreeSpec.from_children(((1,), (c,)))
    for r in (-1, 2):
        with pytest.raises(DomainError, match=rf"^root {r} out of range for 2 vertices$"):
            TreeSpec.from_children(((1,), ()), root=r)
    # the arrays given directly take the same checks, and counts that do not add up
    with pytest.raises(DomainError, match=r"^vertex 0 has two parents \(not a tree\)$"):
        TreeSpec(np.array([1, 1]), np.array([1, 0]))
    for counts in ([2, 0], [2, -1]):
        with pytest.raises(DomainError, match="^child counts do not match the 1 children$"):
            TreeSpec(np.array(counts), np.array([1]))


def test_traversals_match_a_python_bfs():
    rng = np.random.default_rng(8)
    cases = [([()], 0), ([(), (3, 0), (), (2,)], 1), (_regular_children(3, 3), 0)]
    for _ in range(200):
        n = int(rng.integers(1, 60))
        label = rng.permutation(n)  # shuffled labels, so the root is rarely 0
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[label[rng.integers(0, v)]].append(int(label[v]))
        for ch in children:
            rng.shuffle(ch)
        cases.append((children, int(label[0])))
    for children, root in cases:
        _assert_layout(TreeSpec.from_children(children, root), children, root)


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
    tree = TreeSpec.regular(spec.d, spec.n)
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


def test_short_boundary_file_fails_without_a_slot_per_leaf(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3 10 7\n1 2\n")  # 10**7 leaves, one of them given
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^missing colors for 9999999 leaves \(first: 0\)$"):
            read_boundary_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_write_boundary_file_checks_count(tmp_path):
    with pytest.raises(DomainError):
        write_boundary_file(tmp_path / "x.txt", q=3, d=2, n=2, leaf_colors=[1, 2])
