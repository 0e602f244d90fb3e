"""Tree layouts, boundary conditions, and the boundary file format."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from pottstree import (
    BoundaryCondition,
    DomainError,
    ParseError,
    TreeSpec,
    dp_log_Z,
    read_boundary_file,
    root_summary,
)


def _regular_children(d, n):
    """The BFS-numbered regular tree written out: vertex v's children are d*v + 1 .. d*v + d."""
    internal = sum(d**k for k in range(n))
    return [tuple(range(d * v + 1, d * v + d + 1)) for v in range(internal)] + [()] * d**n


def _write_boundary_file(path, q, d, n, leaf_colors):
    """The boundary file format: a 'q d n' header, then one '<leaf_index> <color>' line per leaf."""
    path.write_text(f"{q} {d} {n}\n" + "".join(f"{i} {c}\n" for i, c in enumerate(leaf_colors)))


def _bfs_reference(children):
    """The vertices at each depth by a plain Python BFS over the child lists from vertex 0."""
    levels = [[0]]
    while below := [c for v in levels[-1] for c in children[v]]:
        levels.append(below)
    return levels


def _assert_layout(tree, children):
    assert tree.root == 0
    assert tree.n_vertices == len(children)
    assert [list(tree.level(k)) for k in range(tree.n + 1)] == _bfs_reference(children)
    assert tree.leaves() == [v for v, ch in enumerate(children) if not ch]


def test_regular_tree_counts():
    t = TreeSpec.regular(3, 2)
    assert t.n_vertices == 1 + 3 + 9
    assert len(t.leaves()) == 9
    assert list(t.level(0)) == [t.root]
    assert [len(t.level(k)) for k in range(t.n + 1)] == [1, 3, 9]


@pytest.mark.parametrize("n", [0, 1, 2, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_regular_tree_is_the_explicit_bfs_tree(d, n):
    _assert_layout(TreeSpec.regular(d, n), _regular_children(d, n))


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


@pytest.mark.parametrize("d, n, message", [
    (0, 2, "down-degree d must be an integer >= 1, got 0"),
    (2.0, 2, "down-degree d must be an integer >= 1, got 2.0"),
    (2, -1, "depth n must be an integer >= 0, got -1"),
    (2, "3", "depth n must be an integer >= 0, got '3'"),
])
def test_trees_refuse_a_degree_or_depth_that_is_not_a_count(d, n, message):
    for make in (TreeSpec.regular, TreeSpec):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make(d, n)


def test_regular_tree_leaves_are_final_bfs_block():
    t = TreeSpec.regular(2, 3)
    assert t.leaves() == list(range(7, 15))


def test_regular_tree_depth_zero():
    t = TreeSpec.regular(4, 0)
    assert t.n_vertices == 1
    assert t.leaves() == [t.root]


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


def _assert_same_pins(got, want):
    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


def test_boundary_constructors_keep_the_pins_their_dict_gives():
    t = TreeSpec.regular(3, 4)
    leaves = t.leaves()
    rng = np.random.default_rng(5)
    for b in (BoundaryCondition.random(t, 300, rng),
              BoundaryCondition.monochromatic(t, 2),
              BoundaryCondition.from_leaf_colors(t, rng.integers(1, 4, len(leaves)))):
        vertices, colors = b.pins
        assert vertices.dtype == np.int32 and vertices.tolist() == leaves
        assert colors.dtype == np.min_scalar_type(colors.max())
        assert colors.tolist() == [b.colors[v] for v in leaves]
        _assert_same_pins(b.pins, BoundaryCondition(dict(b.colors)).pins)


def _leaf_boundaries(t, q, seed):
    """Each leaf constructor's boundary on ``t``, with the colours it pins in leaf order."""
    k = len(t.leaves())
    drawn = np.random.default_rng(seed).integers(1, q + 1, size=k)
    wide = np.random.default_rng(seed + 1).integers(1, q + 1, size=k).astype(np.uint64)
    boxed = np.array([int(c) for c in drawn[::-1]], dtype=object)
    return [(BoundaryCondition.random(t, q, np.random.default_rng(seed)), drawn.tolist()),
            (BoundaryCondition.monochromatic(t, q), [q] * k),
            (BoundaryCondition.from_leaf_colors(t, wide), wide.tolist()),
            (BoundaryCondition.from_leaf_colors(t, boxed), boxed.tolist())]


def _bits(values):
    return [np.asarray(v).tobytes() for v in values]


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 300])
def test_leaf_boundaries_read_as_the_dict_of_their_pins(d, n, q):
    t = TreeSpec.regular(d, n)
    leaves = t.leaves()
    missing = [-1, t.n_vertices, 2**70, "a", 1.5, None] + list(range(leaves[0]))  # root, internal
    for b, colours in _leaf_boundaries(t, q, seed=10 * d + n):
        want = dict(zip(leaves, colours))
        assert list(b.colors.items()) == list(want.items())
        assert list(dict(b.colors).items()) == list(want.items())
        assert all(type(v) is int and type(c) is int for v, c in b.colors.items())
        assert len(b.colors) == len(leaves)
        assert all(v in b.colors and b.colors[np.int64(v)] == c for v, c in want.items())
        for key in missing:
            assert key not in b.colors and b.colors.get(key) is None
            with pytest.raises(KeyError):
                b.colors[key]
        same = BoundaryCondition(dict(b.colors))
        assert b == same and same == b
        assert b.colors == want and want == b.colors
        _assert_same_pins(b.pins, same.pins)
        for w in (0.25, 1.0):
            assert _bits([dp_log_Z(t, q, w, b)]) == _bits([dp_log_Z(t, q, w, same)])
            if n:  # a depth-0 root is its one leaf, pinned
                assert _bits(root_summary(t, q, w, b)) == _bits(root_summary(t, q, w, same))


def test_leaf_boundaries_keep_exact_int_colours_past_int64():
    t = TreeSpec.regular(2, 2)
    colours = [2**70, 2**64 + 1, 3, 2**63]
    for given in (colours, np.array(colours, dtype=object)):
        b = BoundaryCondition.from_leaf_colors(t, given)
        assert list(b.colors.items()) == list(zip(t.leaves(), colours))
        assert all(type(c) is int for c in b.colors.values())
        assert b == BoundaryCondition(dict(zip(t.leaves(), colours)))
        with pytest.raises(DomainError, match=f"^color {2**70} for vertex 3 outside 1..3$"):
            dp_log_Z(t, 3, 0.5, b)


def test_random_boundary_at_the_dp_budget_holds_no_dict_per_leaf():
    # 3**12 leaves: the dict of one exact int per leaf traced about 60 MB at its peak
    t = TreeSpec.regular(3, 12)
    tracemalloc.start()
    try:
        b = BoundaryCondition.random(t, 3, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(b.colors) == 3**12 and b.pins[1].dtype == np.uint8
    assert peak <= 10 * 10**6


def test_boundary_pins_keep_out_of_range_values_exactly():
    b = BoundaryCondition({2**70: 1, -1: 300, 4: 0})
    vertices, colors = b.pins
    assert vertices.tolist() == [2**70, -1, 4] and colors.tolist() == [1, 300, 0]
    _assert_same_pins(BoundaryCondition({-1: -2}).pins,
                      (np.array([-1], np.int64), np.array([-2], np.int64)))


def test_boundary_condition_is_immutable():
    t = TreeSpec.regular(2, 1)
    pins = {1: 2}
    b = BoundaryCondition(pins)
    pins[2] = 3  # the caller's dict changes after the boundary is made
    assert dict(b.colors) == {1: 2}
    _assert_same_pins(b.pins, (np.array([1], np.int32), np.array([2], np.uint8)))
    for made in (b, BoundaryCondition.random(t, 3, np.random.default_rng(0))):
        with pytest.raises(TypeError):
            made.colors[1] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.colors = {}


@pytest.mark.parametrize("make, message", [
    (lambda t: BoundaryCondition.monochromatic(t, 2.7), "color 2.7 is not an integer"),
    (lambda t: BoundaryCondition.monochromatic(t, "2"), "color '2' is not an integer"),
    (lambda t: BoundaryCondition({1: 2.7, 2: 2}), "color 2.7 for vertex 1 is not an integer"),
    (lambda t: BoundaryCondition({1.9: 2, 2: 2}), "pinned vertex 1.9 is not an integer"),
    (lambda t: BoundaryCondition({1: 2, 2: np.float64(2.0)}),
     "color np.float64(2.0) for vertex 2 is not an integer"),
    (lambda t: BoundaryCondition.from_leaf_colors(t, np.array([1.7, 2.2])),
     "leaf color 1.7 is not an integer"),
    (lambda t: BoundaryCondition.from_leaf_colors(t, [1, 2.0]), "leaf color 2.0 is not an integer"),
    (lambda t: BoundaryCondition.random(t, 2.7, np.random.default_rng(0)),
     "q must be an integer, got 2.7"),
    (lambda t: BoundaryCondition.random(t, 0, np.random.default_rng(0)), "q must be >= 1, got 0"),
    (lambda t: BoundaryCondition.random(t, -3, np.random.default_rng(0)),
     "q must be >= 1, got -3"),
], ids=["mono-float", "mono-str", "dict-color", "dict-vertex", "dict-numpy-float",
        "leaf-array", "leaf-list", "random-q", "random-q-0", "random-q-negative"])
def test_boundaries_refuse_pins_that_are_not_integers(make, message):
    # each used to be truncated: the first four all gave the colour-2 boundary;
    # random with q < 1 ended in numpy's "low >= high"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make(TreeSpec.regular(2, 1))


def test_boundaries_keep_integer_pins_exactly():
    t = TreeSpec.regular(2, 1)
    b = BoundaryCondition({np.int64(1): np.uint8(2), 2: 2**70})
    assert dict(b.colors) == {1: 2, 2: 2**70}
    assert all(type(x) is int for pin in b.colors.items() for x in pin)
    for colors in ([3, 2**70], np.array([3, 2**63], np.uint64), np.array([3, 1], np.int8)):
        leaf = BoundaryCondition.from_leaf_colors(t, colors)
        assert leaf.pins[1].tolist() == [int(c) for c in colors]
    colors = np.array([1, 2])
    leaf = BoundaryCondition.from_leaf_colors(t, colors)
    colors[0] = 3  # the caller's array changes after the boundary is made
    assert leaf.pins[1].tolist() == [1, 2]


def test_boundary_file_round_trip(tmp_path):
    path = tmp_path / "boundary.txt"
    colors = [1, 3, 2, 2, 1, 3, 1, 2, 3]
    _write_boundary_file(path, q=3, d=3, n=2, leaf_colors=colors)
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


@pytest.mark.parametrize("lineno", [1, 3, 2001])
def test_boundary_file_refuses_a_byte_that_is_not_utf8_on_its_line(tmp_path, lineno):
    # line 2001 starts past the first 8 KiB, so the decoder has read whole blocks before it
    path = tmp_path / "bad.txt"
    _write_boundary_file(path, q=3, d=3, n=7, leaf_colors=[1, 2, 3] * 729)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].replace(b"\n", b" # caf\xe9\r\n")
    path.write_bytes(b"".join(lines))
    assert lineno < 2001 or sum(map(len, lines[:lineno - 1])) > 8192
    with pytest.raises(ParseError, match=rf"^line {lineno}: byte 0xe9 is not UTF-8$"):
        read_boundary_file(path)


def test_boundary_file_reads_utf8_comments_and_any_newline(tmp_path):
    path = tmp_path / "boundary.txt"
    path.write_bytes("3 2 1  # café\r\n0 1\r1 2 # ∞\n".encode("utf-8"))
    assert read_boundary_file(path).leaf_colors == (1, 2)


def test_boundary_file_skips_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"3 2 1\n0 1\n1 2\n")
    marked.write_bytes(b"\xef\xbb\xbf3 2 1\n0 1\n1 2\n")
    assert read_boundary_file(marked) == read_boundary_file(plain)


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


def test_boundary_file_parse_holds_one_slot_per_leaf(tmp_path):
    # 3**10 leaves: the lines, two per-line lists and a dict per leaf traced about 18.6 MB
    path = tmp_path / "boundary.txt"
    colors = np.random.default_rng(4).integers(1, 4, size=3**10).tolist()
    _write_boundary_file(path, q=3, d=3, n=10, leaf_colors=colors)
    tracemalloc.start()
    try:
        spec = read_boundary_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.leaf_colors == tuple(colors)
    assert peak <= 2 * 10**6


@pytest.mark.parametrize("text, message", [
    ("3 2 3\n1 2\n1 3\n", r"^line 3: leaf 1 assigned twice$"),
    ("3 2 3\n0 1\n# 1 2\n1 2\n3 1\n", r"^missing colors for 5 leaves \(first: 2\)$"),
])
def test_short_boundary_file_reports_what_a_full_one_does(tmp_path, text, message):
    # under 4 bytes per leaf: too short to list them all, so only the named leaves are kept
    path = tmp_path / "short.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        read_boundary_file(path)
