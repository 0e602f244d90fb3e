"""Color relabeling: group structure and the action on log-ratio vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottstree import DomainError, ModelParams, all_permutations, apply_permutation, log_ratio_map
from pottstree.symmetry import _invert

perms = st.integers(3, 6).flatmap(
    lambda q: st.permutations(tuple(range(1, q + 1)))
)


def compose(pi, sigma):
    """``pi o sigma`` (apply ``sigma`` first)."""
    return tuple(pi[s - 1] for s in sigma)


def test_apply_permutation_rejects_non_permutations():
    x = np.zeros(2)
    assert apply_permutation((2, 1, 3), x).shape == (2,)
    for perm in [(1, 1, 3), (0, 1, 2), (1, 2, 4)]:
        with pytest.raises(DomainError, match="not a permutation"):
            apply_permutation(perm, x)


@given(perms)
def test_invert_is_two_sided(perm):
    identity = tuple(range(1, len(perm) + 1))
    assert compose(perm, _invert(perm)) == identity
    assert compose(_invert(perm), perm) == identity


def test_all_permutations_counts():
    assert len(all_permutations(3)) == 6
    assert len(all_permutations(4)) == 24
    assert (1, 2, 3, 4) in all_permutations(4)


def test_swap_with_reference_color():
    # q = 3, x = (a, b): swapping colors 1 and 3 lands on (-a, b - a)
    a, b = 0.7, -0.4
    y = apply_permutation((3, 2, 1), np.array([a, b]))
    assert y == pytest.approx([-a, b - a], abs=0)


def test_action_fixing_reference_color_permutes_entries():
    x = np.array([0.3, -1.1, 0.9])
    y = apply_permutation((2, 3, 1, 4), x)
    # color k of y carries the value of color perm^-1(k)
    assert y == pytest.approx([x[2], x[0], x[1]], abs=0)


@given(perms, st.data())
def test_action_is_a_left_action(perm, data):
    q = len(perm)
    sigma = data.draw(st.permutations(tuple(range(1, q + 1))))
    x = np.linspace(-1.0, 1.0, q - 1)
    lhs = apply_permutation(compose(perm, sigma), x)
    rhs = apply_permutation(perm, apply_permutation(sigma, x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_action_on_batches():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    perm = (3, 1, 4, 2)
    batch = apply_permutation(perm, x)
    for i in range(10):
        np.testing.assert_array_equal(batch[i], apply_permutation(perm, x[i]))


@settings(deadline=None)
@given(st.integers(3, 5), st.integers(0, 500))
def test_recursion_map_is_equivariant(q, seed):
    rng = np.random.default_rng(seed)
    params = ModelParams(q, 6, 0.9)
    perm = tuple(int(c) + 1 for c in rng.permutation(q))
    x = rng.normal(scale=1.5, size=q - 1)
    lhs = log_ratio_map(apply_permutation(perm, x), params)
    rhs = apply_permutation(perm, log_ratio_map(x, params))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_permutation_rejects_width_mismatch():
    with pytest.raises(DomainError):
        apply_permutation((2, 1, 3), np.zeros(3))
