"""The package's public export list."""

import pottstree


def test_every_export_resolves_once():
    # a stale name would break ``from pottstree import *``
    assert len(pottstree.__all__) == len(set(pottstree.__all__))
    missing = [name for name in pottstree.__all__ if not hasattr(pottstree, name)]
    assert missing == []
