"""The grid census (tests/census.py): pinned outcome counts, and every subset against certify_gc."""

from functools import lru_cache
from itertools import combinations

import pytest

from gcnlab import NodeSet, NotGC, NotPoised, Point, certify_gc

from census import census, grid_lines

# (n, k): subsets, GC, NotGC, NotPoised, GC sets by maximal-line count
PINNED = {
    (1, 3): (84, 76, 0, 8, {3: 76}),
    (2, 3): (84, 16, 60, 8, {3: 16}),
    (2, 4): (8008, 352, 6580, 1076, {3: 352}),
    (3, 4): (8008, 4, 6928, 1076, {3: 4}),
}


@lru_cache(maxsize=None)
def cached_census(n, k):
    return census(n, k)


def certified(n, points):
    """What certify_gc says of a set: ``("GC", maximal lines)``, ``(("NotGC", node), None)`` or ``("NotPoised", None)``."""
    xs = NodeSet(n, points)
    try:
        certify_gc(xs)
    except NotGC as e:
        return ("NotGC", e.node_index), None
    except NotPoised:
        return "NotPoised", None
    return "GC", len(xs.maximal)


def test_grid_lines_of_the_3x3_grid():
    # 3 rows, 3 columns, 2 diagonals of three points; 12 two-point lines
    counts = sorted(mask.bit_count() for mask in grid_lines(3))
    assert counts == [2] * 12 + [3] * 8


@pytest.mark.parametrize("n,k", sorted(PINNED))
def test_pinned_counts(n, k):
    got = cached_census(n, k)
    assert (got.subsets, got.gc, got.not_gc, got.not_poised, got.by_maximal) == PINNED[n, k]
    assert min(got.by_maximal) >= 3  # every GC set has at least 3 maximal lines


@pytest.mark.parametrize("n,k", [(2, 4), (3, 4)])
def test_every_subset_agrees_with_certify_gc(n, k):
    grid = [Point(i, j) for i in range(k) for j in range(k)]
    size = (n + 1) * (n + 2) // 2
    found = cached_census(n, k).leaves
    for chosen in combinations(range(k * k), size):
        # a subset the line cap pruned holds n + 2 collinear points
        expected = found.get(chosen, ("NotPoised", None))
        assert certified(n, tuple(grid[p] for p in chosen)) == expected, chosen
