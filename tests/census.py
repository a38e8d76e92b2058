"""An exhaustive census of the dim Pi_n subsets of the k x k integer grid, by outcome.

Every subset X of dim Pi_n points of the grid {0..k-1}^2 is GC_n, poised
but not GC, or not poised.  A depth-first search takes the grid points in
order (point (i, j) is number i*k + j) and caps every grid line at n + 1
chosen points: a set with n + 2 collinear nodes is not poised (a degree-n
polynomial vanishing on them has the line as a factor, and the line times
any degree-(n-1) polynomial through the other nodes vanishes on X), so a
pruned branch holds only non-poised subsets and is counted, not visited.

Each leaf is decided as :func:`gcnlab.certify_gc` decides a set, but on
its own incidence data: the grid lines are computed once per grid, as
bitmasks over the grid points, by a cross-product test on every pair of
points, and a leaf restricts them to its chosen points.  It never reads
``NodeSet.keys``, so it checks the node/line index independently.  A node
is covered by ``certification._cover``; a leaf where some node has no
cover of n lines is told apart by :func:`gcnlab.is_poised`.  The census
assumes nothing about GM: a GC leaf's maximal lines (lines of n + 1 chosen
points) are counted, not constructed.

Run ``python tests/census.py N K`` (with ``src`` on ``PYTHONPATH``) to print
the census of one grid.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations
from math import comb
from typing import Iterator, NamedTuple, Union

from gcnlab import NodeSet, Point, is_poised
from gcnlab.certification import _cover


#: ``"GC"``, ``("NotGC", node)`` or ``"NotPoised"``; ``node`` is the first chosen node with no cover.
Outcome = Union[str, tuple[str, int]]
#: A leaf: its chosen point numbers in order, its outcome, and its maximal lines when GC.
Leaf = tuple[tuple[int, ...], Outcome, Union[int, None]]


class Census(NamedTuple):
    """Outcome counts of a grid, GC sets by maximal-line count, and each leaf's outcome."""

    subsets: int
    gc: int
    not_gc: int
    not_poised: int
    by_maximal: dict[int, int]
    leaves: dict[tuple[int, ...], tuple[Outcome, Union[int, None]]]


def grid_lines(k: int) -> list[int]:
    """Every line through two or more points of the k x k grid, as its bitmask over the points."""
    points = [(i, j) for i in range(k) for j in range(k)]
    masks = set()
    for (x1, y1), (x2, y2) in combinations(points, 2):
        mask = 0
        for r, (x, y) in enumerate(points):
            if (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1):
                mask |= 1 << r
        masks.add(mask)
    return sorted(masks)


def leaves(n: int, k: int) -> Iterator[Leaf]:
    """Each subset of dim Pi_n grid points with no n + 2 collinear, as ``(chosen, outcome, maximal)``.

    ``maximal`` is the number of a GC leaf's maximal lines, and None for
    any other leaf.
    """
    size = (n + 1) * (n + 2) // 2
    total = k * k
    lines = grid_lines(k)
    through = [[li for li, mask in enumerate(lines) if mask >> p & 1] for p in range(total)]
    counts = [0] * len(lines)
    chosen: list[int] = []

    def dfs(start: int) -> Iterator[Leaf]:
        if len(chosen) == size:
            yield (tuple(chosen), *_classify(n, k, chosen, through))
            return
        for p in range(start, total - (size - len(chosen)) + 1):
            if any(counts[li] > n for li in through[p]):
                continue
            for li in through[p]:
                counts[li] += 1
            chosen.append(p)
            yield from dfs(p + 1)
            chosen.pop()
            for li in through[p]:
                counts[li] -= 1

    return dfs(0)


def _classify(
    n: int, k: int, chosen: list[int], through: list[list[int]]
) -> tuple[Outcome, Union[int, None]]:
    """The outcome of one leaf and, when GC, its number of maximal lines."""
    sub: dict[int, int] = {}
    for t, p in enumerate(chosen):
        for li in through[p]:
            sub[li] = sub.get(li, 0) | 1 << t
    ranked = sorted(
        ((mask.bit_count(), mask, li) for li, mask in sub.items() if mask.bit_count() >= 2),
        key=lambda line: line[0],
        reverse=True,
    )
    everyone = (1 << len(chosen)) - 1
    for t in range(len(chosen)):
        bit = 1 << t
        cover, _ = _cover(everyone ^ bit, ranked, n, bit)
        if cover is None or len(cover) != n:
            points = tuple(Point(*divmod(p, k)) for p in chosen)
            outcome = ("NotGC", t) if is_poised(NodeSet(n, points)) else "NotPoised"
            return outcome, None
    return "GC", sum(count == n + 1 for count, _, _ in ranked)


def census(n: int, k: int) -> Census:
    """The outcome counts of every subset of dim Pi_n points of the k x k grid.

    ``leaves`` maps each leaf's chosen points to its ``(outcome, maximal)``.
    """
    subsets = comb(k * k, (n + 1) * (n + 2) // 2)
    outcomes: Counter = Counter()
    by_maximal: Counter = Counter()
    found = {}
    for chosen, outcome, maximal in leaves(n, k):
        found[chosen] = outcome, maximal
        outcomes[outcome if isinstance(outcome, str) else "NotGC"] += 1
        if maximal is not None:
            by_maximal[maximal] += 1
    gc, not_gc = outcomes["GC"], outcomes["NotGC"]
    by_maximal = dict(sorted(by_maximal.items()))
    return Census(subsets, gc, not_gc, subsets - gc - not_gc, by_maximal, found)


if __name__ == "__main__":
    n, k = map(int, sys.argv[1:3])
    print(census(n, k)[:5])
