"""Greedy orderings of a node's used lines and their count vectors.

Given a certified node, its used lines are ordered greedily: each step
picks the line covering the most not-yet-covered nodes of the set, ties
broken by canonical line order so the result is deterministic.  ``_best``
is that rule, written once; it returns every tied line, least first, so
:func:`enumerate_mdseqs` and the swap check branch on the same ties.  The
count vector of newly covered nodes per step is the node's distribution
sequence; a node of the set is *primary* for the first line in the order
containing it and *secondary* for every later one.

Determinism never masks non-uniqueness: :func:`enumerate_mdseqs` returns
the count vector of every greedy-consistent ordering, whatever the ties
(expected, and tested, to be a singleton).  It does not walk the orderings
one by one: on a natural lattice every ordering is greedy, which would be
n! walks.  The rest of an ordering depends only on the lines still unused
and the nodes still uncovered, so the orderings are advanced one step at a
time as a frontier of ``(unused lines, uncovered nodes, counts)`` bitmask
states with duplicates merged.  The n used lines give at most 2^n
distinct unused-line sets over all steps.

Incidence is decided on the integer nodes of the set's index
(``NodeSet.incidence``): node j lies on ``a*x + b*y + c = 0`` iff ``a*X_j
+ b*Y_j + c*D`` is 0, and each line becomes the bitmask of its nodes.  A
certified node's lines and their masks are read off the verified cover
table (``cert.covers`` and ``cert.masks``), which never repeats a line in
a cover; an arbitrary line set is evaluated with ``Incidence.zero_mask``.
Two distinct lines share at most one node, so the AND of their masks is
their crossing node, if it is one.  Intersection points of used lines
that are not nodes of the set are ignored by all counting here; only
nodes count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import CountsUnequal, LineNotUsed
from .geometry import Line, NodeSet, Point, Value, _bits, is_incident

if TYPE_CHECKING:
    from .certification import GCCertificate
    from .polynomials import Poly


class MDSequence(Value):
    """A distribution sequence: counts of newly covered nodes per line."""

    __slots__ = _fields = ("counts",)


class MLineSequence(Value):
    """An ordered used-line sequence with its counts and primary assignment.

    ``primary`` maps the index of every covered node to the position (into
    ``lines``) of the first line containing it.  ``used`` is the node's full
    set of used lines, kept so the greedy property can be re-verified
    against the alternatives that were available at each step.
    """

    __slots__ = _fields = (
        "node_index", "nodeset", "used", "lines", "counts", "primary", "fixed_first",
    )
    _defaults = {"fixed_first": None}

    def distribution(self) -> MDSequence:
        return MDSequence(self.counts)


def _best(masks: Sequence[int], pool: int, uncovered: int) -> tuple[int, list[int]]:
    """``(gain, ties)``: the most ``uncovered`` nodes on a line of ``pool``, and those lines.

    ``pool`` is a bitmask of indices into ``masks``, which follows the
    sorted used lines; ``ties`` ascends, so ``ties[0]`` is the least line.
    """
    gains = {i: (masks[i] & uncovered).bit_count() for i in _bits(pool)}
    best = max(gains.values())
    return best, [i for i, gain in gains.items() if gain == best]


def greedy_sequence_for_lines(
    xs: NodeSet,
    node_index: int,
    used: Sequence[Line],
    fixed_first: Line | None = None,
) -> MLineSequence:
    """Greedy ordering of an arbitrary used-line set over a node set.

    This is the engine behind :func:`greedy_mdseq` and
    :func:`fixed_first_mdseq`; it accepts any collection of distinct lines,
    which lets synthetic incidence structures be analyzed directly.  Ties
    go to the least line in canonical order.  A ``fixed_first`` that is not
    among ``used`` raises LineNotUsed.
    """
    used = tuple(sorted(set(used)))
    if fixed_first is not None and fixed_first not in used:
        raise LineNotUsed(f"{fixed_first} is not used by node {node_index}")
    masks = [xs.incidence.zero_mask(line) for line in used]
    remaining = (1 << len(xs)) - 1
    pool = (1 << len(used)) - 1
    order: list[Line] = []
    counts: list[int] = []
    primary: dict[int, int] = {}
    while pool:
        if fixed_first is not None and not order:
            i = used.index(fixed_first)
        else:
            i = _best(masks, pool, remaining)[1][0]
        new = masks[i] & remaining
        position = len(order)
        for j in _bits(new):
            primary[j] = position
        counts.append(new.bit_count())
        remaining &= ~new
        pool &= ~(1 << i)
        order.append(used[i])
    return MLineSequence(
        node_index=node_index,
        nodeset=xs,
        used=used,
        lines=tuple(order),
        counts=tuple(counts),
        primary=primary,
        fixed_first=fixed_first,
    )


def greedy_mdseq(cert: GCCertificate, k: int) -> MLineSequence:
    """The deterministic greedy line sequence of a certified node."""
    used = [cert.lines[f] for f in cert.covers[k]]
    return greedy_sequence_for_lines(cert.nodeset, k, used)


def fixed_first_mdseq(cert: GCCertificate, k: int, line: Line) -> MLineSequence:
    """Greedy sequence with a designated line forced into first position."""
    used = [cert.lines[f] for f in cert.covers[k]]
    return greedy_sequence_for_lines(cert.nodeset, k, used, fixed_first=line)


def enumerate_mdseqs(cert: GCCertificate, k: int) -> set[MDSequence]:
    """All count vectors reachable by any greedy-consistent ordering of node ``k``'s lines.

    A singleton result means the distribution sequence is independent of
    tie-breaking.
    """
    return _distributions([cert.masks[f] for f in cert.covers[k]], len(cert.nodeset))


def _distributions(masks: Sequence[int], size: int) -> set[MDSequence]:
    """The count vectors of every greedy ordering of the distinct lines with zero masks ``masks``.

    The orderings advance together, one line per step, as a frontier of
    ``(pool, uncovered, counts)`` states: the bitmask of the lines not yet
    placed, the bitmask of the ``size`` nodes not yet covered, and the
    counts so far.  Each state branches on every pool line of maximal
    gain, and equal states are merged, so orderings that place the same
    lines in another order are followed once.  Over all steps there are at
    most 2^n distinct pools for n lines (C(n, n/2) in one step), not the
    n! orderings of a stack walk.
    """
    frontier = {((1 << len(masks)) - 1, (1 << size) - 1, ())}
    for _ in masks:
        step = set()
        for pool, uncovered, counts in frontier:
            gain, ties = _best(masks, pool, uncovered)
            for i in ties:
                step.add((pool & ~(1 << i), uncovered & ~masks[i], counts + (gain,)))
        frontier = step
    return {MDSequence(counts) for _, _, counts in frontier}


def _is_greedy_ordering(seq: MLineSequence, order: Sequence[Line]) -> bool:
    """Whether ``order`` places every line of ``seq.used`` once, each of maximal gain.

    With a ``fixed_first`` line in ``seq``, the first line may have any gain.
    """
    masks = [seq.nodeset.incidence.zero_mask(line) for line in seq.used]
    index = {line: i for i, line in enumerate(seq.used)}
    remaining = (1 << len(seq.nodeset)) - 1
    pool = (1 << len(masks)) - 1
    for s, line in enumerate(order):
        i = index.get(line)
        if i is None or not pool >> i & 1:
            return False
        if (s or seq.fixed_first is None) and i not in _best(masks, pool, remaining)[1]:
            return False
        remaining &= ~masks[i]
        pool &= ~(1 << i)
    return not pool


def verify_swap_property(seq: MLineSequence, i: int) -> bool:
    """Check the swap law at two equal-count positions (0-based ``i``, ``i+1``).

    True iff (a) exchanging the two lines still yields a valid greedy
    ordering, and (b) when the two lines intersect at a node of the set,
    that node is secondary for both, i.e. its primary line appears strictly
    before position ``i``.  Raises CountsUnequal when the precondition
    ``counts[i] == counts[i+1]`` fails.
    """
    if not 0 <= i < len(seq.lines) - 1:
        raise IndexError(f"position {i} has no successor in a length-{len(seq.lines)} sequence")
    if seq.counts[i] != seq.counts[i + 1]:
        raise CountsUnequal(
            f"counts {seq.counts[i]} and {seq.counts[i + 1]} at positions {i}, {i + 1} differ"
        )
    swapped = list(seq.lines)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    if not _is_greedy_ordering(seq, swapped):
        return False
    # both lines are distinct used lines here, so they share at most one node
    first, second = map(seq.nodeset.incidence.zero_mask, seq.lines[i : i + 2])
    crossing = first & second
    if not crossing:
        return True
    idx = crossing.bit_length() - 1
    return idx in seq.primary and seq.primary[idx] < i


def primary_zero_divisibility(
    p: Poly, suffix: Sequence[tuple[Line, Sequence[Point]]]
) -> Poly:
    """Divide out a suffix of lines justified by their primary zero counts.

    ``suffix`` lists ``(line, primary_points)`` pairs whose point counts
    must descend one by one from ``p.degree_bound + 1``; each batch of
    points must be distinct, lie on its line, avoid all earlier lines in
    the list, and be zeros of ``p``.  Under those checks every division is
    forced (a polynomial of degree d vanishing at d+1 points of a line has
    the line as a factor); a NotDivisible escape therefore means the stated
    preconditions did not actually hold.
    """
    m = p.degree_bound + 1
    seen_lines: list[Line] = []
    for t, (line, points) in enumerate(suffix):
        pts = list(points)
        if len(pts) != m - t:
            raise ValueError(
                f"line at position {t} lists {len(pts)} primary zeros, expected {m - t}"
            )
        if len(set(pts)) != len(pts):
            raise ValueError(f"line at position {t} repeats a primary zero")
        for pt in pts:
            if not is_incident(pt, line):
                raise ValueError(f"{pt} is not on {line}")
            if any(is_incident(pt, earlier) for earlier in seen_lines):
                raise ValueError(f"{pt} lies on an earlier line of the suffix")
            if p.at(pt) != 0:
                raise ValueError(f"polynomial does not vanish at stated primary zero {pt}")
        seen_lines.append(line)
    from .polynomials import divide_by_line

    result = p
    for line, _ in suffix:
        result = divide_by_line(result, line)
    return result
