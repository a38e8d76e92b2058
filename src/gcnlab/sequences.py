"""Greedy orderings of a node's used lines and their count vectors.

Given a certified node, its used lines are ordered greedily: each step
picks the line covering the most not-yet-covered nodes of the set, ties
broken by canonical line order so the result is deterministic.  The count
vector of newly covered nodes per step is the node's distribution sequence;
a node of the set is *primary* for the first line in the order containing
it and *secondary* for every later one.

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
(``NodeSet.incidence``): node j lies on ``a*x + b*y + c = 0`` iff ``a*X_j +
b*Y_j + c*D`` is 0, and each line becomes the bitmask of its nodes.  Two
distinct lines share at most one node, so the AND of their masks is their
crossing node, if it is one.  Intersection points of used lines that are
not nodes of the set are ignored by all counting here; only nodes count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import CountsUnequal, LineNotUsed, MultiplicityPresent
from .geometry import Line, NodeSet, Point, _bits, _frozen_delattr, _frozen_setattr, is_incident

if TYPE_CHECKING:
    from .certification import GCCertificate
    from .polynomials import Poly


class MDSequence:
    """A distribution sequence: counts of newly covered nodes per line."""

    __slots__ = ("counts",)
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, counts: tuple[int, ...]):
        object.__setattr__(self, "counts", counts)

    def _values(self) -> tuple:
        return (self.counts,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return MDSequence, self._values()

    def __repr__(self) -> str:
        return f"MDSequence(counts={self.counts!r})"


class MLineSequence:
    """An ordered used-line sequence with its counts and primary assignment.

    ``primary`` maps the index of every covered node to the position (into
    ``lines``) of the first line containing it.  ``used`` is the node's full
    set of used lines, kept so the greedy property can be re-verified
    against the alternatives that were available at each step.
    """

    __slots__ = ("node_index", "nodeset", "used", "lines", "counts", "primary", "fixed_first")
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(
        self,
        node_index: int,
        nodeset: NodeSet,
        used: tuple[Line, ...],
        lines: tuple[Line, ...],
        counts: tuple[int, ...],
        primary: Mapping[int, int],
        fixed_first: Line | None = None,
    ):
        object.__setattr__(self, "node_index", node_index)
        object.__setattr__(self, "nodeset", nodeset)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "primary", primary)
        object.__setattr__(self, "fixed_first", fixed_first)

    def _values(self) -> tuple:
        return (
            self.node_index, self.nodeset, self.used, self.lines, self.counts, self.primary,
            self.fixed_first,
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return MLineSequence, self._values()

    def __repr__(self) -> str:
        return (
            f"MLineSequence(node_index={self.node_index!r}, nodeset={self.nodeset!r}, "
            f"used={self.used!r}, lines={self.lines!r}, counts={self.counts!r}, "
            f"primary={self.primary!r}, fixed_first={self.fixed_first!r})"
        )

    def distribution(self) -> MDSequence:
        return MDSequence(self.counts)


def _line_masks(xs: NodeSet, lines: Sequence[Line]) -> dict[Line, int]:
    """The bitmask of the nodes on each line, by integer evaluation.

    Bit j is set iff ``a*X + b*Y + c*D`` is 0 at the integer node j.  Only
    the index's integer nodes are read, not its line map, so any line
    works, including one through fewer than two nodes.
    """
    scale, coords = xs.incidence.scale, xs.incidence.coords
    masks = {}
    for line in lines:
        a, b, c = line.a, line.b, line.c * scale
        masks[line] = sum(1 << j for j, (x, y) in enumerate(coords) if a * x + b * y + c == 0)
    return masks


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
    go to the least line in canonical order.
    """
    used = tuple(sorted(set(used)))
    masks = _line_masks(xs, used)
    remaining = (1 << len(xs)) - 1
    pool = set(used)
    order: list[Line] = []
    counts: list[int] = []
    primary: dict[int, int] = {}
    forced = fixed_first
    while pool:
        if forced is not None:
            chosen = forced
            forced = None
        else:
            best = max((masks[l] & remaining).bit_count() for l in pool)
            chosen = min(l for l in pool if (masks[l] & remaining).bit_count() == best)
        new = masks[chosen] & remaining
        position = len(order)
        for j in _bits(new):
            primary[j] = position
        counts.append(new.bit_count())
        remaining &= ~new
        pool.remove(chosen)
        order.append(chosen)
    return MLineSequence(
        node_index=node_index,
        nodeset=xs,
        used=used,
        lines=tuple(order),
        counts=tuple(counts),
        primary=primary,
        fixed_first=fixed_first,
    )


def _distinct_used(cert: GCCertificate, k: int) -> tuple[Line, ...]:
    entry = cert.entries[k]
    distinct = tuple(sorted(set(entry.lines)))
    if len(distinct) != len(entry.lines):
        raise MultiplicityPresent(
            f"node {k} repeats a factor line; sequence analysis needs distinct lines"
        )
    return distinct


def greedy_mdseq(cert: GCCertificate, k: int) -> MLineSequence:
    """The deterministic greedy line sequence of a certified node."""
    return greedy_sequence_for_lines(cert.nodeset, k, _distinct_used(cert, k))


def fixed_first_mdseq(cert: GCCertificate, k: int, line: Line) -> MLineSequence:
    """Greedy sequence with a designated line forced into first position."""
    used = _distinct_used(cert, k)
    if line not in used:
        raise LineNotUsed(f"{line} is not used by node {k}")
    return greedy_sequence_for_lines(cert.nodeset, k, used, fixed_first=line)


def enumerate_mdseqs(cert: GCCertificate, k: int) -> set[MDSequence]:
    """All count vectors reachable by any greedy-consistent ordering.

    The orderings advance together, one line per step, as a frontier of
    ``(pool, uncovered, counts)`` states: the bitmask of the used lines not
    yet placed, the bitmask of the nodes not yet covered, and the counts so
    far.  Each state branches on every pool line of maximal gain, and equal
    states are merged, so orderings that place the same lines in another
    order are followed once.  Over all steps there are at most 2^n distinct
    pools for n used lines (C(n, n/2) in one step), not the n! orderings of
    a stack walk.  A singleton result means the distribution sequence is
    independent of tie-breaking.
    """
    used = _distinct_used(cert, k)
    masks = list(_line_masks(cert.nodeset, used).values())
    frontier = {((1 << len(masks)) - 1, (1 << len(cert.nodeset)) - 1, ())}
    for _ in masks:
        step = set()
        for pool, uncovered, counts in frontier:
            gains = [
                ((mask & uncovered).bit_count(), i)
                for i, mask in enumerate(masks)
                if pool >> i & 1
            ]
            best = max(gains)[0]
            for gain, i in gains:
                if gain == best:
                    step.add((pool & ~(1 << i), uncovered & ~masks[i], counts + (best,)))
        frontier = step
    return {MDSequence(counts) for _, _, counts in frontier}


def _is_greedy_ordering(
    masks: Mapping[Line, int], size: int, order: Sequence[Line], exempt_first: bool
) -> bool:
    """Whether ``order`` places every line of ``masks`` once, each of maximal gain.

    ``size`` is the number of nodes; with ``exempt_first`` the first line
    may have any gain.
    """
    remaining = (1 << size) - 1
    pool = set(masks)
    for s, line in enumerate(order):
        if line not in pool:
            return False
        covered = (masks[line] & remaining).bit_count()
        if not (exempt_first and s == 0):
            best = max((masks[l] & remaining).bit_count() for l in pool)
            if covered < best:
                return False
        remaining &= ~masks[line]
        pool.remove(line)
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
    masks = _line_masks(seq.nodeset, seq.used)
    exempt = seq.fixed_first is not None
    if not _is_greedy_ordering(masks, len(seq.nodeset), swapped, exempt_first=exempt):
        return False
    # both lines are distinct used lines here, so they share at most one node
    crossing = masks[seq.lines[i]] & masks[seq.lines[i + 1]]
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
