"""GC certification: cover every node's complement by node-pair lines.

A set X of N = dim Pi_n nodes is poised and GC exactly when every node x_k
has n node-pair lines that avoid x_k and together pass through the other
N - 1 nodes (Chung & Yao, SIAM J. Numer. Anal. 1977).  Such a cover is a
product of n lines vanishing on X minus x_k and not at x_k, so it is the
fundamental polynomial of x_k up to scale; covers for every node make the
evaluation functionals independent, hence X poised.  Conversely each
factor line of a fundamental polynomial of a poised set carries at least
two nodes and no line repeats, so the factors are such a cover.  GC
certification is therefore a covering search, and needs algebra only to
tell a non-poised set from a poised non-GC one after a cover is missing.

The covering search runs on the node set's own incidence index,
``xs.incidence`` (:class:`~gcnlab.geometry.Incidence`): nodes scaled by the
common denominator D of their coordinates to integers ``(X, Y)``, and every
line through two nodes mapped, under its primitive integer equation ``(A,
B, C)``, to the bitmask of its nodes.  The index stays with the set, so
whatever reads it after certification (maximal lines, the GM report,
sequences) reuses it.  A canonical :class:`Line` is built only for a line
that leaves the index: a cover line, or a line reported to a caller.  With
r lines left, a line holding at least r + 1 uncovered nodes must be chosen
(the other r - 1 lines meet it at most once each).  The lines are ranked
once by node count, largest first, so each forcing pass stops at the first
line with at most r nodes; after forcing, more than r^2 uncovered nodes
cannot be covered, and otherwise the search branches over the lines
through the lowest uncovered node.  Lines through the node being certified
are skipped by a mask test.  When a poised set has no cover at some node,
:class:`NotGC` names the node and the nodes its forced lines left
uncovered.

One rule turns a node's n lines into its certificate entry, and both
:func:`certify_gc` and :func:`verify_certificate` go through it.  Each
factor line is evaluated once at every node as the integer ``a*X + b*Y +
c*D`` (D times its value there), which gives its zero mask; a node's lines
are put in canonical order by their coefficient triples.  The product of a
node's lines vanishes at node j iff one of them does, so ``constant *
product(lines)`` is the Kronecker delta of node k, with the constant D^n
over the product's integer value at k, exactly when the OR of the zero
masks is every node but k.  Every factor line must also carry at least two
witness nodes where the other factors are nonzero: nodes of its zero mask
outside the OR of the other masks, read off prefix and suffix ORs.  A
repeated line would have no witness, so no entry that passes the rule
repeats a line.

One helper applies the rule to a node set, its distinct cover lines and
each node's cover as positions in those lines: :func:`certify_gc` hands
it the covers its search finds, and :mod:`gcnlab.generators` the covers
it knows by construction.  :func:`verify_certificate` checks a
certificate built anywhere else (every loader calls it): one entry per
node, in node order, n lines each, and each entry equal to what the rule
rebuilds from its lines.  Both raise
:class:`~gcnlab.errors.InvalidCertificate`, naming the node and the reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import prod
from operator import itemgetter
from typing import Sequence

from .errors import InvalidCertificate, NotGC, NotPoised
from .geometry import Incidence, Key, Line, NodeSet, Value, _bits


class NodeCertificate(Value):
    """Factorization of one node's fundamental polynomial.

    ``constant * product(lines)`` equals the fundamental polynomial exactly;
    ``witnesses`` maps each distinct factor line to the indices of nodes on
    it where the complementary cofactor is nonzero (always at least two).
    """

    __slots__ = _fields = ("node_index", "constant", "lines", "witnesses")


class GCCertificate(Value):
    """Per-node line factorizations for a whole poised set.

    The incidence index is the node set's own, ``nodeset.incidence``.
    """

    __slots__ = _fields = ("nodeset", "entries")

    @property
    def degree(self) -> int:
        return self.nodeset.degree


def line_incidence(xs: NodeSet) -> dict[Line, tuple[int, ...]]:
    """Every line through at least two nodes, with its incident node indices.

    Lines appear in the order of their first node pair (see
    :class:`~gcnlab.geometry.Incidence`).
    """
    if len(xs) < 2:
        raise ValueError("need at least two nodes to span lines")
    return {line: _bits(mask) for line, mask in xs.incidence.masks.items()}


def _cover(
    uncovered: int, lines: Sequence[tuple[int, int, Key]], r: int, avoid: int
) -> tuple[list[Key] | None, int]:
    """At most ``r`` lines that miss ``avoid`` and cover ``uncovered``.

    ``lines`` holds ``(node count, mask, key)`` for every line, largest
    node count first.  Returns the keys of such a cover, or None when there
    is none, and the nodes still uncovered when forcing stopped.
    """
    chosen: list[Key] = []
    while uncovered:
        forced = []
        for count, mask, key in lines:
            if count <= r:
                break
            if not mask & avoid and (mask & uncovered).bit_count() > r:
                forced.append((mask, key))
        if not forced:
            break
        if len(forced) > r:
            return None, uncovered
        for mask, key in forced:
            chosen.append(key)
            uncovered &= ~mask
        r -= len(forced)
    if not uncovered:
        return chosen, 0
    if uncovered.bit_count() > r * r:
        return None, uncovered
    low = uncovered & -uncovered
    for _, mask, key in lines:
        if mask & low and not mask & avoid:
            rest, _ = _cover(uncovered & ~mask, lines, r - 1, avoid)
            if rest is not None:
                return chosen + [key] + rest, uncovered
    return None, uncovered


def certify_gc(xs: NodeSet) -> GCCertificate:
    """Certify that every fundamental polynomial is a product of lines.

    Raises NotPoised when the set is not poised and NotGC (carrying the
    first offending node index and the nodes its forced lines left
    uncovered) when some node's fundamental polynomial is not a product of
    ``degree`` node-pair lines.  Each entry of the returned certificate
    comes from the rule of :func:`verify_certificate`, so it passes that
    check without being checked again.
    """
    n = xs.degree
    if len(xs) != (n + 1) * (n + 2) // 2:  # dim Pi_n
        raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
    index = xs.incidence
    everyone = (1 << len(xs)) - 1
    ranked = sorted(
        ((mask.bit_count(), mask, key) for key, mask in index.keys.items()),
        key=lambda t: t[0],
        reverse=True,
    )
    covers = []
    for k in range(len(xs)):
        bit = 1 << k
        keys, left = _cover(everyone ^ bit, ranked, n, bit)
        # a cover by fewer than n lines exists only in a non-poised set
        if keys is None or len(keys) != n:
            from .interpolation import is_poised

            if not is_poised(xs):
                raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
            raise NotGC(
                f"fundamental polynomial of node {k} is not a product of node-pair lines",
                node_index=k,
                uncovered=_bits(left),
            )
        covers.append(keys)
    # Every node has a cover, so the set is poised and each cover is the
    # factorization of a fundamental polynomial.
    keys = list(set(chain.from_iterable(covers)))
    position = {key: i for i, key in enumerate(keys)}
    lines = [index.line(key) for key in keys]
    return _certificate(xs, lines, [[position[key] for key in cover] for cover in covers])[0]


def _certificate(
    xs: NodeSet, lines: Sequence[Line], covers: Sequence[Sequence[int]]
) -> tuple[GCCertificate, list[int]]:
    """The certificate of ``xs`` in which node k is covered by the lines at ``covers[k]``.

    ``lines`` are distinct, and each is evaluated once.  Every entry comes
    from :func:`_entry`, so a cover of other than n lines, or one whose
    product is not node k's fundamental polynomial up to scale, raises
    InvalidCertificate.  Also returns each line's zero mask.
    """
    index = xs.incidence
    n = xs.degree
    records = [_record(index, line) for line in lines]
    entries = []
    for k, cover in enumerate(covers):
        if len(cover) != n:
            raise _invalid(k, "line count", f"{len(cover)} lines, not {n}")
        entries.append(_entry(index, k, [records[i] for i in cover]))
    return GCCertificate(xs, tuple(entries)), [rec[3] for rec in records]


def _invalid(k: int, reason: str, detail: str) -> InvalidCertificate:
    return InvalidCertificate(f"node {k}: {reason}: {detail}", node_index=k)


def _record(index: Incidence, line: Line) -> tuple[Key, Line, list[int], int]:
    """``(coefficients, line, values, zero mask)`` of a factor line.

    ``values`` holds D times the line's value at every node, and bit j of
    the zero mask is set iff the line passes through node j.
    """
    row = index.values(line)
    zero = 0
    for j, v in enumerate(row):
        if not v:
            zero |= 1 << j
    return line.coefficients, line, row, zero


def _entry(
    index: Incidence, k: int, recs: list[tuple[Key, Line, list[int], int]]
) -> NodeCertificate:
    """The canonical certificate entry of node ``k`` from the records of its lines.

    ``index`` is the node set's incidence index, and ``recs`` is sorted in
    place.  Raises InvalidCertificate when the lines' zero masks together
    do not hold exactly every node but k, or when a line has fewer than two
    witnesses.
    """
    recs.sort(key=itemgetter(0))  # coefficient order is Line order
    # after[f] is the OR of the zero masks of lines f, f+1, ...
    after = [0] * (len(recs) + 1)
    for f in range(len(recs) - 1, -1, -1):
        after[f] = after[f + 1] | recs[f][3]
    wrong = after[0] ^ ((1 << len(index.coords)) - 1) ^ (1 << k)
    if wrong:
        j = (wrong & -wrong).bit_length() - 1
        where = f"vanishes at node {k}" if j == k else f"does not vanish at node {j}"
        raise _invalid(k, "zero mask", f"the product of its lines {where}")
    witnesses: dict[Line, tuple[int, ...]] = {}
    before = 0
    for f, (_, line, _, zero) in enumerate(recs):
        found = _bits(zero & ~(before | after[f + 1]))
        if len(found) < 2:
            raise _invalid(k, "witnesses", f"factor {line} has {len(found)}, not at least two")
        witnesses[line] = found
        before |= zero
    # constant * product(lines) at node k is constant * product_k / D^n = 1
    at_k = prod(rec[2][k] for rec in recs)
    constant = Fraction(index.scale**index.degree, at_k)
    return NodeCertificate(k, constant, tuple(rec[1] for rec in recs), witnesses)


def verify_certificate(cert: GCCertificate) -> None:
    """Check a certificate against the rule that :func:`certify_gc` applies.

    Raises InvalidCertificate, naming the node and the reason, unless there
    is one entry per node of a set of dim Pi_n nodes, entry k is node k's,
    it has n lines, and its constant, lines and witnesses are exactly what
    the rule rebuilds from those lines.
    """
    xs = cert.nodeset
    n = xs.degree
    size = (n + 1) * (n + 2) // 2  # dim Pi_n
    if len(xs) != size or len(cert.entries) != size:
        raise InvalidCertificate(
            f"count: {len(cert.entries)} entries for {len(xs)} nodes; degree {n} needs "
            f"{size} of each"
        )
    index = xs.incidence
    lines = set(chain.from_iterable(entry.lines for entry in cert.entries))
    records = {line: _record(index, line) for line in lines}
    for k, entry in enumerate(cert.entries):
        if entry.node_index != k:
            raise _invalid(k, "order", f"entry {k} is for node {entry.node_index}")
        if len(entry.lines) != n:
            raise _invalid(k, "line count", f"{len(entry.lines)} lines, not {n}")
        rebuilt = _entry(index, k, [records[line] for line in entry.lines])
        for reason, given, want in (
            ("constant", entry.constant, rebuilt.constant),
            ("line order", tuple(entry.lines), rebuilt.lines),
            ("witnesses", entry.witnesses, rebuilt.witnesses),
        ):
            if given != want:
                raise _invalid(k, reason, f"{given}, not {want}")


def used_lines_of(cert: GCCertificate, k: int) -> set[Line]:
    """The distinct lines in node ``k``'s factor multiset."""
    return set(cert.entries[k].lines)
