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

Certificates are rechecked exactly before being returned.  Each factor
line is evaluated once at every node as the integer ``a*X + b*Y + c*D``
(D times its value there), which gives its zero mask; a node's lines are
put in canonical order by their coefficient triples.  The product of a
node's lines vanishes at node j iff one of them does, so ``constant *
product(lines)`` is the Kronecker delta of node k, with the constant D^n
over the product's integer value at k, exactly when the OR of the zero
masks is every node but k.  Every factor line must also carry at least two
witness nodes where the other factors are nonzero: nodes of its zero mask
outside the OR of the other masks, read off prefix and suffix ORs.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import itemgetter
from typing import Sequence

from .errors import GCNLabError, NotGC, NotPoised
from .geometry import Key, Line, NodeSet, Value, _bits


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
    ``degree`` node-pair lines.  The returned certificate has been
    rechecked by exact evaluation at every node.
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
    # factorization of a fundamental polynomial; what follows rechecks that.
    # The product of node k's lines is zero at node j iff one of them is,
    # so it is the Kronecker delta up to the constant exactly when their
    # zero masks together hold every node but k.
    scale_n = index.scale**n
    # one record (coefficients, line, row, zero mask) per distinct cover key;
    # sorting a node's records by coefficients puts its lines in Line order
    records: dict[Key, tuple[Key, Line, list[int], int]] = {}
    entries = []
    for k, keys in enumerate(covers):
        recs = []
        for key in keys:
            rec = records.get(key)
            if rec is None:
                line = index.line(key)
                row = index.values(line)
                zero = 0
                for j, v in enumerate(row):
                    if not v:
                        zero |= 1 << j
                rec = records[key] = (line.coefficients, line, row, zero)
            recs.append(rec)
        recs.sort(key=itemgetter(0))
        # constant * product(lines) at node j is const * product_j / D^n.
        at_k = prod(rec[2][k] for rec in recs)
        const = Fraction(scale_n, at_k) if at_k else Fraction(0)
        # after[f] is the OR of the zero masks of lines f, f+1, ...
        after = [0] * (len(recs) + 1)
        for f in range(len(recs) - 1, -1, -1):
            after[f] = after[f + 1] | recs[f][3]
        wrong = after[0] ^ everyone ^ (1 << k)
        if wrong:
            j = (wrong & -wrong).bit_length() - 1
            raise GCNLabError(
                f"internal: certified product for node {k} evaluates to "
                f"{const * prod(rec[2][j] for rec in recs) / scale_n} at node {j}"
            )
        witnesses: dict[Line, tuple[int, ...]] = {}
        before = 0
        for f, (_, line, _, zero) in enumerate(recs):
            found = _bits(zero & ~(before | after[f + 1]))
            if len(found) < 2:
                raise GCNLabError(
                    f"internal: factor {line} of node {k} has {len(found)} nonvanishing-cofactor "
                    "witnesses; a used line of a poised set must have at least two"
                )
            witnesses[line] = found
            before |= zero
        entries.append(NodeCertificate(k, const, tuple(rec[1] for rec in recs), witnesses))
    return GCCertificate(xs, tuple(entries))


def used_lines_of(cert: GCCertificate, k: int) -> set[Line]:
    """The distinct lines in node ``k``'s factor multiset."""
    return set(cert.entries[k].lines)
