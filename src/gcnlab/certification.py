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

The covering search runs on the incidence index that every node set
(:class:`~gcnlab.geometry.NodeSet`) is from construction: ``xs.coords``,
the nodes scaled by the common denominator ``xs.scale`` of their
coordinates to integers ``(X, Y)``, and ``xs.keys``, every line through
two nodes mapped, under ``geometry._canonical`` of its equation
``A*X + B*Y + C = 0`` in those integers, to the bitmask of its nodes,
built when first read and kept on the set.  So whatever reads the lines
after certification (maximal lines, the GM report, sequences) reuses
them.  A cover line leaves the index as its canonical integer triple, and
a :class:`Line` is built only for a line reported to a caller.  With r lines left, a line holding at least r + 1
uncovered nodes must be chosen (the other r - 1 lines meet it at most
once each).  The lines are ranked once by node count, largest first, so
each forcing pass stops at the first line with at most r nodes; after
forcing, more than r^2 uncovered nodes cannot be covered, and otherwise
the search branches over the lines through the lowest uncovered node.  Lines through the
node being certified are skipped by a mask test.  When a poised set has
no cover at some node, :class:`NotGC` names the node and the nodes its
forced lines left uncovered.

A certificate is a cover table (:class:`GCCertificate`): the distinct
cover lines, in Line order, as their canonical integer triples ``(a, b,
c)`` (``triples``), each node's cover as sorted positions in them
(``covers``), and each line's zero mask (``masks``: bit j is set iff the
line's integer value ``a*X + b*Y + c*D`` at node j is 0).  Every
constructor stores a table one way: ``certify_gc`` and the generators
hand over triples, and the public constructor takes Line objects and
hands over their triples.  A table that is canonical already, its lines
strictly increasing in Line order and every cover strictly increasing
and within range, is kept as it is (a natural lattice's generator, a
copy and an unpickled certificate hand one over); any other has its
distinct lines put in Line order and its covers remapped and sorted
(``certify_gc``, the loader, the principal lattice and affine images).
The masks are computed from the stored triples, and ``lines``, the
:class:`Line` objects, is a view built from them when first read, as a
node set builds its points, so a sweep that needs only validity builds
no Line.  The product of node k's lines is its fundamental polynomial up
to scale exactly when the OR of their zero masks is every node but k.
Each line must also carry at least two witnesses, nodes where only it
vanishes; a repeated line has none.  One pass over a node's lines ORs
their masks and the nodes seen again, so the witnesses are read off the
nodes on exactly one line.  :func:`verify_certificate` is the one place
this rule runs, and every constructor of :class:`GCCertificate` runs it
on the stored table, so every certificate that exists has passed, a
copied or unpickled one included.  Whatever reads a certificate trusts
its table.  Each node's constant, cover and witnesses are derived from
the table in integers, one way, which the certificate writer and reader
read; the entries (:class:`NodeCertificate`: a Fraction constant, Line
objects and witnesses) are a view built from that derivation when first
read, so a sweep that needs only validity builds none.  Failures raise
:class:`~gcnlab.errors.InvalidCertificate`, naming the node and the reason.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import prod
from operator import lt
from typing import Iterator, Sequence

from .errors import InvalidCertificate, NotGC, NotPoised
from .geometry import Key, Line, NodeSet, Triple, Value, _bits, _fraction


class NodeCertificate(Value):
    """Factorization of one node's fundamental polynomial.

    ``constant * product(lines)`` equals the fundamental polynomial exactly;
    ``witnesses`` maps each distinct factor line to the indices of nodes on
    it where the complementary cofactor is nonzero (always at least two).
    """

    __slots__ = _fields = ("node_index", "constant", "lines", "witnesses")


class GCCertificate(Value):
    """The cover table of a poised set: which lines cover each node.

    ``triples`` holds the canonical integer triples ``(a, b, c)`` of the
    distinct cover lines in Line order, ``covers[k]`` node k's lines as
    sorted positions in them, and ``masks`` each line's zero mask.  The
    constructor takes lines in any order, with the covers as positions in
    them, and stores their triples as :meth:`_of_triples` (which the
    generators and :func:`certify_gc` use) stores triples.  A table whose
    lines strictly increase in Line order and whose covers strictly
    increase within ``range(len(lines))`` is stored as given.  Any other
    has its distinct lines put in Line order and its covers remapped and
    sorted; a position outside ``range(len(lines))`` raises
    InvalidCertificate with reason ``position``, and a repeated one stays,
    for the rule to reject.  The zero masks are computed and stored, then
    :func:`verify_certificate` runs, so a table that breaks the rule raises
    InvalidCertificate and every certificate, copied and unpickled ones
    included, has passed.  ``lines``, the :class:`Line` objects, and
    ``entries``, built from :meth:`_derivations`, are views built from the
    table when first read; the caller's Line objects are not kept.  The
    incidence index is the node set itself.
    """

    _fields = ("nodeset", "lines", "covers")

    def __init__(self, nodeset: NodeSet, lines: Sequence[Line], covers: Sequence[Sequence[int]]):
        self._store(nodeset, [line._values() for line in lines], covers)

    @classmethod
    def _of_triples(
        cls, nodeset: NodeSet, triples: Sequence[Triple], covers: Sequence[Sequence[int]]
    ) -> GCCertificate:
        """The certificate of a table whose lines are canonical triples ``(a, b, c)``."""
        cert = object.__new__(cls)
        cert._store(nodeset, triples, covers)
        return cert

    def _store(
        self, nodeset: NodeSet, triples: Sequence[Triple], covers: Sequence[Sequence[int]]
    ) -> None:
        """Store the table in canonical order with its zero masks, and verify it."""
        triples, covers = _canonical_table(tuple(triples), tuple(map(tuple, covers)))
        object.__setattr__(self, "nodeset", nodeset)
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "masks", tuple(map(nodeset._mask, triples)))
        verify_certificate(self)

    @property
    def degree(self) -> int:
        return self.nodeset.degree

    @cached_property
    def lines(self) -> tuple[Line, ...]:
        """The cover lines, built from ``triples`` when first read."""
        return tuple(Line(*t) for t in self.triples)

    def _derivations(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...], tuple[int, ...]]]:
        """Each node's constant, cover and witness masks, in node order and in integers.

        The constant D^n / product is the pair ``(D^n, product)`` with the
        sign moved up, where ``product`` multiplies the node's lines' values
        ``a*X + b*Y + c*D`` at the node.  A line's witness mask holds its
        nodes that are on no other line of the cover.
        """
        xs = self.nodeset
        d = xs.scale
        scale = d**xs.degree
        triples, masks = self.triples, self.masks
        for (x, y), cover in zip(xs.coords, self.covers):
            _, once = _union_once(masks, cover)
            product = prod(a * x + b * y + c * d for a, b, c in (triples[f] for f in cover))
            ratio = (scale, product) if product > 0 else (-scale, -product)
            yield ratio, cover, tuple(masks[f] & once for f in cover)

    @cached_property
    def entries(self) -> tuple[NodeCertificate, ...]:
        """Each node's factorization, read off the verified table."""
        Fraction, lines = _fraction(), self.lines
        return tuple(
            NodeCertificate(k, Fraction(*ratio), tuple(lines[f] for f in cover),
                            {lines[f]: _bits(w) for f, w in zip(cover, witnesses)})
            for k, (ratio, cover, witnesses) in enumerate(self._derivations())
        )


def _canonical_table(
    triples: tuple[Triple, ...], covers: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Triple, ...], tuple[tuple[int, ...], ...]]:
    """The table with its distinct lines in Line order and each cover as sorted positions in them.

    A table that is canonical already, its triples strictly increasing and
    each cover strictly increasing within ``range(len(triples))``, is
    returned as given.  Raises InvalidCertificate with reason ``position``
    for a position outside that range; a repeated position stays.
    """
    m = len(triples)
    canonical = all(map(lt, triples, triples[1:]))
    for k, cover in enumerate(covers):
        last = -1
        for i in cover:
            # last >= -1, so every position outside range(m) lands here
            if not last < i < m:
                if not 0 <= i < m:
                    raise _invalid(k, "position", f"{i} is not one of {m} positions")
                canonical = False
            last = i
    if canonical:
        return triples, covers
    distinct: list[Triple] = []
    position = [0] * m
    for i in sorted(range(m), key=triples.__getitem__):
        if not distinct or triples[i] != distinct[-1]:
            distinct.append(triples[i])
        position[i] = len(distinct) - 1
    remap = position.__getitem__
    return tuple(distinct), tuple(tuple(sorted(map(remap, cover))) for cover in covers)


def line_incidence(xs: NodeSet) -> dict[Line, tuple[int, ...]]:
    """Every line through at least two nodes, with its incident node indices.

    Lines appear in the order of their first node pair (see
    :class:`~gcnlab.geometry.NodeSet`).
    """
    if len(xs) < 2:
        raise ValueError("need at least two nodes to span lines")
    return {xs.line(key): _bits(mask) for key, mask in xs.keys.items()}


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
    ``degree`` node-pair lines.  The returned cover table has passed
    :func:`verify_certificate`.
    """
    n = xs.degree
    if len(xs) != (n + 1) * (n + 2) // 2:  # dim Pi_n
        raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
    everyone = (1 << len(xs)) - 1
    ranked = sorted(
        ((mask.bit_count(), mask, key) for key, mask in xs.keys.items()),
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
    position: dict[Key, int] = {}
    covers = [[position.setdefault(key, len(position)) for key in cover] for cover in covers]
    return GCCertificate._of_triples(xs, list(map(xs._triple, position)), covers)


def _invalid(k: int, reason: str, detail: str) -> InvalidCertificate:
    return InvalidCertificate(f"node {k}: {reason}: {detail}", node_index=k)


def _union_once(masks: Sequence[int], cover: Sequence[int]) -> tuple[int, int]:
    """The OR of the zero masks ``masks[f]`` of a cover, and the nodes on exactly one of them."""
    seen = multi = 0
    for f in cover:
        multi |= seen & masks[f]
        seen |= masks[f]
    return seen, seen & ~multi


def verify_certificate(cert: GCCertificate) -> None:
    """Check a cover table against the certificate rule.

    Raises InvalidCertificate, naming the node and the reason, unless the
    set has dim Pi_n nodes and the table a cover for each, every cover has
    n lines, the zero masks of node k's lines together hold exactly every
    node but k, and each of its lines has at least two witnesses.
    """
    n = cert.nodeset.degree
    size = (n + 1) * (n + 2) // 2  # dim Pi_n
    count = len(cert.nodeset.coords)
    if count != size or len(cert.covers) != size:
        entries = f"count: {len(cert.covers)} entries for {count} nodes"
        try:
            needs = f"degree {n} needs {size} of each"
        except ValueError:  # dim Pi_n is past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            needs = f"the degree needs dim Pi_n of each, an integer past the {limit}-digit limit"
        raise InvalidCertificate(f"{entries}; {needs}")
    masks = cert.masks
    everyone = (1 << size) - 1
    for k, cover in enumerate(cert.covers):
        if len(cover) != n:
            raise _invalid(k, "line count", f"{len(cover)} lines, not {n}")
        union, once = _union_once(masks, cover)
        wrong = union ^ everyone ^ (1 << k)
        if wrong:
            j = (wrong & -wrong).bit_length() - 1
            where = f"vanishes at node {k}" if j == k else f"does not vanish at node {j}"
            raise _invalid(k, "zero mask", f"the product of its lines {where}")
        for f in cover:
            witnesses = (masks[f] & once).bit_count()
            if witnesses < 2:
                detail = f"factor {cert.lines[f]} has {witnesses}, not at least two"
                raise _invalid(k, "witnesses", detail)


def used_lines_of(cert: GCCertificate, k: int) -> set[Line]:
    """The distinct lines in node ``k``'s factor multiset."""
    return {cert.lines[f] for f in cert.covers[k]}
