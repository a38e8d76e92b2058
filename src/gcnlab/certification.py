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

The covering search runs on one :class:`Incidence` index per node set:
nodes scaled by the common denominator D of their coordinates to integers
``(X, Y)``, and every line through two nodes mapped, under its primitive
integer equation ``(A, B, C)``, to the bitmask of its nodes.  A canonical
:class:`Line` is built only for a line that leaves the index: a cover
line, or a line reported to a caller.  With r lines left, a line holding
at least r + 1 uncovered nodes must be chosen (the other r - 1 lines meet
it at most once each).  The lines are ranked once by node count, largest
first, so each forcing pass stops at the first line with at most r nodes;
after forcing, more than r^2 uncovered nodes cannot be covered, and
otherwise the search branches over the lines through the lowest uncovered
node.  Lines through the node being certified are skipped by a mask test.
When a poised set has no cover at some node, :class:`NotGC` names the node
and the nodes its forced lines left uncovered.

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

The index also holds the set's maximal lines, those through degree + 1
nodes, computed once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import (
    GCNLabError,
    NotDivisible,
    NotGC,
    NotPoised,
    NotProductOfCandidateLines,
    TooManyCollinear,
    ZeroPolynomial,
)
from .geometry import Line
from .interpolation import NodeSet, is_poised
from .polynomials import Poly, dim_pi, divide_by_line


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def scaled_nodes(xs: NodeSet) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The lcm D of all coordinate denominators and the integer nodes ``(D*x, D*y)``."""
    nodes = xs.nodes
    d = lcm(*(c.denominator for p in nodes for c in (p.x, p.y)))
    coords = tuple(
        (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
        for p in nodes
    )
    return d, coords


Key = tuple[int, int, int]


@dataclass(frozen=True)
class Incidence:
    """Every line through at least two nodes, with the bitmask of its nodes.

    ``degree`` is the node set's degree, ``scale`` the lcm D of all
    coordinate denominators and ``coords`` the integer nodes ``(D*x, D*y)``.
    ``keys`` maps the primitive equation ``(A, B, C)`` of each line,
    ``A*X + B*Y + C = 0`` in the integer coordinates with ``(A, B)`` coprime
    and its first nonzero positive, to the line's node bitmask: bit j is
    set iff node j lies on the line.  Lines are listed in the order their first node pair appears
    in the pair enumeration ``(0, 1), (0, 2), ..., (1, 2), ...``.

    :meth:`line` turns a key into its canonical :class:`Line` and
    :meth:`mask_of` looks a ``Line`` up; ``masks`` is the whole map keyed
    by ``Line``, in the same order, and ``maximal`` the maximal lines, each
    built on first use.
    """

    degree: int
    scale: int
    coords: tuple[tuple[int, int], ...]
    keys: Mapping[Key, int]

    @classmethod
    def of(cls, xs: NodeSet) -> "Incidence":
        """The index of ``xs``, built from its node pairs in one pass."""
        d, coords = scaled_nodes(xs)
        # Once the pairs of a line's first node are done, its mask is
        # complete, and every later pair on it is skipped.
        by_key: dict[Key, int] = {}
        known = [0] * len(coords)
        for i, (xi, yi) in enumerate(coords):
            first = []
            skip = known[i]
            for j in range(i + 1, len(coords)):
                if skip >> j & 1:
                    continue
                xj, yj = coords[j]
                a, b = yj - yi, xi - xj
                g = gcd(a, b)
                if a < 0 or (a == 0 and b < 0):
                    g = -g
                key = (a // g, b // g, (yi * xj - xi * yj) // g)
                mask = by_key.get(key)
                if mask is None:
                    by_key[key] = 1 << i | 1 << j
                    first.append(key)
                else:
                    by_key[key] = mask | 1 << j
            for key in first:
                mask = by_key[key]
                if mask.bit_count() > 2:
                    for u in _bits(mask):
                        known[u] |= mask
        return cls(xs.degree, d, coords, by_key)

    def line(self, key: Key) -> Line:
        """The canonical line with integer-coordinate equation ``key``."""
        a, b, c = key
        return Line(self.scale * a, self.scale * b, c)

    def mask_of(self, line: Line) -> int:
        """The node bitmask of ``line``; KeyError unless it holds two nodes."""
        h = gcd(line.a, line.b)
        c, rem = divmod(line.c * self.scale, h)
        if rem:
            raise KeyError(line)
        return self.keys[(line.a // h, line.b // h, c)]

    @cached_property
    def masks(self) -> dict[Line, int]:
        return {self.line(key): mask for key, mask in self.keys.items()}

    @cached_property
    def maximal(self) -> tuple[tuple[Line, tuple[int, ...]], ...]:
        """Every line through exactly degree + 1 nodes and its node indices, in line order.

        Raises TooManyCollinear, naming the first such line in line order,
        when a line holds more nodes than that; no poised set has one.
        """
        cap = self.degree + 1
        full = sorted(
            (self.line(key), mask) for key, mask in self.keys.items() if mask.bit_count() >= cap
        )
        for line, mask in full:
            count = mask.bit_count()
            if count > cap:
                raise TooManyCollinear(
                    f"{line} passes through {count} nodes; at most {cap} of a poised "
                    f"degree-{self.degree} set can be collinear",
                    line=line,
                    count=count,
                )
        return tuple((line, _bits(mask)) for line, mask in full)

    def nodes_on(self, line: Line) -> tuple[int, ...]:
        """Indices of the nodes on ``line``, ascending."""
        return _bits(self.mask_of(line))

    def values(self, line: Line) -> list[int]:
        """``a*X + b*Y + c*D`` at every node: D times the line's value there."""
        a, b, c = line.a, line.b, line.c * self.scale
        return [a * x + b * y + c for x, y in self.coords]


@dataclass(frozen=True)
class NodeCertificate:
    """Factorization of one node's fundamental polynomial.

    ``constant * product(lines)`` equals the fundamental polynomial exactly;
    ``witnesses`` maps each distinct factor line to the indices of nodes on
    it where the complementary cofactor is nonzero (always at least two).
    """

    node_index: int
    constant: Fraction
    lines: tuple[Line, ...]
    witnesses: Mapping[Line, tuple[int, ...]]


@dataclass(frozen=True)
class GCCertificate:
    """Per-node line factorizations for a whole poised set.

    The incidence index of the node set travels with a certificate from
    :func:`certify_gc`; it takes no part in equality or serialization, and
    a certificate built any other way computes it on first use.
    """

    nodeset: NodeSet
    entries: tuple[NodeCertificate, ...]
    index: Incidence | None = field(default=None, compare=False, repr=False)

    def entry(self, k: int) -> NodeCertificate:
        return self.entries[k]

    @property
    def degree(self) -> int:
        return self.nodeset.degree

    @property
    def incidence(self) -> Incidence:
        if self.index is None:
            object.__setattr__(self, "index", Incidence.of(self.nodeset))
        return self.index


@dataclass(frozen=True)
class UsedLineIndex:
    """For each line, the indices of the nodes whose factorization uses it."""

    users: Mapping[Line, tuple[int, ...]]

    @classmethod
    def from_certificate(cls, cert: GCCertificate) -> "UsedLineIndex":
        acc: dict[Line, list[int]] = {}
        for entry in cert.entries:
            for line in set(entry.lines):
                acc.setdefault(line, []).append(entry.node_index)
        return cls({line: tuple(sorted(ks)) for line, ks in sorted(acc.items())})

    def users_of(self, line: Line) -> tuple[int, ...]:
        return self.users.get(line, ())


def line_incidence(xs: NodeSet) -> dict[Line, tuple[int, ...]]:
    """Every line through at least two nodes, with its incident node indices.

    Lines appear in the order of their first node pair (see
    :class:`Incidence`).
    """
    if len(xs) < 2:
        raise ValueError("need at least two nodes to span lines")
    return {line: _bits(mask) for line, mask in Incidence.of(xs).masks.items()}


def candidate_lines(xs: NodeSet) -> set[Line]:
    """All canonical lines through at least two nodes, deduplicated."""
    return set(line_incidence(xs))


def factor_into_lines(p: Poly, candidates: set[Line]) -> tuple[tuple[Line, ...], Fraction]:
    """Factor ``p`` as ``constant * product(candidate lines)`` or fail.

    Candidates are tried in canonical order, each divided out to its full
    multiplicity.  Success means the residual is a nonzero constant after
    exactly ``p.degree()`` peels; a residual of degree >= 1 raises
    NotProductOfCandidateLines.
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no line factorization")
    residual = p
    factors: list[Line] = []
    for line in sorted(candidates):
        while residual.degree() >= 1:
            try:
                residual = divide_by_line(residual, line)
            except NotDivisible:
                break
            factors.append(line)
        if residual.degree() < 1:
            break
    if residual.degree() >= 1:
        raise NotProductOfCandidateLines(
            f"residual of degree {residual.degree()} is not a product of candidate lines",
            residual_degree=residual.degree(),
        )
    return tuple(sorted(factors)), residual.coeffs[0]


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
    if len(xs) != dim_pi(n):
        raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
    index = Incidence.of(xs)
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
    return GCCertificate(xs, tuple(entries), index)


def used_lines_of(cert: GCCertificate, k: int) -> set[Line]:
    """The distinct lines in node ``k``'s factor multiset."""
    return set(cert.entries[k].lines)


def used_line_index(cert: GCCertificate) -> UsedLineIndex:
    return UsedLineIndex.from_certificate(cert)
