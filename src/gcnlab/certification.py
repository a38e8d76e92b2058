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
``(X, Y)``, and every line through two nodes mapped to the bitmask of its
nodes.  With r lines left, a line holding at least r + 1 uncovered nodes
must be chosen (the other r - 1 lines meet it at most once each); after
forcing, more than r^2 uncovered nodes cannot be covered, and otherwise
the search branches over the lines through the lowest uncovered node.

Certificates are rechecked exactly before being returned: the integer
evaluation ``a*X + b*Y + c*D`` of every factor at every node must give
``constant * product(lines)`` equal to the Kronecker delta, and every
factor line must carry at least two witness nodes where the other factors
are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import (
    GCNLabError,
    NotDivisible,
    NotGC,
    NotPoised,
    NotProductOfCandidateLines,
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


@dataclass(frozen=True)
class Incidence:
    """Every line through at least two nodes, with the bitmask of its nodes.

    ``scale`` is the lcm D of all coordinate denominators and ``coords``
    holds the integer nodes ``(D*x, D*y)``.  ``masks`` lists the lines in
    the order their first node pair appears in the pair enumeration
    ``(0, 1), (0, 2), ..., (1, 2), ...``; bit j of a mask is set iff node j
    lies on the line.
    """

    scale: int
    coords: tuple[tuple[int, int], ...]
    masks: Mapping[Line, int]

    @classmethod
    def of(cls, xs: NodeSet) -> "Incidence":
        """The index of ``xs``, built from its node pairs in one pass."""
        nodes = xs.nodes
        d = lcm(*(c.denominator for p in nodes for c in (p.x, p.y)))
        coords = tuple(
            (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
            for p in nodes
        )
        # Lines are keyed by their primitive equation A*X + B*Y + C = 0 in
        # the integer coordinates.  Once the pairs of a line's first node are
        # done, its mask is complete, and every later pair on it is skipped.
        by_key: dict[tuple[int, int, int], int] = {}
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
        masks = {Line(d * a, d * b, c): mask for (a, b, c), mask in by_key.items()}
        return cls(d, coords, masks)

    def nodes_on(self, line: Line) -> tuple[int, ...]:
        """Indices of the nodes on ``line``, ascending."""
        return _bits(self.masks[line])

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
    uncovered: int, cands: Sequence[tuple[Line, int]], r: int
) -> list[Line] | None:
    """At most ``r`` candidate lines whose masks cover ``uncovered``, or None."""
    chosen: list[Line] = []
    while uncovered:
        forced = []
        live = []
        for line, mask in cands:
            count = (mask & uncovered).bit_count()
            if count > r:
                forced.append((line, mask))
            elif count:
                live.append((line, mask))
        if not forced:
            break
        if len(forced) > r:
            return None
        for line, mask in forced:
            chosen.append(line)
            uncovered &= ~mask
        r -= len(forced)
        cands = live
    if not uncovered:
        return chosen
    if uncovered.bit_count() > r * r:
        return None
    low = uncovered & -uncovered
    for line, mask in cands:
        if mask & low:
            rest = _cover(uncovered & ~mask, cands, r - 1)
            if rest is not None:
                return chosen + [line] + rest
    return None


def certify_gc(xs: NodeSet) -> GCCertificate:
    """Certify that every fundamental polynomial is a product of lines.

    Raises NotPoised when the set is not poised and NotGC (carrying the
    first offending node index) when some node's fundamental polynomial is
    not a product of ``degree`` node-pair lines.  The returned certificate
    has been rechecked by exact evaluation at every node.
    """
    n = xs.degree
    if len(xs) != dim_pi(n):
        raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
    index = Incidence.of(xs)
    everyone = (1 << len(xs)) - 1
    covers = []
    for k in range(len(xs)):
        bit = 1 << k
        cands = [(l, m) for l, m in index.masks.items() if not m & bit]
        lines = _cover(everyone ^ bit, cands, n)
        # a cover by fewer than n lines exists only in a non-poised set
        if lines is None or len(lines) != n:
            if not is_poised(xs):
                raise NotPoised(f"{len(xs)} nodes at degree {n} are not poised")
            raise NotGC(
                f"fundamental polynomial of node {k} is not a product of node-pair lines",
                node_index=k,
            )
        covers.append(sorted(lines))
    # Every node has a cover, so the set is poised and each cover is the
    # factorization of a fundamental polynomial; what follows rechecks that.
    scale_n = index.scale**n
    evaluated: dict[Line, tuple[list[int], int]] = {}
    entries = []
    for k, lines in enumerate(covers):
        for l in lines:
            if l not in evaluated:
                row = index.values(l)
                evaluated[l] = (row, sum(1 << j for j, v in enumerate(row) if v == 0))
        rows = [evaluated[l][0] for l in lines]
        # constant * product(lines) at node j is const * products[j] / D^n.
        products = [prod(col) for col in zip(*rows)] if rows else [1] * len(xs)
        const = Fraction(scale_n, products[k]) if products[k] else Fraction(0)
        for j, v in enumerate(products):
            if (const * v != scale_n) if j == k else v != 0:
                raise GCNLabError(
                    f"internal: certified product for node {k} evaluates to "
                    f"{const * v / scale_n} at node {j}"
                )
        zeros = [evaluated[l][1] for l in lines]
        witnesses: dict[Line, tuple[int, ...]] = {}
        for f, line in enumerate(lines):
            others = 0
            for g, z in enumerate(zeros):
                if g != f:
                    others |= z
            found = _bits(zeros[f] & ~others)
            if len(found) < 2:
                raise GCNLabError(
                    f"internal: factor {line} of node {k} has {len(found)} nonvanishing-cofactor "
                    "witnesses; a used line of a poised set must have at least two"
                )
            witnesses[line] = found
        entries.append(NodeCertificate(k, const, tuple(lines), witnesses))
    return GCCertificate(xs, tuple(entries), index)


def used_lines_of(cert: GCCertificate, k: int) -> set[Line]:
    """The distinct lines in node ``k``'s factor multiset."""
    return set(cert.entries[k].lines)


def used_line_index(cert: GCCertificate) -> UsedLineIndex:
    return UsedLineIndex.from_certificate(cert)
