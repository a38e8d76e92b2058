"""Independent baseline implementations used to cross-check the library.

Everything here deliberately avoids the library's own code paths: rank is
naive rational Gaussian elimination (the library uses fraction-free
Bareiss), line deduplication uses a slope/intercept normal form (the
library uses canonical integer triples), and polynomial products are plain
dict convolution.  Expected values frozen into tests were produced by these
routines.

:func:`certify_gc_algebraic` is the algebraic GC certifier the library's
cover search replaced: it decides poisedness by rank, solves for every
fundamental polynomial and factors each one by exact division into
node-pair lines, then rechecks the product by Fraction evaluation.  It
returns its own entries (:class:`AlgebraicCertificate`), with constants
and witnesses from the exact solve, not the library's cover table, so the
tests compare them with the entries the library derives from the table.

:func:`enumerate_mdseqs_dfs` is the ordering-by-ordering stack walk the
library's deduplicated frontier replaced.

:func:`greedy_order_fraction` orders a used-line set greedily by Fraction
incidence, ties to the least ``Line``; the library states that rule once,
on node bitmasks.

:func:`verify_swap_property_fraction` is the swap-law check the library's
node-mask test replaced: it intersects the two lines in Fraction arithmetic
and looks the meet up among the nodes.

:func:`cayley_bacharach_set_fraction` builds the node set of a
Cayley-Bacharach check the way the library did before the check stayed on
integers: it intersects every cross pair in Fraction arithmetic, by
eliminating a variable rather than by Cramer's rule, and builds the set
from the points with the NodeSet constructor, raising the library's
DegenerateIntersection messages.

:func:`line_through` is the Fraction line through two points; it left the
library once nothing there built a line from a node pair.

:func:`general_position` is the integer-determinant test of whole line
lists that left the library once the generators began testing general
position one drawn line at a time; :func:`general_position_fraction` is
the concurrency test it replaced: it intersects every pair of lines in
Fraction arithmetic and evaluates every later line at the meet.

:func:`vandermonde_naive` builds Vandermonde rows from Fraction powers of
the coordinates; the library builds integer rows and divides by their
scale.  :func:`incidence_profile_fraction` groups a target by the Fraction
line through the center and each target node; the library reads the lines
off the node set's integer incidence index.

:func:`nullspace_naive` reads a kernel basis off the reduced row echelon
form in Fraction arithmetic; the library back-substitutes on fraction-free
echelon rows.

:func:`is_consistent` is the one-system consistency check by Bareiss rank;
it is the per-column reference for ``gcnlab.linalg.unit_consistency``.

:func:`pivots_mod_p_lists` is the modular elimination the library's
packed-row kernel replaced: rows are lists of residues, and every entry
of every row update is reduced on its own.

:func:`chung_yao_fraction` and :func:`projective_image_fraction` (with
``*_nodes_fraction`` for the node set alone) are the builders the
library's integer generators replaced: they draw canonical :class:`Line`
objects, test general position with :func:`general_position` on the whole
list, intersect in Fraction arithmetic, sort Points and apply the affine
map to Fraction coordinates and its inverse to Fraction line
coefficients, from the same seeded stream, and return the cover lines in
Line order beside the node set.

:func:`candidate_lines`, :func:`factor_into_lines` (raising
:class:`NotProductOfCandidateLines`) and :class:`UsedLineIndex` /
:func:`used_line_index` are the factorization and line-use helpers that
left the library once certification became a cover search; the tests use
them to look inside fundamental polynomials and certificates.

:func:`_private` is the prefix-and-suffix OR the library's certificate
rule used before it read each cover in one pass, and
:func:`certificate_fault_private` applies the rule with it, to a table of
zero masks and covers; the tests compare its verdict with
``verify_certificate``'s.

:class:`ReferenceSplitMix64` and :func:`reference_substream_seed` restate
the seeded stream from the formula in the :mod:`gcnlab.rng` docstring (the
state advances by the golden gamma modulo 2**64, each output is the
splitmix64 finalizer of the new state, bounded integers come by rejection
below the largest multiple of the span), as one plain function per
output; the Fraction node builders draw from it, so a changed library
stream shows as a mismatch rather than moving both sides alike.

:func:`nodeset_from_dict_fraction` is the node-file loader the library's
integer one replaced: it parses every ``"p/q"`` with ``Fraction`` and
builds the set from Points through the NodeSet constructor.
:func:`plot_svg_fraction` is the SVG writer the library's integer one
replaced: it computes the viewport, the pixels and the clipping of each
line against the four sides (with :func:`~gcnlab.intersect`) in Fraction
arithmetic, and converts with ``float(Fraction)``.

:func:`save_certificate_lines` and :func:`load_certificate_lines` are
the certificate writer and reader the library's integer ones replaced:
the writer reads ``cert.entries`` (Line objects, Fraction constants), and
the reader parses every line and witness key into a :class:`Line` and
every constant into a Fraction, rebuilds the table through the public
``GCCertificate`` constructor and compares its entries with the file's.

:func:`poly_add_dict`, :func:`multiply_line_dict` and
:func:`divide_by_line_dict` are ``Poly.__add__``, ``multiply_line`` and
``divide_by_line`` as they were before the library worked on coefficient
positions: they go through ``as_dict`` dictionaries keyed by exponent
pair, divide along x and along y in two loops, and build the result from
a dictionary over an index made by enumerating :func:`~gcnlab.monomials`.

:class:`DataclassPoint` and :class:`DataclassLine` are the frozen, ordered
dataclasses that ``Point`` and ``Line`` were before they became plain
classes; the tests compare construction, errors, equality, hashing, order
and repr against them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping

from gcnlab import (
    BadRational,
    DegenerateIntersection,
    DuplicateNode,
    GCCertificate,
    GCNLabError,
    InvalidCertificate,
    IdenticalLines,
    IdenticalPoints,
    Line,
    MDSequence,
    NodeCertificate,
    NodeSet,
    NotDivisible,
    NotGC,
    NotPoised,
    DuplicateLine,
    Poly,
    ParallelLines,
    ParseError,
    Point,
    RetryLimitExceeded,
    ZeroPolynomial,
    all_fundamentals,
    dim_pi,
    divide_by_line,
    intersect,
    is_incident,
    is_poised,
    line_incidence,
    monomials,
    to_scalar,
)
from gcnlab.generators import RETRY_LIMIT
from gcnlab.linalg import _echelon, _integer_rows
from gcnlab.nodefile import _loads, _too_long, nodeset_from_dict, nodeset_to_dict, parse_rational


@dataclass(frozen=True, order=True)
class DataclassPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_scalar(self.x))
        object.__setattr__(self, "y", to_scalar(self.y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True, order=True)
class DataclassLine:
    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not all(isinstance(v, int) for v in (a, b, c)):
            raise TypeError("line coefficients must be int; see Line.from_rationals")
        if a == 0 and b == 0:
            raise ValueError("(a, b) = (0, 0) does not define a line")
        g = gcd(gcd(abs(a), abs(b)), abs(c))
        a, b, c = a // g, b // g, c // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_rationals(cls, a, b, c):
        qa, qb, qc = to_scalar(a), to_scalar(b), to_scalar(c)
        m = lcm(qa.denominator, qb.denominator, qc.denominator)
        return cls(int(qa * m), int(qb * m), int(qc * m))

    @property
    def coefficients(self):
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"Line({self.a}, {self.b}, {self.c})"


def rank_naive(rows):
    """Rank by textbook rational Gaussian elimination with division."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / inv
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
    return r


def nullspace_naive(rows, ncols=None):
    """A kernel basis by Fraction Gauss-Jordan elimination to reduced row echelon form.

    With no rows, ``ncols`` gives the width (none: no columns).  The vector
    of free column f is 1 at f, 0 at the other free columns, and minus the
    reduced entry in column f at the pivot column of each reduced row.  The
    pivot columns do not depend on how the elimination runs, so this basis
    is unique.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    width = len(m[0]) if m else ncols or 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for f in range(width):
        if f not in pivots:
            v = [Fraction(0)] * width
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -m[r][f]
            basis.append(v)
    return basis


def solvable_naive(rows, rhs):
    """Consistency of A x = b via ranks computed by :func:`rank_naive`."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    return rank_naive(aug) == rank_naive(rows)


def vandermonde_naive(nodes, degree):
    """Monomial values ``x**i * y**j`` per node, in graded-lex order, in Fractions."""
    exponents = [(i, t - i) for t in range(degree + 1) for i in range(t, -1, -1)]
    return [[p.x**i * p.y**j for i, j in exponents] for p in nodes]


def incidence_profile_fraction(xs, center, target):
    """Counts of lines through ``center`` by target nodes met, from Fraction lines per target."""
    per_line = {}
    for j in target:
        line = line_through(xs.nodes[center], xs.nodes[j])
        per_line[line] = per_line.get(line, 0) + 1
    counts = {}
    for k in per_line.values():
        counts[k] = counts.get(k, 0) + 1
    return counts


def is_consistent(rows, rhs):
    """True iff ``A x = b`` has a solution, by rank of [A|b] versus A.

    A single echelon pass decides both ranks: the system is consistent
    exactly when the appended column is not a pivot column.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match the number of rows")
    if not rows:
        return True
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(aug[0])
    _, pivot_cols = _echelon(_integer_rows(aug))
    return (ncols - 1) not in pivot_cols


def pivots_mod_p_lists(rows, p):
    """Pivot columns of the row echelon form of integer rows modulo the prime ``p``."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        # left of column c, rows r and below are already 0
        inv = pow(m[r][c], -1, p)
        pivot = [v * inv % p for v in m[r][c:]]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f:
                row[c:] = [(v - f * w) % p for v, w in zip(row[c:], pivot)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def _meet_fraction(l1, l2):
    """The meet of two lines by eliminating x (or y when l1 has no x), in Fractions."""
    if l1 == l2:
        raise IdenticalLines(f"{l1} given twice")
    if l1.a * l2.b == l2.a * l1.b:
        raise ParallelLines(f"{l1} and {l2} are parallel")
    if l1.a:
        y = (Fraction(l2.a * l1.c, l1.a) - l2.c) / (l2.b - Fraction(l2.a * l1.b, l1.a))
        return Point(-(l1.b * y + l1.c) / l1.a, y)
    y = Fraction(-l1.c, l1.b)
    return Point(-(l2.b * y + l2.c) / l2.a, y)


def cayley_bacharach_set_fraction(lines_m, lines_n):
    """The degree-(m+n-3) set of the m*n cross meets, or DegenerateIntersection."""
    points = []
    for la in lines_m:
        for lb in lines_n:
            try:
                points.append(_meet_fraction(la, lb))
            except (ParallelLines, IdenticalLines) as exc:
                raise DegenerateIntersection(f"{la} and {lb} do not meet transversally") from exc
    try:
        return NodeSet(len(lines_m) + len(lines_n) - 3, points)
    except DuplicateNode as exc:
        raise DegenerateIntersection(
            f"only {len(set(points))} distinct intersection points, expected {len(points)}"
        ) from exc


def line_through(p, q):
    """The canonical line incident to both ``p`` and ``q``.

    Raises IdenticalPoints when ``p == q``.
    """
    if p == q:
        raise IdenticalPoints(f"no unique line through coincident points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = p.y * q.x - p.x * q.y
    return Line.from_rationals(a, b, c)


def general_position(lines):
    """True iff no two lines are parallel and no three are concurrent.

    Raises DuplicateLine if the same canonical line appears twice.  The
    result is invariant under permutation of the input.
    """
    ls = list(lines)
    seen: set[Line] = set()
    for l in ls:
        if l in seen:
            raise DuplicateLine(f"{l} appears twice")
        seen.add(l)
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            if ls[i].a * ls[j].b - ls[j].a * ls[i].b == 0:
                return False
    # Pairwise non-parallel lines are concurrent exactly when the integer
    # determinant of their coefficient rows, l_k . (l_i x l_j), vanishes.
    for i in range(len(ls)):
        a1, b1, c1 = ls[i].a, ls[i].b, ls[i].c
        for j in range(i + 1, len(ls)):
            a2, b2, c2 = ls[j].a, ls[j].b, ls[j].c
            m0, m1, m2 = b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2
            for k in range(j + 1, len(ls)):
                l = ls[k]
                if l.a * m0 + l.b * m1 + l.c * m2 == 0:
                    return False
    return True


def general_position_fraction(lines):
    """No two lines parallel and no three concurrent, by Fraction incidence.

    Raises DuplicateLine if a canonical line appears twice.  Every pair of
    lines is intersected exactly and every later line is evaluated at the
    meet.
    """
    ls = list(lines)
    seen = set()
    for l in ls:
        if l in seen:
            raise DuplicateLine(f"{l} appears twice")
        seen.add(l)
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            if ls[i].a * ls[j].b - ls[j].a * ls[i].b == 0:
                return False
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            p = intersect(ls[i], ls[j])
            for k in range(j + 1, len(ls)):
                if is_incident(p, ls[k]):
                    return False
    return True


def slope_form(p, q):
    """Slope/intercept normal form of the line through two points.

    Vertical lines are ('v', x); others are ('s', slope, intercept).  This
    is an alternative canonical representation for deduplication.
    """
    if p[0] == q[0]:
        return ("v", Fraction(p[0]))
    slope = Fraction(q[1] - p[1], 1) / Fraction(q[0] - p[0], 1)
    intercept = Fraction(p[1]) - slope * Fraction(p[0])
    return ("s", slope, intercept)


def distinct_pair_lines(points):
    """Set of slope-form lines spanned by all point pairs."""
    pts = [(p.x, p.y) for p in points]
    return {
        slope_form(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    }


def collinear(a, b, c):
    """Exact orientation test: zero iff the three points are collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0


def poly_multiply_naive(d1, d2):
    """Dict-convolution product of two coefficient dictionaries."""
    out = {}
    for (i1, j1), c1 in d1.items():
        for (i2, j2), c2 in d2.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _poly_from_dict(entries, n):
    """The Poly of bound ``n`` with the coefficients in ``entries``, placed by enumerating monomials(n)."""
    index = {ij: pos for pos, ij in enumerate(monomials(n))}
    c = [0] * dim_pi(n)
    for ij, v in entries.items():
        c[index[ij]] = v
    return Poly(n, tuple(c))


def poly_add_dict(p, q):
    """``p + q`` by adding the coefficient dictionaries, at the larger bound."""
    out = dict(p.as_dict())
    for ij, c in q.as_dict().items():
        out[ij] = out.get(ij, 0) + c
    return _poly_from_dict(out, max(p.degree_bound, q.degree_bound))


def multiply_line_dict(p, line):
    """``p * (a*x + b*y + c)`` by dictionary, at bound one higher."""
    out = {}
    for (i, j), c in p.as_dict().items():
        for ij, f in (((i + 1, j), line.a), ((i, j + 1), line.b), ((i, j), line.c)):
            if f:
                out[ij] = out.get(ij, 0) + f * c
    return _poly_from_dict(out, p.degree_bound + 1)


def divide_by_line_dict(p, line):
    """Exact quotient by long division on a dictionary: along x when a != 0, else along y."""
    if p.is_zero():
        raise ZeroPolynomial("cannot divide the zero polynomial by a line")
    n = p.degree_bound
    if n == 0:
        raise NotDivisible(f"nonzero constant has no factor {line}")
    table = dict(p.as_dict())
    quotient = {}
    if line.a != 0:
        for i in range(n, 0, -1):
            for j in range(n - i + 1):
                c = table.pop((i, j), 0)
                if c == 0:
                    continue
                q = c / line.a
                quotient[(i - 1, j)] = q
                if line.b:
                    table[(i - 1, j + 1)] = table.get((i - 1, j + 1), 0) - q * line.b
                if line.c:
                    table[(i - 1, j)] = table.get((i - 1, j), 0) - q * line.c
    else:
        for j in range(n, 0, -1):
            for i in range(n - j + 1):
                c = table.pop((i, j), 0)
                if c == 0:
                    continue
                q = c / line.b
                quotient[(i, j - 1)] = q
                if line.c:
                    table[(i, j - 1)] = table.get((i, j - 1), 0) - q * line.c
    if any(v != 0 for v in table.values()):
        raise NotDivisible(f"{line} leaves a nonzero remainder")
    return _poly_from_dict({ij: c for ij, c in quotient.items() if c != 0}, n - 1)


def greedy_counts_recount(node_points, ordered_lines):
    """Recount newly covered nodes per line, straight from incidences.

    ``ordered_lines`` holds (a, b, c) coefficient triples; a node (x, y) is
    on a line iff a*x + b*y + c == 0.  Independent of the library's
    sequence engine.
    """
    remaining = set(range(len(node_points)))
    counts = []
    for a, b, c in ordered_lines:
        new = {
            k
            for k in remaining
            if a * node_points[k][0] + b * node_points[k][1] + c == 0
        }
        counts.append(len(new))
        remaining -= new
    return tuple(counts)


def line_incidence_pairs(xs):
    """Line -> sorted node indices, from ``line_through`` on every node pair.

    Keys are in the order of each line's first pair ``(i, j)``, ``i < j``.
    """
    acc = {}
    nodes = xs.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            acc.setdefault(line_through(nodes[i], nodes[j]), set()).update((i, j))
    return {l: tuple(sorted(ids)) for l, ids in acc.items()}


class NotProductOfCandidateLines(GCNLabError):
    """A residual of degree >= 1 remained after all candidate divisions."""

    def __init__(self, message, residual_degree=None):
        super().__init__(message)
        self.residual_degree = residual_degree


def candidate_lines(xs):
    """All canonical lines through at least two nodes, deduplicated."""
    return set(line_incidence(xs))


def factor_into_lines(p, candidates):
    """Factor ``p`` as ``constant * product(candidate lines)`` or fail.

    Candidates are tried in canonical order, each divided out to its full
    multiplicity.  Success means the residual is a nonzero constant after
    exactly ``p.degree()`` peels; a residual of degree >= 1 raises
    NotProductOfCandidateLines.
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no line factorization")
    residual = p
    factors = []
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


@dataclass(frozen=True)
class UsedLineIndex:
    """For each line, the indices of the nodes whose factorization uses it."""

    users: Mapping

    @classmethod
    def from_certificate(cls, cert):
        acc = {}
        for entry in cert.entries:
            for line in set(entry.lines):
                acc.setdefault(line, []).append(entry.node_index)
        return cls({line: tuple(sorted(ks)) for line, ks in sorted(acc.items())})

    def users_of(self, line):
        return self.users.get(line, ())


def used_line_index(cert):
    return UsedLineIndex.from_certificate(cert)


def _factor_zero_cover(p, cands, zero_nodes):
    """Greedy factorization of a polynomial with known zero nodes.

    ``zero_nodes`` must index nodes where ``p`` vanishes; the invariant that
    every still-uncovered zero node remains a zero of the residual justifies
    the guaranteed-division fast path (a line through ``deg + 1`` zeros of
    a degree-``deg`` polynomial divides it).  Without such a line it falls
    back to trial division over all candidates.
    """
    residual = p
    uncovered = set(zero_nodes)
    factors = []
    while residual.degree() >= 1:
        d = residual.degree()
        best_line, best_idx, best_count = None, None, -1
        for line, idxs in cands:
            c = len(idxs & uncovered)
            if c > best_count:
                best_line, best_idx, best_count = line, idxs, c
        if best_line is not None and best_count >= d + 1:
            residual = divide_by_line(residual, best_line)
            factors.append(best_line)
            uncovered -= best_idx
            continue
        for line, idxs in cands:
            try:
                residual = divide_by_line(residual, line)
            except NotDivisible:
                continue
            factors.append(line)
            uncovered -= idxs
            break
        else:
            raise NotProductOfCandidateLines(
                f"residual of degree {d} is not a product of candidate lines",
                residual_degree=d,
            )
    return tuple(sorted(factors)), residual.coeffs[0]


def _private(zeros):
    """The OR of the zero masks ``zeros``, and each mask's bits outside the OR of the others."""
    # after[f] is the OR of zeros[f], zeros[f + 1], ...
    after = [0] * (len(zeros) + 1)
    for f in range(len(zeros) - 1, -1, -1):
        after[f] = after[f + 1] | zeros[f]
    private = []
    before = 0
    for f, zero in enumerate(zeros):
        private.append(zero & ~(before | after[f + 1]))
        before |= zero
    return after[0], private


def certificate_fault_private(degree, count, lines, masks, covers):
    """The certificate rule's first fault in a table, as (message, node), or (None, None).

    ``count`` is the number of nodes, ``masks[f]`` the zero mask of
    ``lines[f]`` and ``covers[k]`` node k's positions in ``lines``.
    """
    size = (degree + 1) * (degree + 2) // 2
    if count != size or len(covers) != size:
        return (f"count: {len(covers)} entries for {count} nodes; degree {degree} needs "
                f"{size} of each"), None
    for k, cover in enumerate(covers):
        if len(cover) != degree:
            return f"node {k}: line count: {len(cover)} lines, not {degree}", k
        union, private = _private([masks[f] for f in cover])
        wrong = union ^ ((1 << size) - 1) ^ (1 << k)
        if wrong:
            j = (wrong & -wrong).bit_length() - 1
            where = f"vanishes at node {k}" if j == k else f"does not vanish at node {j}"
            return f"node {k}: zero mask: the product of its lines {where}", k
        for f, bits in zip(cover, private):
            if bits.bit_count() < 2:
                return (f"node {k}: witnesses: factor {lines[f]} has {bits.bit_count()}, "
                        "not at least two"), k
    return None, None


@dataclass(frozen=True)
class AlgebraicCertificate:
    """The algebraic certifier's answer: one ``NodeCertificate`` per node, in node order."""

    nodeset: NodeSet
    entries: tuple


def certify_gc_algebraic(xs):
    """GC certificate entries by rank, fundamental solve and exact line division.

    Same contract as ``gcnlab.certify_gc``: NotPoised for a non-poised set,
    NotGC with the first node whose fundamental polynomial does not split
    into ``degree`` node-pair lines.
    """
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    n = xs.degree
    funds = all_fundamentals(xs)
    incidence = line_incidence_pairs(xs)
    sorted_cands = [(l, frozenset(ids)) for l, ids in sorted(incidence.items())]
    entries = []
    for k, fund in enumerate(funds):
        cands_k = [(l, ids) for l, ids in sorted_cands if k not in ids]
        zeros = set(range(len(xs))) - {k}
        try:
            factors, const = _factor_zero_cover(fund.poly, cands_k, zeros)
        except NotProductOfCandidateLines as exc:
            raise NotGC(
                f"fundamental polynomial of node {k} is not a product of node-pair lines",
                node_index=k,
            ) from exc
        if len(factors) != n:
            raise NotGC(
                f"fundamental polynomial of node {k} splits into {len(factors)} lines, not {n}",
                node_index=k,
            )
        witnesses = {}
        for line in sorted(set(factors)):
            others = list(factors)
            others.remove(line)
            found = []
            for j in incidence[line]:
                node = xs.nodes[j]
                if const * prod((o.at(node) for o in others), start=Fraction(1)) != 0:
                    found.append(j)
            if len(found) < 2:
                raise GCNLabError(
                    f"internal: factor {line} of node {k} has {len(found)} nonvanishing-cofactor "
                    "witnesses; a used line of a poised set must have at least two"
                )
            witnesses[line] = tuple(found)
        for j, node in enumerate(xs.nodes):
            value = const * prod((l.at(node) for l in factors), start=Fraction(1))
            if value != (1 if j == k else 0):
                raise GCNLabError(
                    f"internal: certified product for node {k} evaluates to {value} at node {j}"
                )
        entries.append(NodeCertificate(k, const, factors, witnesses))
    return AlgebraicCertificate(xs, tuple(entries))


def enumerate_mdseqs_dfs(xs, lines):
    """Count vectors of every greedy-consistent ordering of ``lines`` over ``xs``, one at a time.

    An explicit stack holds ``(unused lines, uncovered nodes, counts)`` and
    branches on every line of maximal gain; nothing is merged, so the walk
    visits every greedy ordering (about e * n! states on a natural
    lattice).  Incidence is the Fraction test ``a*x + b*y + c == 0``.
    """
    used = sorted(set(lines))
    nodes = xs.nodes
    incidence = {
        l: frozenset(j for j, p in enumerate(nodes) if l.a * p.x + l.b * p.y + l.c == 0)
        for l in used
    }
    results = set()
    stack = [(frozenset(used), frozenset(range(len(nodes))), ())]
    while stack:
        pool, remaining, counts = stack.pop()
        if not pool:
            results.add(MDSequence(counts))
            continue
        best = max(len(incidence[l] & remaining) for l in pool)
        for l in pool:
            covered = incidence[l] & remaining
            if len(covered) == best:
                stack.append((pool - {l}, remaining - covered, counts + (best,)))
    return results


def greedy_order_fraction(xs, used, fixed_first=None):
    """The greedy order of ``used`` over ``xs`` by Fraction incidence.

    Each step places a line covering the most uncovered nodes (the Fraction
    test ``is_incident``), and among lines of equal gain the least ``Line``;
    ``fixed_first``, when given, is placed first whatever its gain.  Returns
    ``(lines, counts, primary)``: the order, the newly covered nodes per
    step, and node index -> the step that first covered it.
    """
    on = {l: {j for j, p in enumerate(xs.nodes) if is_incident(p, l)} for l in used}
    pool = set(on)
    remaining = set(range(len(xs)))
    lines, counts, primary = [], [], {}
    while pool:
        if fixed_first is not None and not lines:
            line = fixed_first
        else:
            best = max(len(on[l] & remaining) for l in pool)
            line = min(l for l in pool if len(on[l] & remaining) == best)
        new = on[line] & remaining
        primary.update((j, len(lines)) for j in new)
        lines.append(line)
        counts.append(len(new))
        remaining -= new
        pool.remove(line)
    return tuple(lines), tuple(counts), primary


def verify_swap_property_fraction(seq, i):
    """The swap law at equal-count positions ``i``, ``i + 1``, in Fraction arithmetic.

    The swapped order must still be greedy (gains from the Fraction test
    ``Line.at(p) == 0``; a fixed first line may have any gain), and when
    ``intersect`` puts the two lines' meet at a node, ``NodeSet.index``
    finds it and its primary position must come before ``i``.  The caller
    checks the position and the equal counts.
    """
    nodes = seq.nodeset.nodes
    on = {l: frozenset(j for j, p in enumerate(nodes) if l.at(p) == 0) for l in seq.used}
    swapped = list(seq.lines)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    remaining = set(range(len(nodes)))
    pool = set(seq.used)
    for s, line in enumerate(swapped):
        if line not in pool:
            return False
        gain = len(on[line] & remaining)
        exempt = seq.fixed_first is not None and s == 0
        if not exempt and gain < max(len(on[l] & remaining) for l in pool):
            return False
        remaining -= on[line]
        pool.remove(line)
    if pool:
        return False
    try:
        crossing = intersect(seq.lines[i], seq.lines[i + 1])
    except ParallelLines:
        return True
    idx = seq.nodeset.index(crossing)
    if idx is None:
        return True
    return idx in seq.primary and seq.primary[idx] < i


_TWO_64 = 2**64
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64_finalizer(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _TWO_64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _TWO_64
    return z ^ (z >> 31)


def reference_substream_seed(seed, index):
    """The finalizer of ``seed + (index + 1) * gamma`` modulo 2**64."""
    return _splitmix64_finalizer((seed + (index + 1) * _GOLDEN_GAMMA) % _TWO_64)


class ReferenceSplitMix64:
    """The splitmix64 stream, from its formula: one output per step of the state."""

    def __init__(self, seed):
        self.state = seed % _TWO_64

    def next_u64(self):
        self.state = (self.state + _GOLDEN_GAMMA) % _TWO_64
        return _splitmix64_finalizer(self.state)

    def randint(self, lo, hi):
        # accept an output below the largest multiple of the span that fits in 64 bits
        span = hi - lo + 1
        accepted = _TWO_64 // span * span
        if accepted == 0:  # more than 2**64 integers: no output would be accepted
            raise ValueError(f"range [{lo}, {hi}] holds more than 2**64 integers")
        while True:
            r = self.next_u64()
            if r < accepted:
                return lo + r % span

    def rational(self, bound):
        numerator = self.randint(-bound, bound)
        return Fraction(numerator, self.randint(1, bound))

    def choice(self, items):
        items = list(items)
        return items[self.randint(0, len(items) - 1)]

    def line(self, bound):
        # a, b and c in [-bound, bound], drawn again while a = b = 0
        while True:
            a, b, c = (self.randint(-bound, bound) for _ in range(3))
            if (a, b) != (0, 0):
                return a, b, c


def _general_position_lines_fraction(rng, count, bound):
    lines = []
    attempts = 0
    while len(lines) < count:
        attempts += 1
        if attempts > RETRY_LIMIT:
            raise RetryLimitExceeded(
                f"no general-position configuration of {count} lines within "
                f"{RETRY_LIMIT} draws at coordinate bound {bound}"
            )
        candidate = Line(*rng.line(bound))
        if candidate in lines:
            continue
        if general_position(lines + [candidate]):
            lines.append(candidate)
    return lines


def chung_yao_fraction(degree, seed, bound):
    """Sorted meets of ``degree + 2`` general-position lines, and the sorted lines."""
    rng = ReferenceSplitMix64(seed)
    lines = _general_position_lines_fraction(rng, degree + 2, bound)
    points = {intersect(lines[i], lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))}
    assert len(points) == dim_pi(degree)
    return NodeSet(degree, tuple(sorted(points))), sorted(lines)


def chung_yao_nodes_fraction(degree, seed, bound):
    return chung_yao_fraction(degree, seed, bound)[0]


def projective_image_fraction(degree, seed, bound):
    """An affine image, in Fraction arithmetic, of a seeded base lattice, and its sorted lines.

    The base's cover lines are its generating lines, or the principal
    lattice's grid lines x = a/n, y = b/n (a, b < n) and x + y = c/n
    (0 < c <= n); each maps to the image of its points.
    """
    rng = ReferenceSplitMix64(seed)
    if rng.choice(("chung_yao", "principal")) == "chung_yao":
        base, lines = chung_yao_fraction(degree, rng.next_u64(), bound)
    else:
        n = degree
        grid = ((i, j) for i in range(n + 1) for j in range(n + 1 - i))
        base = NodeSet(n, tuple(Point(Fraction(i, n), Fraction(j, n)) for i, j in grid))
        lines = (
            [Line.from_rationals(1, 0, Fraction(-a, n)) for a in range(n)]
            + [Line.from_rationals(0, 1, Fraction(-b, n)) for b in range(n)]
            + [Line.from_rationals(1, 1, Fraction(-c, n)) for c in range(1, n + 1)]
        )
    for _ in range(RETRY_LIMIT):
        m00, m01, m10, m11 = (rng.rational(bound) for _ in range(4))
        t0, t1 = rng.rational(bound), rng.rational(bound)
        det = m00 * m11 - m01 * m10
        if det != 0:
            mapped = tuple(
                Point(m00 * p.x + m01 * p.y + t0, m10 * p.x + m11 * p.y + t1) for p in base
            )
            # a*x + b*y + c = 0 at x = M^-1 (x' - t): (u, v) = (a, b) M^-1
            image = []
            for line in lines:
                u = (line.a * m11 - line.b * m10) / det
                v = (line.b * m00 - line.a * m01) / det
                image.append(Line.from_rationals(u, v, line.c - u * t0 - v * t1))
            return NodeSet(degree, mapped), sorted(image)
    raise RetryLimitExceeded(f"no invertible affine map within {RETRY_LIMIT} draws")


def projective_image_nodes_fraction(degree, seed, bound):
    return projective_image_fraction(degree, seed, bound)[0]


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational_fraction(text):
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise BadRational(f"not an exact rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise BadRational(f"zero denominator in {text!r}") from None


def _expect(condition, message):
    if not condition:
        raise ParseError(message)


def nodeset_from_dict_fraction(doc):
    """A node-set document as a NodeSet built from Fraction Points."""
    _expect(isinstance(doc, dict), "node set document must be an object")
    degree = doc.get("degree")
    _expect(isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0,
            "field 'degree' must be a nonnegative integer")
    raw_nodes = doc.get("nodes")
    _expect(isinstance(raw_nodes, list), "field 'nodes' must be a list")
    points = []
    for row, entry in enumerate(raw_nodes):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"node row {row} must be a [x, y] pair")
        points.append(Point(_parse_rational_fraction(entry[0]), _parse_rational_fraction(entry[1])))
    labels = doc.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                "field 'labels' must be a list of strings")
        labels = tuple(labels)
    return NodeSet(degree=degree, nodes=tuple(points), labels=labels)


def _line_key_lines(line):
    return f"{line.a},{line.b},{line.c}"


def save_certificate_lines(cert):
    """A certificate document written from ``cert.entries``: Line objects and Fraction constants."""
    entries = []
    for e in cert.entries:
        entries.append(
            {
                "node": e.node_index,
                "constant": str(e.constant),
                "lines": [list(l.coefficients) for l in e.lines],
                "witnesses": {_line_key_lines(l): list(w) for l, w in sorted(e.witnesses.items())},
            }
        )
    doc = nodeset_to_dict(cert.nodeset)
    doc["entries"] = entries
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _line_from_triple(triple, context):
    _expect(
        isinstance(triple, list) and len(triple) == 3
        and all(isinstance(v, int) and not isinstance(v, bool) for v in triple),
        f"{context}: a line must be an [a, b, c] integer triple",
    )
    try:
        line = Line(triple[0], triple[1], triple[2])
    except ValueError as exc:
        raise ParseError(f"{context}: {triple} is not a line: {exc}") from None
    _expect(list(line.coefficients) == triple,
            f"{context}: {triple} is not canonical; {line} is {list(line.coefficients)}")
    return line


def _invalid_lines(k, reason, detail):
    return InvalidCertificate(f"node {k}: {reason}: {detail}", node_index=k)


def load_certificate_lines(text):
    """A certificate document read into Line objects and Fraction constants, then checked.

    The entries become ``NodeCertificate`` values, their lines a table for
    the public ``GCCertificate`` constructor, and each entry must equal the
    table's own entry, compared as Fractions, Line tuples and Line-keyed
    dictionaries.
    """
    doc = _loads(text, "certificate")
    xs = nodeset_from_dict(doc)
    raw_entries = doc.get("entries")
    _expect(isinstance(raw_entries, list), "field 'entries' must be a list")
    entries = []
    for e in raw_entries:
        _expect(isinstance(e, dict), "certificate entries must be objects")
        node = e.get("node")
        _expect(isinstance(node, int) and not isinstance(node, bool),
                "entry field 'node' must be an integer")
        raw_lines = e.get("lines")
        _expect(isinstance(raw_lines, list), "entry field 'lines' must be a list")
        lines = tuple(_line_from_triple(t, f"entry {node}") for t in raw_lines)
        witnesses = {}
        raw_witnesses = e.get("witnesses")
        _expect(isinstance(raw_witnesses, dict), "entry field 'witnesses' must be an object")
        for key, ids in raw_witnesses.items():
            parts = key.split(",")
            _expect(len(parts) == 3, f"witness key {key!r} is not 'a,b,c'")
            try:
                line = Line(int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError as exc:
                too_long = _too_long("witness key", parts)
                raise ParseError(too_long or f"witness key {key!r} is not a line: {exc}") from None
            _expect(key == _line_key_lines(line),
                    f"witness key {key!r} is not canonical; {line} is {_line_key_lines(line)!r}")
            _expect(isinstance(ids, list)
                    and all(isinstance(j, int) and not isinstance(j, bool) for j in ids),
                    f"witnesses of {key!r} must be a list of node indices")
            witnesses[line] = tuple(ids)
        entries.append(NodeCertificate(node, parse_rational(e.get("constant")), lines, witnesses))
    if len(entries) == len(xs):
        for k, entry in enumerate(entries):
            if entry.node_index != k:
                raise _invalid_lines(k, "order", f"entry {k} is for node {entry.node_index}")
    position = {}
    covers = [[position.setdefault(line, len(position)) for line in e.lines] for e in entries]
    cert = GCCertificate(xs, list(position), covers)
    for k, (entry, derived) in enumerate(zip(entries, cert.entries)):
        for reason, given, want in (
            ("constant", entry.constant, derived.constant),
            ("line order", entry.lines, derived.lines),
            ("witnesses", entry.witnesses, derived.witnesses),
        ):
            if given != want:
                raise _invalid_lines(k, reason, f"{given}, not {want}")
    return cert


_PLOT_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
)


def _fmt_fraction(v):
    return f"{float(v):.4f}"


def _clip_segment_fraction(line, x0, x1, y0, y1):
    borders = (
        (Line.from_rationals(1, 0, -x0), Point(x0, y0), Point(x0, y1)),
        (Line.from_rationals(1, 0, -x1), Point(x1, y0), Point(x1, y1)),
        (Line.from_rationals(0, 1, -y0), Point(x0, y0), Point(x1, y0)),
        (Line.from_rationals(0, 1, -y1), Point(x0, y1), Point(x1, y1)),
    )
    hits = set()
    for border, start, end in borders:
        try:
            p = intersect(line, border)
        except IdenticalLines:
            hits.update((start, end))
            continue
        except ParallelLines:
            continue
        if x0 <= p.x <= x1 and y0 <= p.y <= y1:
            hits.add(p)
    if len(hits) < 2:
        return None
    ordered = sorted(hits)
    return ordered[0], ordered[-1]


def plot_svg_fraction(xs, maximal=(), used=(), sequence=None):
    """The SVG of ``gcnlab.plot_svg``, computed over Fractions from the set's Points."""
    if xs.nodes:
        min_x, max_x = min(p.x for p in xs.nodes), max(p.x for p in xs.nodes)
        min_y, max_y = min(p.y for p in xs.nodes), max(p.y for p in xs.nodes)
    else:
        min_x = max_x = min_y = max_y = Fraction(0)
    pad_x = (max_x - min_x) / 10 if max_x > min_x else Fraction(1)
    pad_y = (max_y - min_y) / 10 if max_y > min_y else Fraction(1)
    x0, x1, y0, y1 = min_x - pad_x, max_x + pad_x, min_y - pad_y, max_y + pad_y
    scale = Fraction(600) / max(x1 - x0, y1 - y0)
    width = float((x1 - x0) * scale)
    height = float((y1 - y0) * scale)

    def to_px(p):
        return (float((p.x - x0) * scale), float((y1 - p.y) * scale))

    fmt = _fmt_fraction
    radius = max(3.0, 0.008 * min(width, height))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect x="0" y="0" width="{fmt(width)}" height="{fmt(height)}" fill="#ffffff"/>',
    ]

    def emit_line(line, style):
        segment = _clip_segment_fraction(line, x0, x1, y0, y1)
        if segment is None:
            return
        (ax, ay), (bx, by) = to_px(segment[0]), to_px(segment[1])
        parts.append(f'<line x1="{fmt(ax)}" y1="{fmt(ay)}" x2="{fmt(bx)}" y2="{fmt(by)}" {style}/>')

    for line in sorted(set(maximal)):
        emit_line(line, 'stroke="#d62728" stroke-width="2"')
    for line in sorted(set(used)):
        emit_line(line, 'stroke="#1f77b4" stroke-width="1.5" stroke-dasharray="6 4"')
    if sequence is not None:
        for pos, line in enumerate(sequence.lines):
            emit_line(line, f'stroke="{_PLOT_PALETTE[pos % 8]}" stroke-width="1.5"')
    for j, node in enumerate(xs.nodes):
        px, py = to_px(node)
        fill, extra, r = "#000000", "", radius
        if sequence is not None:
            if j == sequence.node_index:
                fill, extra, r = "#ffffff", ' stroke="#000000" stroke-width="2"', radius * 1.6
            elif j in sequence.primary:
                fill = _PLOT_PALETTE[sequence.primary[j] % 8]
        parts.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="{fmt(r)}" fill="{fill}"{extra}/>')
        if xs.labels is not None:
            label = xs.labels[j].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            parts.append(
                f'<text x="{fmt(px + radius + 2)}" y="{fmt(py - radius - 2)}" '
                f'font-size="11" font-family="monospace">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
