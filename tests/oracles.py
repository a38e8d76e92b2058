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
node-pair lines, then rechecks the product by Fraction evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from gcnlab import (
    GCCertificate,
    GCNLabError,
    NodeCertificate,
    NotDivisible,
    NotGC,
    NotPoised,
    NotProductOfCandidateLines,
    all_fundamentals,
    divide_by_line,
    is_poised,
    line_through,
)


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


def solvable_naive(rows, rhs):
    """Consistency of A x = b via ranks computed by :func:`rank_naive`."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    return rank_naive(aug) == rank_naive(rows)


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


def certify_gc_algebraic(xs):
    """GC certificate by rank, fundamental solve and exact line division.

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
    return GCCertificate(xs, tuple(entries))
