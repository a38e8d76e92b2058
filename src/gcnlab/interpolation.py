"""Poisedness, fundamental polynomials and interpolation by exact rank.

A node set is a degree-tagged tuple of distinct points.  Everything here
reduces to exact linear algebra on the Vandermonde matrix whose row for a
node lists the monomial values in the global graded-lex order; poisedness,
independence and essential dependence are rank statements, fundamental
polynomials and interpolants come from exact solves.

All functions are pure.  Fundamental polynomials for all nodes of one set
are produced from a single shared elimination (see :func:`all_fundamentals`),
which is also safe to fan out across threads because every input is
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from . import linalg
from .errors import DuplicateNode, LengthMismatch, NotPoised
from .geometry import Point
from .polynomials import Poly, dim_pi, monomials


@dataclass(frozen=True)
class NodeSet:
    """A finite set of distinct nodes tagged with an interpolation degree.

    Node order is significant only for indexing (certificates, CLI output);
    every predicate in this package is order-invariant.
    """

    degree: int
    nodes: tuple[Point, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            seen: set[Point] = set()
            for p in self.nodes:
                if p in seen:
                    raise DuplicateNode(f"node {p} appears twice")
                seen.add(p)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(self.nodes):
                raise LengthMismatch(f"{len(labels)} labels for {len(self.nodes)} nodes")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.nodes)

    def index(self, p: Point) -> int | None:
        """Index of a point in the set, or None when absent."""
        try:
            return self.nodes.index(p)
        except ValueError:
            return None


@dataclass(frozen=True)
class FundamentalSolution:
    """The polynomial equal to 1 at one node and 0 at all the others.

    Produced by an exact solve, so the Kronecker property holds by
    construction; the test suite re-verifies it by direct evaluation
    rather than trusting the solver.
    """

    node_index: int
    poly: Poly


def _vandermonde_rows(nodes: Sequence[Point], degree: int) -> list[list[Fraction]]:
    rows = []
    for p in nodes:
        xp = [Fraction(1)] * (degree + 1)
        yp = [Fraction(1)] * (degree + 1)
        for k in range(1, degree + 1):
            xp[k] = xp[k - 1] * p.x
            yp[k] = yp[k - 1] * p.y
        rows.append([xp[i] * yp[j] for (i, j) in monomials(degree)])
    return rows


def vandermonde(xs: NodeSet) -> list[list[Fraction]]:
    """One row per node of monomial values at the set's degree."""
    return _vandermonde_rows(xs.nodes, xs.degree)


def _integer_vandermonde(xs: NodeSet) -> list[list[int]]:
    """The Vandermonde rows, each scaled to integers by ``d**degree``.

    With d the lcm of a node's two denominators, the monomial ``x^i y^j``
    times ``d**degree`` is ``X^i Y^j d^(degree-i-j)`` for the integers
    ``X = d*x`` and ``Y = d*y``; scaling a row leaves the rank alone.
    """
    n = xs.degree
    rows = []
    for p in xs.nodes:
        d = lcm(p.x.denominator, p.y.denominator)
        big_x, big_y = int(p.x * d), int(p.y * d)
        xp, yp, dp = [1] * (n + 1), [1] * (n + 1), [1] * (n + 1)
        for k in range(1, n + 1):
            xp[k], yp[k], dp[k] = xp[k - 1] * big_x, yp[k - 1] * big_y, dp[k - 1] * d
        rows.append([xp[i] * yp[j] * dp[n - i - j] for (i, j) in monomials(n)])
    return rows


def is_poised(xs: NodeSet) -> bool:
    """True iff the set admits unique interpolation at its degree.

    Equivalent to: the node count equals the space dimension and only the
    zero polynomial vanishes on all nodes (full Vandermonde rank).  Full
    rank modulo a prime proves it; only a deficiency there pays for the
    exact rank.
    """
    n_dim = dim_pi(xs.degree)
    if len(xs) != n_dim:
        return False
    if linalg.rank_mod_p(_integer_vandermonde(xs)) == n_dim:
        return True
    return linalg.rank(vandermonde(xs)) == n_dim


def is_independent(xs: NodeSet) -> bool:
    """True iff every node has a fundamental polynomial at the set's degree."""
    if len(xs) > dim_pi(xs.degree):
        return False
    return linalg.rank(vandermonde(xs)) == len(xs)


def is_essentially_dependent(xs: NodeSet, m: int) -> bool:
    """True iff no node has a degree-``m`` fundamental polynomial.

    Each node's system (vanish on the others, value 1 at the node) is
    tested for infeasibility by comparing augmented against plain rank;
    the per-node comparisons share a single elimination.
    """
    rows = _vandermonde_rows(xs.nodes, m)
    return not any(linalg.unit_consistency(rows))


def annihilator(xs: NodeSet) -> Poly | None:
    """A nonzero polynomial of the set's degree vanishing on every node.

    Returns None exactly when the nodes are independent.  For a non-poised
    set of full size this exhibits the kernel witness promised by the rank
    criterion.
    """
    rows = vandermonde(xs)
    if not rows:
        return None if dim_pi(xs.degree) == 0 else Poly.from_coeff_dict({(0, 0): 1}, xs.degree)
    vec = linalg.nullspace_vector(rows)
    if vec is None:
        return None
    return Poly(xs.degree, tuple(vec))


def all_fundamentals(xs: NodeSet) -> list[FundamentalSolution]:
    """Fundamental polynomials of every node, from one shared elimination."""
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    s = len(xs)
    rows = vandermonde(xs)
    rhs = [[Fraction(1) if i == k else Fraction(0) for i in range(s)] for k in range(s)]
    solutions = linalg.solve_square(rows, rhs)
    if solutions is None:  # unreachable after the poisedness check
        raise NotPoised("Vandermonde matrix is singular")
    return [FundamentalSolution(k, Poly(xs.degree, tuple(sol))) for k, sol in enumerate(solutions)]


def fundamental(xs: NodeSet, k: int) -> FundamentalSolution:
    """The unique fundamental polynomial of node ``k``; requires poisedness."""
    if not 0 <= k < len(xs):
        raise IndexError(f"node index {k} out of range")
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    rhs = [Fraction(1) if i == k else Fraction(0) for i in range(len(xs))]
    solutions = linalg.solve_square(vandermonde(xs), [rhs])
    if solutions is None:
        raise NotPoised("Vandermonde matrix is singular")
    return FundamentalSolution(k, Poly(xs.degree, tuple(solutions[0])))


def interpolate(xs: NodeSet, values: Sequence[Fraction]) -> Poly:
    """The unique polynomial of the set's degree matching the given values."""
    if len(values) != len(xs):
        raise LengthMismatch(f"{len(values)} values for {len(xs)} nodes")
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    rhs = [Fraction(v) for v in values]
    solutions = linalg.solve_square(vandermonde(xs), [rhs])
    if solutions is None:
        raise NotPoised("Vandermonde matrix is singular")
    return Poly(xs.degree, tuple(solutions[0]))
