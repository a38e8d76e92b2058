"""Poisedness, fundamental polynomials and interpolation by exact rank.

A node set (:class:`~gcnlab.geometry.NodeSet`, re-exported here) is a
degree-tagged tuple of distinct points.  Everything here reduces to exact
linear algebra on the Vandermonde matrix whose row for a node lists the
monomial values in the global graded-lex order; poisedness, independence
and essential dependence are rank statements, fundamental polynomials and
interpolants come from exact solves.

All functions are pure.  Fundamental polynomials for all nodes of one set
are produced from a single shared elimination (see :func:`all_fundamentals`),
which is also safe to fan out across threads because every input is
immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .errors import LengthMismatch, NotPoised
from .geometry import NodeSet, Point, Value
from .polynomials import Poly, _check_degree_bound, dim_pi, monomials


class FundamentalSolution(Value):
    """The polynomial equal to 1 at one node and 0 at all the others.

    Produced by an exact solve, so the Kronecker property holds by
    construction; the test suite re-verifies it by direct evaluation
    rather than trusting the solver.
    """

    __slots__ = _fields = ("node_index", "poly")

    def __init__(self, node_index: int, poly: Poly):
        object.__setattr__(self, "node_index", node_index)
        object.__setattr__(self, "poly", poly)


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


def _solve_poised(xs: NodeSet, rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve the Vandermonde system of a poised set for every right-hand side.

    Raises NotPoised, then ValueError above ``MAX_DEGREE`` (the cap of the
    ``Poly`` the solutions become), before any exact elimination.
    """
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    _check_degree_bound(xs.degree)
    solutions = linalg.solve_square(vandermonde(xs), [[Fraction(v) for v in row] for row in rhs])
    if solutions is None:  # unreachable after the poisedness check
        raise NotPoised("Vandermonde matrix is singular")
    return solutions


def all_fundamentals(xs: NodeSet) -> list[FundamentalSolution]:
    """Fundamental polynomials of every node, from one shared elimination."""
    s = len(xs)
    solutions = _solve_poised(xs, [[int(i == k) for i in range(s)] for k in range(s)])
    return [FundamentalSolution(k, Poly(xs.degree, tuple(sol))) for k, sol in enumerate(solutions)]


def fundamental(xs: NodeSet, k: int) -> FundamentalSolution:
    """The unique fundamental polynomial of node ``k``; requires poisedness."""
    if not 0 <= k < len(xs):
        raise IndexError(f"node index {k} out of range")
    (solution,) = _solve_poised(xs, [[int(i == k) for i in range(len(xs))]])
    return FundamentalSolution(k, Poly(xs.degree, tuple(solution)))


def interpolate(xs: NodeSet, values: Sequence[Fraction]) -> Poly:
    """The unique polynomial of the set's degree matching the given values."""
    if len(values) != len(xs):
        raise LengthMismatch(f"{len(values)} values for {len(xs)} nodes")
    (solution,) = _solve_poised(xs, [values])
    return Poly(xs.degree, tuple(solution))
