"""Poisedness, fundamental polynomials and interpolation by exact rank.

A node set (:class:`~gcnlab.geometry.NodeSet`, re-exported here) is a
degree-tagged tuple of distinct points.  Everything here reduces to exact
linear algebra on the Vandermonde matrix whose row for a node lists the
monomial values in the global graded-lex order; poisedness, independence
and essential dependence are rank statements, fundamental polynomials and
interpolants come from exact solves.

Every exact question runs on one integer Vandermonde matrix, built by
:func:`_integer_vandermonde` from the integer nodes the set holds
(``xs.scale`` and ``xs.coords``), so no point is built or cleared again;
:func:`vandermonde` is its rational view.  Poisedness and independence
are ranks of those integers: full rank modulo a prime proves them, and
only a deficiency there pays for the exact rank.  Neither builds a
Fraction, and :mod:`fractions` is imported only when one is made.

All functions are pure.  Fundamental polynomials for all nodes of one set
are produced from a single shared elimination (see :func:`all_fundamentals`),
which is also safe to fan out across threads because every input is
immutable.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .errors import LengthMismatch, NotPoised
from .geometry import NodeSet, Value, _fraction, to_scalar
from .polynomials import Poly, _check_degree_bound, dim_pi, monomials

if TYPE_CHECKING:
    from fractions import Fraction

    from .geometry import RationalLike


class FundamentalSolution(Value):
    """The polynomial equal to 1 at one node and 0 at all the others.

    Produced by an exact solve, so the Kronecker property holds by
    construction; the test suite re-verifies it by direct evaluation
    rather than trusting the solver.
    """

    __slots__ = _fields = ("node_index", "poly")


def _integer_vandermonde(xs: NodeSet, n: int) -> list[list[int]]:
    """Degree-``n`` Vandermonde rows of the nodes of ``xs``, row i scaled to integers by ``d_i**n``.

    d_i is the lcm of node i's denominators: on the set's integer node
    ``(X_i, Y_i)`` over its scale D it is D / g with g = gcd(X_i, Y_i, D),
    and ``(X, Y) = (X_i/g, Y_i/g)`` is ``d_i*(x, y)``.  So ``x^a y^b *
    d_i**n`` is ``X^a Y^b d_i^(n-a-b)``, and the scale is the row's first
    entry.  It is also the lcm of the rational row's denominators (those of
    ``x^n`` and ``y^n`` give it), so these are the rows that clearing the
    rational ones gives.  A solve multiplies data b by the scale:
    ``d_i**n * den(b * d_i**n) = lcm(d_i**n, den b)`` prime by prime, so
    every augmented integer matrix, elimination step and solution is the
    one the rational rows give.
    """
    big_d = xs.scale
    rows = []
    for big_x, big_y in xs.coords:
        g = gcd(big_x, big_y, big_d)
        big_x, big_y, d = big_x // g, big_y // g, big_d // g
        xp, yp, dp = [1] * (n + 1), [1] * (n + 1), [1] * (n + 1)
        for k in range(1, n + 1):
            xp[k], yp[k], dp[k] = xp[k - 1] * big_x, yp[k - 1] * big_y, dp[k - 1] * d
        rows.append([xp[i] * yp[j] * dp[n - i - j] for (i, j) in monomials(n)])
    return rows


def vandermonde(xs: NodeSet) -> list[list[Fraction]]:
    """One row per node of monomial values at the set's degree."""
    Fraction = _fraction()
    return [[Fraction(v, row[0]) for v in row] for row in _integer_vandermonde(xs, xs.degree)]


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
    rows = _integer_vandermonde(xs, xs.degree)
    if linalg.rank_mod_p(rows) == n_dim:
        return True
    return linalg.rank(rows) == n_dim


def is_independent(xs: NodeSet) -> bool:
    """True iff every node has a fundamental polynomial at the set's degree.

    That is full row rank of the Vandermonde matrix, proved as in
    :func:`is_poised`: full rank modulo a prime proves it, and only a
    deficiency there pays for the exact rank.
    """
    if len(xs) > dim_pi(xs.degree):
        return False
    rows = _integer_vandermonde(xs, xs.degree)
    if linalg.rank_mod_p(rows) == len(xs):
        return True
    return linalg.rank(rows) == len(xs)


def is_essentially_dependent(xs: NodeSet, m: int) -> bool:
    """True iff no node has a degree-``m`` fundamental polynomial.

    Node k's system (vanish on the others, value 1 at node k) is
    infeasible exactly when some vector of the Vandermonde matrix's left
    kernel, a dependence among the nodes, is nonzero at k; every node is
    decided from one exact kernel basis.
    """
    return not any(linalg.unit_consistency(_integer_vandermonde(xs, m)))


def annihilator(xs: NodeSet) -> Poly | None:
    """A nonzero polynomial of the set's degree vanishing on every node.

    Returns None exactly when the Vandermonde matrix has full column rank,
    which for a set of ``dim_pi(degree)`` nodes is poisedness.  For a
    non-poised set of full size this exhibits the kernel witness promised
    by the rank criterion.
    """
    rows = _integer_vandermonde(xs, xs.degree)
    if not rows:
        return Poly.from_coeff_dict({(0, 0): 1}, xs.degree)
    vec = linalg.nullspace_vector(rows)
    if vec is None:
        return None
    return Poly(xs.degree, tuple(vec))


def _solve_poised(xs: NodeSet, rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve the Vandermonde system of a poised set for every right-hand side.

    Raises NotPoised, then ValueError above ``MAX_DEGREE`` (the cap of the
    ``Poly`` the solutions become), before any exact elimination; a value
    that is a float raises TypeError, as in :func:`~gcnlab.geometry.to_scalar`.
    """
    if not is_poised(xs):
        raise NotPoised(f"{len(xs)} nodes at degree {xs.degree} are not poised")
    _check_degree_bound(xs.degree)
    rows = _integer_vandermonde(xs, xs.degree)
    scaled = [[to_scalar(v) * row[0] for v, row in zip(column, rows)] for column in rhs]
    solutions = linalg.solve_square(rows, scaled)
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


def interpolate(xs: NodeSet, values: Sequence[RationalLike]) -> Poly:
    """The unique polynomial of the set's degree matching the given values.

    Each value is an int, a Fraction or an exact ``"p/q"`` string; a float
    raises TypeError.
    """
    if len(values) != len(xs):
        raise LengthMismatch(f"{len(values)} values for {len(xs)} nodes")
    (solution,) = _solve_poised(xs, [values])
    return Poly(xs.degree, tuple(solution))
