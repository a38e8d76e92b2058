"""Dense bivariate polynomials over exact rationals, with division by a line.

A polynomial of total degree at most ``n`` is a flat tuple of
``(n+1)(n+2)/2`` Fraction coefficients in the graded-lexicographic monomial
order

    1, x, y, x^2, x*y, y^2, x^3, x^2*y, ...

i.e. ordered by total degree and, inside one degree block, by decreasing
exponent of x.  This order is fixed globally: Vandermonde columns and every
serialized coefficient list follow it, so artifacts are byte-comparable
across runs.

Divisibility by a line is decided by exact remainder (synthetic long
division along the line's leading variable), never by evaluating at sample
points, which rules out false positives entirely.

:mod:`fractions` is imported when the first coefficient is made, so
importing this module for :func:`dim_pi` or :func:`monomials` alone does
not load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .errors import NotDivisible, ZeroPolynomial
from .geometry import Line, Point, Value, _fraction, to_scalar

if TYPE_CHECKING:
    from fractions import Fraction

    from .geometry import RationalLike

#: Largest supported degree bound.  Dense triangular tables stay small up to
#: here (dim 91 at degree 12); raise it if a larger desk fits your problem.
MAX_DEGREE = 12


def _check_degree_bound(n: int) -> None:
    """Raise ValueError unless ``0 <= n <= MAX_DEGREE``."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree bound {n} outside [0, {MAX_DEGREE}]")


def dim_pi(n: int) -> int:
    """Dimension of the space of bivariate polynomials of total degree <= n."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return (n + 1) * (n + 2) // 2


@lru_cache(maxsize=None)
def monomials(n: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs ``(i, j)`` with ``i + j <= n`` in graded-lex order."""
    return tuple((d - k, k) for d in range(n + 1) for k in range(d + 1))


@lru_cache(maxsize=None)
def _monomial_index(n: int) -> dict[tuple[int, int], int]:
    return {ij: pos for pos, ij in enumerate(monomials(n))}


class Poly(Value):
    """A bivariate polynomial of total degree at most ``degree_bound``.

    Equality is mathematical: two instances compare equal iff they have the
    same nonzero coefficients, regardless of their degree bounds.
    """

    __slots__ = _fields = ("degree_bound", "coeffs")

    def __init__(self, degree_bound: int, coeffs: tuple[RationalLike, ...]):
        n = degree_bound
        _check_degree_bound(n)
        cs = tuple(to_scalar(c) for c in coeffs)
        if len(cs) != dim_pi(n):
            raise ValueError(f"need {dim_pi(n)} coefficients for degree {n}, got {len(cs)}")
        object.__setattr__(self, "degree_bound", n)
        object.__setattr__(self, "coeffs", cs)

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, (0,) * dim_pi(n))

    @classmethod
    def constant(cls, value: RationalLike, n: int = 0) -> "Poly":
        c = [0] * dim_pi(n)
        c[0] = to_scalar(value)
        return cls(n, tuple(c))

    @classmethod
    def from_coeff_dict(cls, entries: Mapping[tuple[int, int], RationalLike], n: int) -> "Poly":
        c = [0] * dim_pi(n)
        index = _monomial_index(n)
        for (i, j), v in entries.items():
            if i < 0 or j < 0 or i + j > n:
                raise ValueError(f"monomial x^{i} y^{j} exceeds degree bound {n}")
            c[index[(i, j)]] = to_scalar(v)
        return cls(n, tuple(c))

    # --- inspection ---------------------------------------------------------

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        """Nonzero coefficients keyed by exponent pair."""
        ms = monomials(self.degree_bound)
        return {ms[k]: c for k, c in enumerate(self.coeffs) if c != 0}

    def degree(self) -> int:
        """Effective total degree; -1 for the zero polynomial."""
        return max((i + j for (i, j) in self.as_dict()), default=-1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(self.degree_bound, other.degree_bound)
        out: dict[tuple[int, int], Fraction] = dict(self.as_dict())
        for ij, c in other.as_dict().items():
            out[ij] = out.get(ij, 0) + c
        return Poly.from_coeff_dict(out, n)

    def __neg__(self) -> "Poly":
        return Poly(self.degree_bound, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "Poly":
        f = to_scalar(factor)
        return Poly(self.degree_bound, tuple(f * c for c in self.coeffs))

    def at(self, pt: Point) -> Fraction:
        """Exact value at a point."""
        n = self.degree_bound
        Fraction = _fraction()
        xp = [Fraction(1)] * (n + 1)
        yp = [Fraction(1)] * (n + 1)
        for k in range(1, n + 1):
            xp[k] = xp[k - 1] * pt.x
            yp[k] = yp[k - 1] * pt.y
        total = Fraction(0)
        for (i, j), c in zip(monomials(n), self.coeffs):
            if c != 0:
                total += c * xp[i] * yp[j]
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"Poly(degree_bound={self.degree_bound}, {format_poly(self)!r})"


def evaluate(p: Poly, pt: Point) -> Fraction:
    """Exact value of ``p`` at ``pt``."""
    return p.at(pt)


def multiply_line(p: Poly, line: Line) -> Poly:
    """The product ``p * (a*x + b*y + c)``, with degree bound raised by one."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in p.as_dict().items():
        for ij, f in (((i + 1, j), line.a), ((i, j + 1), line.b), ((i, j), line.c)):
            if f:
                out[ij] = out.get(ij, 0) + f * c
    return Poly.from_coeff_dict(out, p.degree_bound + 1)


def divide_by_line(p: Poly, line: Line) -> Poly:
    """Exact quotient ``p / (a*x + b*y + c)``; the remainder must vanish.

    The divisor is linear in its leading variable (x when a != 0, else y),
    so synthetic long division along that variable yields the unique
    quotient and a remainder free of the leading variable.  Divisibility
    holds iff that remainder is identically zero; otherwise NotDivisible is
    raised.  On success ``multiply_line(result, line) == p`` coefficientwise.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot divide the zero polynomial by a line")
    n = p.degree_bound
    if n == 0:
        raise NotDivisible(f"nonzero constant has no factor {line}")
    table = dict(p.as_dict())
    quotient: dict[tuple[int, int], Fraction] = {}
    if line.a != 0:
        # Divide along x by a*x + (b*y + c).
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
        # Divide along y by b*y + c (here a == 0, so b != 0).
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
    return Poly.from_coeff_dict({ij: c for ij, c in quotient.items() if c != 0}, n - 1)


def format_poly(p: Poly) -> str:
    """Human-readable rendering like ``x^2 + 2*x*y - 1`` (graded-lex order)."""
    parts: list[str] = []
    for (i, j), c in sorted(p.as_dict().items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
        factors = []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        mono = "*".join(factors)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else f"{mag}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
