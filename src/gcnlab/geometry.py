"""Exact rational plane geometry: points, canonical lines, incidence.

Coordinates are arbitrary-precision rationals (``fractions.Fraction``), so
every predicate here is decided exactly; there is no epsilon anywhere.

A line is the zero set of ``a*x + b*y + c`` and is stored as an integer
triple normalized so that ``gcd(|a|, |b|, |c|) = 1`` and the first nonzero
of ``(a, b, c)`` is positive.  Line equality is therefore plain equality of
triples, which makes deduplication of lines trivial.  Parallel lines never
intersect: there are no projective points at infinity, callers get an
explicit :class:`~gcnlab.errors.ParallelLines` signal instead.

All values are immutable after construction and all operations are pure,
so everything in this module is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import DuplicateLine, IdenticalLines, IdenticalPoints, ParallelLines

#: The coefficient field of every polynomial and coordinate in this package.
Scalar = Fraction

#: Inputs accepted wherever a Scalar is expected.  Floats are deliberately
#: excluded: they would smuggle binary rounding into an exact pipeline.
RationalLike = Union[int, str, Fraction]


def to_scalar(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or exact string like ``"2/3"`` to a Fraction.

    A Fraction is immutable, so one comes back as the same object.  Raises
    TypeError for floats; use an explicit string or Fraction if an exact
    value is really intended.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass int, Fraction or 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Point:
    """A point of the rational plane; equality is componentwise and exact."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_scalar(self.x))
        object.__setattr__(self, "y", to_scalar(self.y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True, order=True)
class Line:
    """The line ``a*x + b*y + c = 0`` with canonical integer coefficients.

    The constructor canonicalizes: coefficients are divided by their gcd
    and the sign is flipped so the first nonzero of ``(a, b, c)`` is
    positive.  Canonicalization is idempotent, so ``Line(*line.coefficients)``
    reproduces ``line`` exactly.  The dataclass ordering (lexicographic on
    the canonical triple) is the tie-breaking order used throughout the
    package.
    """

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
    def from_rationals(cls, a: RationalLike, b: RationalLike, c: RationalLike) -> "Line":
        """Build a line from rational coefficients by clearing denominators."""
        qa, qb, qc = to_scalar(a), to_scalar(b), to_scalar(c)
        m = lcm(qa.denominator, qb.denominator, qc.denominator)
        return cls(int(qa * m), int(qb * m), int(qc * m))

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def at(self, p: Point) -> Fraction:
        """Exact value of ``a*x + b*y + c`` at ``p``."""
        return self.a * p.x + self.b * p.y + self.c

    def __repr__(self) -> str:
        return f"Line({self.a}, {self.b}, {self.c})"


def line_through(p: Point, q: Point) -> Line:
    """The canonical line incident to both ``p`` and ``q``.

    Raises IdenticalPoints when ``p == q``.
    """
    if p == q:
        raise IdenticalPoints(f"no unique line through coincident points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = p.y * q.x - p.x * q.y
    return Line.from_rationals(a, b, c)


def intersect(l1: Line, l2: Line) -> Point:
    """The unique point incident to two distinct, non-parallel lines.

    Raises IdenticalLines when the canonical triples coincide and
    ParallelLines when ``a1*b2 - a2*b1 = 0``.
    """
    if l1 == l2:
        raise IdenticalLines(f"{l1} given twice")
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(f"{l1} and {l2} are parallel")
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return Point(x, y)


def is_incident(p: Point, l: Line) -> bool:
    """True iff ``p`` lies on ``l`` (exact test)."""
    return l.at(p) == 0


def general_position(lines: Sequence[Line]) -> bool:
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
