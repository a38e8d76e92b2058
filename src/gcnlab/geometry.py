"""Exact rational plane geometry: points, canonical lines, incidence.

Coordinates are arbitrary-precision rationals (``fractions.Fraction``), so
every predicate here is decided exactly; there is no epsilon anywhere.

A line is the zero set of ``a*x + b*y + c`` and is stored as an integer
triple normalized so that ``gcd(|a|, |b|, |c|) = 1`` and the first nonzero
of ``(a, b, c)`` is positive.  Line equality is therefore plain equality of
triples, which makes deduplication of lines trivial.  Parallel lines never
intersect: there are no projective points at infinity, callers get an
explicit :class:`~gcnlab.errors.ParallelLines` signal instead.

A :class:`NodeSet` is a degree-tagged tuple of distinct points, the input of
every question the package answers.  Its :class:`Incidence` index
(``NodeSet.incidence``, built on first use and kept) decides incidence on
integers: node j lies on ``a*x + b*y + c = 0`` iff ``a*X_j + b*Y_j + c*D``
is 0 for the nodes ``(X, Y) = (D*x, D*y)`` scaled by their common
denominator D.  Certification, maximal lines, sequences and the generators
all read this one index.

The value types here, like every value type of the package, are plain
classes: the constructor validates and stores each field once, and
assigning to or deleting a field raises AttributeError.  Equality holds
only between instances of one class and compares their fields, and the
hash is that of the same fields.  ``Point`` and ``Line`` use
``__slots__``; ``NodeSet`` and ``Incidence`` keep a ``__dict__`` for
their cached properties.  The package does not use :mod:`dataclasses`:
its import (which pulls in ``inspect`` and ``ast``) and the methods it
generates for each class would add start-up time to every CLI command.

All operations are pure, so everything in this module is safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Sequence, Union

from .errors import (
    DuplicateLine,
    DuplicateNode,
    IdenticalLines,
    IdenticalPoints,
    LengthMismatch,
    ParallelLines,
    TooManyCollinear,
)

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


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Point:
    """A point of the rational plane; equality is componentwise and exact.

    Points sort lexicographically by ``(x, y)``.
    """

    __slots__ = ("x", "y")
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, x: RationalLike, y: RationalLike):
        object.__setattr__(self, "x", to_scalar(x))
        object.__setattr__(self, "y", to_scalar(y))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) < (other.x, other.y)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) <= (other.x, other.y)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) > (other.x, other.y)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) >= (other.x, other.y)
        return NotImplemented

    def __reduce__(self):
        return Point, (self.x, self.y)

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


class Line:
    """The line ``a*x + b*y + c = 0`` with canonical integer coefficients.

    The constructor canonicalizes: coefficients are divided by their gcd
    and the sign is flipped so the first nonzero of ``(a, b, c)`` is
    positive.  Canonicalization is idempotent, so ``Line(*line.coefficients)``
    reproduces ``line`` exactly.  Lines sort lexicographically by the
    canonical triple, which is the tie-breaking order used throughout the
    package.
    """

    __slots__ = ("a", "b", "c")
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, a: int, b: int, c: int):
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
            raise TypeError("line coefficients must be int; see Line.from_rationals")
        if a == 0 and b == 0:
            raise ValueError("(a, b) = (0, 0) does not define a line")
        g = gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) == (other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) < (other.a, other.b, other.c)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) <= (other.a, other.b, other.c)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) > (other.a, other.b, other.c)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) >= (other.a, other.b, other.c)
        return NotImplemented

    def __reduce__(self):
        return Line, (self.a, self.b, self.c)

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


class NodeSet:
    """A finite set of distinct nodes tagged with an interpolation degree.

    Node order is significant only for indexing (certificates, CLI output);
    every predicate in this package is order-invariant.  Equality and hash
    read ``degree``, ``nodes`` and ``labels``.
    """

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(
        self, degree: int, nodes: Sequence[Point], labels: Sequence[str] | None = None
    ):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            seen: set[Point] = set()
            for p in nodes:
                if p in seen:
                    raise DuplicateNode(f"node {p} appears twice")
                seen.add(p)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(nodes):
                raise LengthMismatch(f"{len(labels)} labels for {len(nodes)} nodes")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "labels", labels)

    def _values(self) -> tuple:
        return (self.degree, self.nodes, self.labels)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"NodeSet(degree={self.degree!r}, nodes={self.nodes!r}, labels={self.labels!r})"

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

    @cached_property
    def incidence(self) -> "Incidence":
        """The set's integer incidence index, built on first use and kept."""
        return Incidence.of(self)


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


Key = tuple[int, int, int]


class Incidence:
    """A node set on integer coordinates, and every line through two of its nodes.

    ``degree`` is the node set's degree, ``scale`` the lcm D of all
    coordinate denominators and ``coords`` the integer nodes ``(D*x, D*y)``.
    ``keys``, built on first use, maps the primitive equation ``(A, B, C)``
    of each line, ``A*X + B*Y + C = 0`` in the integer coordinates with
    ``(A, B)`` coprime and its first nonzero positive, to the line's node
    bitmask: bit j is set iff node j lies on the line.  Lines are listed in
    the order their first node pair appears in the pair enumeration ``(0,
    1), (0, 2), ..., (1, 2), ...``.

    :meth:`line` turns a key into its canonical :class:`Line` and
    :meth:`mask_of` looks a ``Line`` up; ``masks`` is the whole map keyed
    by ``Line``, in the same order, and ``maximal`` the maximal lines, each
    built on first use.
    """

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, degree: int, scale: int, coords: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "coords", coords)

    def _values(self) -> tuple:
        return (self.degree, self.scale, self.coords)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"Incidence(degree={self.degree!r}, scale={self.scale!r}, coords={self.coords!r})"

    @classmethod
    def of(cls, xs: NodeSet) -> "Incidence":
        """The integer nodes of ``xs``; read ``xs.incidence`` to share them."""
        nodes = xs.nodes
        d = lcm(*(c.denominator for p in nodes for c in (p.x, p.y)))
        coords = tuple(
            (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
            for p in nodes
        )
        return cls(xs.degree, d, coords)

    @cached_property
    def keys(self) -> dict[Key, int]:
        """Every line through two nodes, from the node pairs in one pass."""
        coords = self.coords
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
        return by_key

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

    def values(self, line: Line) -> list[int]:
        """``a*X + b*Y + c*D`` at every node: D times the line's value there."""
        a, b, c = line.a, line.b, line.c * self.scale
        return [a * x + b * y + c for x, y in self.coords]


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
