"""Exact rational plane geometry: points, canonical lines, incidence.

Coordinates are arbitrary-precision rationals, so every predicate here is
decided exactly; there is no epsilon anywhere.  A set keeps them as
integers over one common denominator, and a point's coordinates are
``fractions.Fraction``s.  :mod:`fractions` is imported when a Fraction is
first made (by :func:`to_scalar`, ``NodeSet.nodes``, the duplicate-node
message or :func:`intersect`, through ``_fraction``), and ``Scalar`` and
``RationalLike`` resolve on first access (PEP 562), so a caller that stays
on a set's integers, as most CLI commands do, never loads it, nor the
:mod:`decimal` and :mod:`numbers` it pulls in.

A line is the zero set of ``a*x + b*y + c`` and is stored as an integer
triple normalized so that ``gcd(|a|, |b|, |c|) = 1`` and the first nonzero
of ``(a, b)`` is positive.  Line equality is therefore plain equality of
triples, which makes deduplication of lines trivial.  ``_canonical`` is
that normalization on its own, and the package's only one: a
:class:`Line`, a key of a set's incidence index, a certificate's line
and a generator's line direction are all named by it.  Certificates hold
their lines as such integer triples and build :class:`Line` objects from
them when first read.  Parallel lines never intersect: there are no
projective points at infinity, callers get an explicit
:class:`~gcnlab.errors.ParallelLines` signal instead.

A :class:`NodeSet` is a degree-tagged tuple of distinct points, the input of
every question the package answers, and it is its own incidence index:
``xs.scale`` is the common denominator D of the coordinates and
``xs.coords`` the integer nodes ``(X, Y) = (D*x, D*y)``, so node j lies on
``a*x + b*y + c = 0`` iff ``a*X_j + b*Y_j + c*D`` is 0.  Both ways to build
a set end in one setup, which checks the integer nodes for repeats and
the labels for their count, and stores the index: the constructor, from
points, and ``NodeSet._scaled``, from the integer nodes a generator or the
node-file loader built.  Certification, maximal lines,
sequences, the generators and the Vandermonde rows all read these
integers, and ``len`` counts them.  The lines through two nodes
(``xs.keys``, each keyed by ``_canonical`` of its equation in the integer
coordinates, in one plain pass over the node pairs) and the maximal lines
(``xs.maximal``) are built when first read.  Every set, however it was
built, is held as its index alone, and its points (``xs.nodes``) are
built from it when first read, by equality, hashing, pickling or the
repr.

Every value type of the package derives from :class:`Value`, defined
here.  A subclass names its fields once, in constructor order:
``__slots__ = _fields = (...)``, or ``_fields`` alone on ``NodeSet`` and
``GCCertificate``, which keep a ``__dict__`` for their cached properties
(and a node set for its index, which is not a field).
``Value`` generates the constructor when the class is created: it takes
the fields by name and in that order, with the defaults of the class's
``_defaults`` mapping.  A class that validates or normalizes its fields
writes its own (``Point``, ``Line``, ``NodeSet``, ``Poly``,
``GeneratorSpec`` and ``GCCertificate``).  ``Value`` supplies the rest:
assigning to or deleting a field raises AttributeError, values are equal
only within one class and field by field, the hash is that of the
fields, pickling rebuilds a value from its fields, and the repr reads
``Name(field=value, ...)``.  ``Point`` and ``Line`` alone sort, by their
fields and against their own class only: ``_Ordered`` writes ``__lt__``
and :func:`functools.total_ordering` derives the rest.  They also print
shorter; ``Poly`` compares mathematically and is unhashable.  The package
does not use :mod:`dataclasses`: its import (which pulls in ``inspect``
and ``ast``) and the comparison, hash and repr methods it would generate
for each class would add start-up time to every CLI command.

All operations are pure, so everything in this module is safe to share
between threads.
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from itertools import chain
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .errors import (
    DuplicateNode,
    IdenticalLines,
    LengthMismatch,
    ParallelLines,
    TooManyCollinear,
)

if TYPE_CHECKING:
    from fractions import Fraction

#: :class:`fractions.Fraction`, once :func:`_fraction` has imported it.
_Fraction = None


def _fraction() -> type[Fraction]:
    """:class:`fractions.Fraction`, imported by the first call.

    An import statement costs about 2 us each time it runs, even once the
    module is loaded, so code that makes many Fractions reads
    ``_Fraction or _fraction()`` instead.
    """
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction


def __getattr__(name):
    """``Scalar`` and ``RationalLike``, looked up on access (PEP 562).

    ``Scalar`` is :class:`fractions.Fraction`, the coefficient field of
    every polynomial and coordinate in this package.  ``RationalLike`` is
    what is accepted wherever a Scalar is expected: int, str or Fraction.
    Floats are deliberately excluded: they would smuggle binary rounding
    into an exact pipeline.
    """
    if name in ("Scalar", "RationalLike"):
        Fraction = _fraction()
        return Fraction if name == "Scalar" else Union[int, str, Fraction]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def to_scalar(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or exact string like ``"2/3"`` to a Fraction.

    A Fraction is immutable, so one comes back as the same object.  Raises
    TypeError for floats; use an explicit string or Fraction if an exact
    value is really intended.
    """
    Fraction = _Fraction or _fraction()
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass int, Fraction or 'p/q' string")
    return Fraction(value)


def _clear(values: Sequence[Union[int, Fraction]]) -> tuple[int, list[int]]:
    """The lcm d of the denominators of ints or Fractions, and each value times d, as ints."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


class Value:
    """An immutable value whose fields are named in ``_fields``, in constructor order.

    A subclass that declares ``_fields`` and no ``__init__`` gets one,
    generated when the class is created: it takes the fields by name, in
    order, with the defaults of the ``_defaults`` mapping, and stores each.
    A subclass that validates writes its own and stores each field with
    ``object.__setattr__``.  After that, assigning to or deleting any
    attribute raises AttributeError.  Two values are equal only when they
    are of one class and their fields are equal, and the hash is that of
    the field tuple.  A value pickles and copies as its class applied to
    its fields, and its repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        # Compiled source, not an argument binder: it takes and refuses
        # arguments with the signature and messages of a hand-written
        # constructor.
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            params = (f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields)
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
            namespace = {"__name__": cls.__module__, "_set": object.__setattr__,
                         "_defaults": cls._defaults}
            exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


@total_ordering
class _Ordered(Value):
    """A value that sorts by its field tuple, against values of its own class only."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented


class Point(_Ordered):
    """A point of the rational plane; equality is componentwise and exact.

    Points sort lexicographically by ``(x, y)``.
    """

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: RationalLike, y: RationalLike):
        object.__setattr__(self, "x", to_scalar(x))
        object.__setattr__(self, "y", to_scalar(y))

    def _values(self) -> tuple:  # the literal tuple: hashing points is on the hot path
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


#: A line ``a*x + b*y + c = 0`` as its canonical integer triple ``(a, b, c)``.
Triple = tuple[int, int, int]


def _canonical(a: int, b: int, c: int) -> Triple:
    """The canonical triple of ``a*x + b*y + c = 0``: ``Line(a, b, c)._values()``.

    The integers are divided by their gcd, signed so the first nonzero of
    ``(a, b)`` is positive.  Raises ValueError when a = b = 0.
    """
    if a == 0 and b == 0:
        raise ValueError("(a, b) = (0, 0) does not define a line")
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return a // g, b // g, c // g


class Line(_Ordered):
    """The line ``a*x + b*y + c = 0`` with canonical integer coefficients.

    The constructor canonicalizes with ``_canonical``: coefficients are
    divided by their gcd and the sign is flipped so the first nonzero of
    ``(a, b)`` is positive.  Canonicalization is idempotent, so
    ``Line(*line.coefficients)`` reproduces ``line`` exactly.  Lines sort
    lexicographically by the canonical triple, which is the tie-breaking
    order used throughout the package.
    """

    __slots__ = _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
            raise TypeError("line coefficients must be int; see Line.from_rationals")
        a, b, c = _canonical(a, b, c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def _values(self) -> tuple:  # the literal tuple: hashing lines is on the hot path
        return (self.a, self.b, self.c)

    @classmethod
    def from_rationals(cls, a: RationalLike, b: RationalLike, c: RationalLike) -> "Line":
        """Build a line from rational coefficients by clearing denominators."""
        _, (ia, ib, ic) = _clear((to_scalar(a), to_scalar(b), to_scalar(c)))
        return cls(ia, ib, ic)

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def at(self, p: Point) -> Fraction:
        """Exact value of ``a*x + b*y + c`` at ``p``."""
        return self.a * p.x + self.b * p.y + self.c

    def __repr__(self) -> str:
        return f"Line({self.a}, {self.b}, {self.c})"


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


Key = tuple[int, int, int]


class NodeSet(Value):
    """A finite set of distinct nodes tagged with an interpolation degree, and its incidence index.

    Node order is significant only for indexing (certificates, CLI output);
    every predicate in this package is order-invariant.

    A set holds ``degree``, ``scale``, ``coords`` and ``labels``, however
    it was built; ``nodes``, the points, are built from the index when
    first read.  ``scale`` is the lcm D of all coordinate denominators and
    ``coords`` the integer nodes ``(D*x, D*y)``.  ``keys``, built on first
    use, maps each line through two nodes to its node bitmask: bit j is
    set iff node j lies on the line.  A key is ``_canonical`` of the line's
    equation ``A*X + B*Y + C = 0`` in the integer coordinates.  Lines are
    listed in the order their first node pair appears in the pair
    enumeration ``(0, 1), (0, 2), ..., (1, 2), ...``.  :meth:`line` turns a key into its
    canonical :class:`Line`, and ``maximal``, built on first use, holds
    the maximal lines.  :meth:`zero_mask` evaluates any line at every node
    instead, without the line map.
    """

    _fields = ("degree", "nodes", "labels")

    def __init__(
        self, degree: int, nodes: Sequence[Point], labels: Sequence[str] | None = None
    ):
        # D is the lcm of reduced denominators, so D and the integer nodes have gcd 1
        d, flat = _clear([c for p in nodes for c in (p.x, p.y)])
        self._store(degree, d, tuple(zip(flat[::2], flat[1::2])), labels)

    @classmethod
    def _scaled(
        cls,
        degree: int,
        scale: int,
        coords: Sequence[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "NodeSet":
        """The set of nodes ``(X/scale, Y/scale)``, held as its index of integer ``coords``.

        ``scale`` and ``coords`` are first divided by their gcd, so the
        index is the one the constructor builds from the nodes, and the
        labels are checked as the constructor checks them.  The points are
        built from the index when first read.
        """
        g = gcd(scale, *chain.from_iterable(coords))
        coords = tuple((x // g, y // g) for x, y in coords) if g > 1 else tuple(coords)
        xs = object.__new__(cls)
        xs._store(degree, scale // g, coords, labels)
        return xs

    def _store(
        self,
        degree: int,
        scale: int,
        coords: tuple[tuple[int, int], ...],
        labels: Sequence[str] | None,
    ) -> None:
        """Store ``degree``, the index of the nodes ``coords / scale`` and one label per node.

        Raises DuplicateNode, naming the first repeat, unless the nodes are
        distinct, then LengthMismatch unless ``labels`` is None or has one
        label per node.
        """
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if len(set(coords)) != len(coords):
            seen: set[tuple[int, int]] = set()
            for x, y in coords:
                if (x, y) in seen:
                    Fraction = _fraction()
                    p = Point(Fraction(x, scale), Fraction(y, scale))
                    raise DuplicateNode(f"node {p} appears twice")
                seen.add((x, y))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(coords):
                raise LengthMismatch(f"{len(labels)} labels for {len(coords)} nodes")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def nodes(self) -> tuple[Point, ...]:
        """The points, built from the index when first read."""
        Fraction = _fraction()
        d = self.scale
        return tuple(Point(Fraction(x, d), Fraction(y, d)) for x, y in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.nodes)

    def index(self, p: Point) -> int | None:
        """Index of a point in the set, or None when absent."""
        try:
            return self.nodes.index(p)
        except ValueError:
            return None

    @cached_property
    def keys(self) -> dict[Key, int]:
        """Every line through two nodes, keyed by ``_canonical`` of its integer-coordinate equation.

        Each pair i < j of nodes ``(Xi, Yi)``, ``(Xj, Yj)`` gives the
        equation ``A*X + B*Y + C = 0`` with ``(A, B) = (Yj - Yi, Xi - Xj)``
        and ``C = -(A*Xi + B*Yi)``, and sets bits i and j of its key's mask.
        gcd(A, B) divides C, so the key's A and B are coprime.  Keys are in
        the order of their first pair.
        """
        coords = self.coords
        by_key: dict[Key, int] = {}
        for i, (xi, yi) in enumerate(coords):
            for j in range(i + 1, len(coords)):
                xj, yj = coords[j]
                a, b = yj - yi, xi - xj
                key = _canonical(a, b, -(a * xi + b * yi))
                by_key[key] = by_key.get(key, 0) | 1 << i | 1 << j
        return by_key

    def line(self, key: Key) -> Line:
        """The canonical line with integer-coordinate equation ``key``."""
        return Line(*self._triple(key))

    def _triple(self, key: Key) -> Triple:
        """The canonical triple of :meth:`line`, without building the Line."""
        a, b, c = key
        return _canonical(self.scale * a, self.scale * b, c)

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
        a, b, c = line._values()
        c *= self.scale
        return [a * x + b * y + c for x, y in self.coords]

    def zero_mask(self, line: Line) -> int:
        """The bitmask of the nodes where :meth:`values` is 0; any line works."""
        return self._mask(line._values())

    def _mask(self, triple: Triple) -> int:
        """:meth:`zero_mask` of the line ``a*x + b*y + c = 0``, given as ``(a, b, c)``."""
        a, b, c = triple
        c *= self.scale
        mask = 0
        for j, (x, y) in enumerate(self.coords):
            if not a * x + b * y + c:
                mask |= 1 << j
        return mask


def _meet(l1: Line, l2: Line) -> tuple[int, int, int]:
    """The meet of two lines as integers ``(X, Y, W)``, W > 0: the point ``(X/W, Y/W)``.

    Raises IdenticalLines when the canonical triples coincide and
    ParallelLines when ``W = a1*b2 - a2*b1`` is 0.  The triple is not
    reduced by its gcd.
    """
    if l1 == l2:
        raise IdenticalLines(f"{l1} given twice")
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines(f"{l1} and {l2} are parallel")
    x = l1.b * l2.c - l2.b * l1.c
    y = l2.a * l1.c - l1.a * l2.c
    return (x, y, det) if det > 0 else (-x, -y, -det)


def intersect(l1: Line, l2: Line) -> Point:
    """The unique point incident to two distinct, non-parallel lines.

    Raises IdenticalLines when the canonical triples coincide and
    ParallelLines when ``a1*b2 - a2*b1 = 0``.
    """
    x, y, w = _meet(l1, l2)
    Fraction = _Fraction or _fraction()
    return Point(Fraction(x, w), Fraction(y, w))


def is_incident(p: Point, l: Line) -> bool:
    """True iff ``p`` lies on ``l`` (exact test)."""
    return l.at(p) == 0
