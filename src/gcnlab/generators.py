"""Seeded constructions of GC node sets, verified at generation time.

Three families are provided: intersection lattices of random lines in
general position, the triangular principal lattice, and random invertible
affine images of either base (poisedness, line factorizations and all
incidence structure are affine-invariant).  Nothing is emitted on trust:
every generated set is certified before it is returned, so a generator can
only hand out sets whose GC property has been established exactly.

Nodes are built on integers and become Fractions only at the end.  Two
random lines ``(a1, b1, c1)`` and ``(a2, b2, c2)`` meet at the homogeneous
point ``(b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1)``, taken with a
positive last entry w; over the lcm D of all w, a natural lattice is a
sorted tuple of integer nodes ``(D*x, D*y)``, which is the order of its
points because D > 0.  An affine image maps such integer nodes with
integer rows, one common denominator per output coordinate, so each
coordinate is one Fraction built once.

The principal lattice depends on its degree alone, so it is certified once
per degree per process; every later request for that degree gets the same
set and certificate objects, and an affine image of it reads its integer
nodes from the cached set's incidence index.

Generation is a pure function of its spec; fixed seeds give byte-identical
node sets on every platform (see :mod:`gcnlab.rng` for the PRNG contract).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .certification import GCCertificate, certify_gc
from .errors import RetryLimitExceeded
from .geometry import NodeSet, Point, Value, _clear
from .polynomials import dim_pi
from .rng import RETRY_LIMIT, SplitMix64

DEFAULT_KINDS = ("chung_yao", "principal", "projective_image")


class GeneratorSpec(Value):
    """Parameters of one seeded generation.

    ``coordinate_bound`` caps the magnitude of random integer coefficients
    and of numerators/denominators of random rationals; small bounds keep
    the exact arithmetic fast but too small a bound may exhaust the retry
    budget for the general-position draw.  The principal lattice is fully
    determined by its degree, so that kind ignores seed and bound.
    """

    __slots__ = _fields = ("kind", "degree", "seed", "coordinate_bound")

    def __init__(self, kind: str, degree: int, seed: int = 0, coordinate_bound: int = 8):
        if kind not in DEFAULT_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}; use one of {DEFAULT_KINDS}")
        if degree < 1:
            raise ValueError("generator degree must be >= 1")
        if coordinate_bound < 1:
            raise ValueError("coordinate bound must be >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "coordinate_bound", coordinate_bound)


def _random_line(rng: SplitMix64, bound: int) -> tuple[int, int, int]:
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if (a, b) != (0, 0):
            return a, b, c


def _general_position_meets(rng: SplitMix64, count: int, bound: int) -> list[tuple[int, int, int]]:
    """The homogeneous meets ``(x, y, w)``, w > 0, of ``count`` random lines in general position.

    A drawn line joins when it is parallel to no line drawn so far (a
    repeated line is parallel to itself) and passes through none of their
    meets: no two of the lines with it added are parallel and no three
    concurrent.  Lines ``(a1, b1, c1)`` and ``(a2, b2, c2)`` meet at
    ``(b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1)``.
    """
    lines: list[tuple[int, int, int]] = []
    meets: list[tuple[int, int, int]] = []
    attempts = 0
    while len(lines) < count:
        attempts += 1
        if attempts > RETRY_LIMIT:
            raise RetryLimitExceeded(
                f"no general-position configuration of {count} lines within "
                f"{RETRY_LIMIT} draws at coordinate bound {bound}"
            )
        a, b, c = _random_line(rng, bound)
        if any(a1 * b == a * b1 for a1, b1, _ in lines):
            continue
        if any(a * x + b * y + c * w == 0 for x, y, w in meets):
            continue
        for a1, b1, c1 in lines:
            x, y, w = b1 * c - b * c1, a * c1 - a1 * c, a1 * b - a * b1
            meets.append((x, y, w) if w > 0 else (-x, -y, -w))
        lines.append((a, b, c))
    return meets


def _chung_yao_scaled(degree: int, seed: int, bound: int) -> tuple[int, list[tuple[int, int]]]:
    """The lcm D of the meets' weights and the sorted integer nodes ``(D*x, D*y)``."""
    meets = _general_position_meets(SplitMix64(seed), degree + 2, bound)
    d = lcm(*(w for _, _, w in meets))
    coords = sorted({(x * (d // w), y * (d // w)) for x, y, w in meets})
    assert len(coords) == dim_pi(degree)  # guaranteed by general position
    return d, coords


def _chung_yao_nodes(degree: int, seed: int, bound: int) -> NodeSet:
    d, coords = _chung_yao_scaled(degree, seed, bound)
    return NodeSet(degree, tuple(Point(Fraction(x, d), Fraction(y, d)) for x, y in coords))


def _principal_nodes(degree: int) -> NodeSet:
    nodes = [
        Point(Fraction(i, degree), Fraction(j, degree))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]
    return NodeSet(degree, tuple(nodes))


@lru_cache(maxsize=None)
def _principal_certified(degree: int) -> tuple[NodeSet, GCCertificate]:
    xs = _principal_nodes(degree)
    return xs, certify_gc(xs)


def _projective_image_nodes(degree: int, seed: int, bound: int) -> NodeSet:
    rng = SplitMix64(seed)
    if rng.choice(("chung_yao", "principal")) == "chung_yao":
        d, coords = _chung_yao_scaled(degree, rng.next_u64(), bound)
    else:
        index = _principal_certified(degree)[0].incidence
        d, coords = index.scale, index.coords
    for _ in range(RETRY_LIMIT):
        m00, m01, m10, m11 = (rng.rational(bound) for _ in range(4))
        t0, t1 = rng.rational(bound), rng.rational(bound)
        if m00 * m11 - m01 * m10 != 0:
            # x' = m00*x + m01*y + t0 = (ax*X + bx*Y + cx*D) / (Lx*D) on X = D*x, Y = D*y
            lx, (ax, bx, cx) = _clear((m00, m01, t0))
            ly, (ay, by, cy) = _clear((m10, m11, t1))
            cx, cy, dx, dy = cx * d, cy * d, lx * d, ly * d
            mapped = tuple(
                Point(Fraction(ax * x + bx * y + cx, dx), Fraction(ay * x + by * y + cy, dy))
                for x, y in coords
            )
            return NodeSet(degree, mapped)
    raise RetryLimitExceeded(f"no invertible affine map within {RETRY_LIMIT} draws")


def generate_with_certificate(spec: GeneratorSpec) -> tuple[NodeSet, GCCertificate]:
    """Generate per spec and certify; the certificate comes along for free."""
    if spec.kind == "principal":
        return _principal_certified(spec.degree)
    if spec.kind == "chung_yao":
        xs = _chung_yao_nodes(spec.degree, spec.seed, spec.coordinate_bound)
    else:
        xs = _projective_image_nodes(spec.degree, spec.seed, spec.coordinate_bound)
    return xs, certify_gc(xs)


def generate(spec: GeneratorSpec) -> NodeSet:
    """Generate per spec; certification is asserted before the set is returned."""
    xs, _ = generate_with_certificate(spec)
    return xs


def gen_principal(degree: int) -> NodeSet:
    """The triangular lattice (i/n, j/n), i + j <= n, certified on the way out."""
    if degree < 1:
        raise ValueError("principal lattice needs degree >= 1")
    xs, _ = _principal_certified(degree)
    return xs
