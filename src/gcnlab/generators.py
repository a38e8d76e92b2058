"""Seeded constructions of GC node sets, verified at generation time.

Three families are provided: intersection lattices of random lines in
general position, the triangular principal lattice, and random invertible
affine images of either base (poisedness, line factorizations and all
incidence structure are affine-invariant).  Nothing is emitted on trust:
every generated set is certified before it is returned, so a generator can
only hand out sets whose GC property has been established exactly.

The principal lattice depends on its degree alone, so it is certified once
per degree per process; every later request for that degree gets the same
set and certificate objects.

Generation is a pure function of its spec; fixed seeds give byte-identical
node sets on every platform (see :mod:`gcnlab.rng` for the PRNG contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certification import GCCertificate, certify_gc
from .errors import RetryLimitExceeded
from .geometry import Line, Point, general_position, intersect
from .interpolation import NodeSet
from .polynomials import dim_pi
from .rng import SplitMix64

DEFAULT_KINDS = ("chung_yao", "principal", "projective_image")

#: Budget of random draws before a degenerate-configuration loop gives up.
RETRY_LIMIT = 512


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one seeded generation.

    ``coordinate_bound`` caps the magnitude of random integer coefficients
    and of numerators/denominators of random rationals; small bounds keep
    the exact arithmetic fast but too small a bound may exhaust the retry
    budget for the general-position draw.  The principal lattice is fully
    determined by its degree, so that kind ignores seed and bound.
    """

    kind: str
    degree: int
    seed: int = 0
    coordinate_bound: int = 8

    def __post_init__(self):
        if self.kind not in DEFAULT_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; use one of {DEFAULT_KINDS}")
        if self.degree < 1:
            raise ValueError("generator degree must be >= 1")
        if self.coordinate_bound < 1:
            raise ValueError("coordinate bound must be >= 1")


def _random_line(rng: SplitMix64, bound: int) -> Line:
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if (a, b) != (0, 0):
            return Line(a, b, c)


def _general_position_lines(rng: SplitMix64, count: int, bound: int) -> list[Line]:
    lines: list[Line] = []
    attempts = 0
    while len(lines) < count:
        attempts += 1
        if attempts > RETRY_LIMIT:
            raise RetryLimitExceeded(
                f"no general-position configuration of {count} lines within "
                f"{RETRY_LIMIT} draws at coordinate bound {bound}"
            )
        candidate = _random_line(rng, bound)
        if candidate in lines:
            continue
        if general_position(lines + [candidate]):
            lines.append(candidate)
    return lines


def _chung_yao_nodes(degree: int, seed: int, bound: int) -> NodeSet:
    rng = SplitMix64(seed)
    lines = _general_position_lines(rng, degree + 2, bound)
    points = {intersect(lines[i], lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))}
    assert len(points) == dim_pi(degree)  # guaranteed by general position
    return NodeSet(degree, tuple(sorted(points)))


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
        base = _chung_yao_nodes(degree, rng.next_u64(), bound)
    else:
        base = _principal_nodes(degree)
    for _ in range(RETRY_LIMIT):
        m00, m01, m10, m11 = (rng.rational(bound) for _ in range(4))
        t0, t1 = rng.rational(bound), rng.rational(bound)
        if m00 * m11 - m01 * m10 != 0:
            mapped = tuple(
                Point(m00 * p.x + m01 * p.y + t0, m10 * p.x + m11 * p.y + t1) for p in base
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


def gen_chung_yao(spec: GeneratorSpec) -> NodeSet:
    """All pairwise intersections of ``degree + 2`` random general-position lines."""
    if spec.kind != "chung_yao":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'chung_yao'")
    return generate(spec)


def gen_principal(degree: int) -> NodeSet:
    """The triangular lattice (i/n, j/n), i + j <= n, certified on the way out."""
    if degree < 1:
        raise ValueError("principal lattice needs degree >= 1")
    xs, _ = _principal_certified(degree)
    return xs


def gen_projective_image(spec: GeneratorSpec) -> NodeSet:
    """A random invertible affine image of a base construction."""
    if spec.kind != "projective_image":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'projective_image'")
    return generate(spec)
