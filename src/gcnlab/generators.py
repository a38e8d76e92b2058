"""Seeded constructions of GC node sets, with their certificates.

Three families are provided: intersection lattices of random lines in
general position, the triangular principal lattice, and random invertible
affine images of either base (poisedness, line factorizations and all
incidence structure are affine-invariant).  Nothing is emitted on trust:
every generated set's certificate is constructed, then verified by the
certificate rule, so a generator can only hand out sets whose GC property
has been established exactly.

The lines that cover each node are known by construction, so no cover is
searched for.  A natural lattice's node, the meet of generating lines i
and j, is covered by the other n generating lines (Chung & Yao).  The
principal lattice's node (i, j) is covered by x = a/n (a < i), y = b/n
(b < j) and x + y = c/n (c > i + j).  An affine map carries each cover to
the image's cover: node j of an image is the image of base node j, and
each distinct base line is mapped once.  The distinct lines and each
node's cover, as positions in them, go to the constructor of the cover
table (:class:`~gcnlab.certification.GCCertificate`), which verifies it
once by the certificate rule, evaluating every line at every node.  If
the rule rejects a construction, InvalidCertificate is raised: an
internal error, never a property of the set.  The certificate's entries
(constants and witnesses) are a view built only when something reads
them, so a sweep builds none.

Nodes are built on integers and become Fractions only at the end.  Two
random lines ``(a1, b1, c1)`` and ``(a2, b2, c2)`` meet at the homogeneous
point ``(b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1)``, taken with a
positive last entry w; over the lcm D of all w, a natural lattice is a
sorted list of integer nodes ``(D*x, D*y)``, which is the order of its
points because D > 0.  An affine image maps such integer nodes with
integer rows over one common scale.  The integer nodes, reduced by their
gcd with the scale, become the set's incidence index as they are, so it
is never derived again from the Fractions.

The principal lattice depends on its degree alone, so it is certified once
per degree per process; every later request for that degree gets the same
set and certificate objects, and an affine image of it reads its integer
nodes from the cached set's incidence index and its lines and covers from
the cached certificate.

Generation is a pure function of its spec; fixed seeds give byte-identical
node sets on every platform (see :mod:`gcnlab.rng` for the PRNG contract).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .certification import GCCertificate
from .errors import RetryLimitExceeded
from .geometry import Line, NodeSet, Value, _clear
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


def _general_position_meets(
    rng: SplitMix64, count: int, bound: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, int, int]]]:
    """``count`` random lines in general position, and their meets ``(x, y, w, i, j)``.

    A drawn line joins when it is parallel to no line drawn so far (a
    repeated line is parallel to itself) and passes through none of their
    meets: no two of the lines with it added are parallel and no three
    concurrent.  Lines ``(a1, b1, c1)`` and ``(a2, b2, c2)`` meet at the
    homogeneous point ``(b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1)``,
    taken with w > 0; i < j are the positions of the two lines.
    """
    lines: list[tuple[int, int, int]] = []
    meets: list[tuple[int, int, int, int, int]] = []
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
        if any(a * x + b * y + c * w == 0 for x, y, w, _, _ in meets):
            continue
        j = len(lines)
        for i, (a1, b1, c1) in enumerate(lines):
            x, y, w = b1 * c - b * c1, a * c1 - a1 * c, a1 * b - a * b1
            meets.append((x, y, w, i, j) if w > 0 else (-x, -y, -w, i, j))
        lines.append((a, b, c))
    return lines, meets


# A construction on integers: the scale D, the integer nodes (D*x, D*y), the
# distinct cover lines, and each node's cover as positions in those lines.
_Scaled = tuple[int, list[tuple[int, int]], list[Line], list[tuple[int, ...]]]


def _chung_yao_scaled(degree: int, seed: int, bound: int) -> _Scaled:
    """The natural lattice of ``degree + 2`` random lines, over the lcm D of the meets' weights.

    Its nodes are sorted, which is the order of the points because D > 0.
    The node where lines i and j meet is covered by the other n lines.
    """
    lines, meets = _general_position_meets(SplitMix64(seed), degree + 2, bound)
    d = lcm(*(w for _, _, w, _, _ in meets))
    nodes = sorted((x * (d // w), y * (d // w), i, j) for x, y, w, i, j in meets)
    every = range(degree + 2)
    covers = [tuple(f for f in every if f != i and f != j) for _, _, i, j in nodes]
    return d, [(x, y) for x, y, _, _ in nodes], [Line(*t) for t in lines], covers


def _principal_scaled(degree: int) -> _Scaled:
    """The principal lattice over D = n, covered by the grid lines.

    Node (i, j) is covered by x = a/n (a < i), y = b/n (b < j) and
    x + y = c/n (i + j < c <= n), at positions a, n + b and 2n + c - 1.
    """
    n = degree
    coords = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    lines = (
        [Line(n, 0, -a) for a in range(n)]
        + [Line(0, n, -b) for b in range(n)]
        + [Line(n, n, -c) for c in range(1, n + 1)]
    )
    covers = [(*range(i), *range(n, n + j), *range(2 * n + i + j, 3 * n)) for i, j in coords]
    return n, coords, lines, covers


def _certified(degree: int, scaled: _Scaled) -> GCCertificate:
    """The node set of a construction, with its index, certified from its covers."""
    d, coords, lines, covers = scaled
    return GCCertificate(NodeSet._scaled(degree, d, coords), lines, covers)


@lru_cache(maxsize=None)
def _principal_certified(degree: int) -> GCCertificate:
    return _certified(degree, _principal_scaled(degree))


def _projective_image_scaled(degree: int, seed: int, bound: int) -> _Scaled:
    """A random invertible affine image of a natural or the principal lattice.

    Node j of the image is the image of base node j, and a base cover line
    ``a*x + b*y + c = 0`` maps to the image's cover line through the
    inverse of the map.
    """
    rng = SplitMix64(seed)
    if rng.choice(("chung_yao", "principal")) == "chung_yao":
        d, coords, lines, covers = _chung_yao_scaled(degree, rng.next_u64(), bound)
    else:
        base = _principal_certified(degree)
        d, coords = base.nodeset.incidence.scale, base.nodeset.incidence.coords
        lines, covers = base.lines, base.covers
    for _ in range(RETRY_LIMIT):
        m00, m01, m10, m11 = (rng.rational(bound) for _ in range(4))
        t0, t1 = rng.rational(bound), rng.rational(bound)
        if m00 * m11 - m01 * m10 != 0:
            # lx*x' = ax*x + bx*y + cx and ly*y' = ay*x + by*y + cy; over the
            # scale L*D, L = lcm(lx, ly), X' = (L/lx)*(ax*X + bx*Y + cx*D) on X = D*x
            lx, (ax, bx, cx) = _clear((m00, m01, t0))
            ly, (ay, by, cy) = _clear((m10, m11, t1))
            scale = lcm(lx, ly)
            ux, uy = scale // lx, scale // ly
            mapped = [
                (ux * (ax * x + bx * y + cx * d), uy * (ay * x + by * y + cy * d))
                for x, y in coords
            ]
            # a*x + b*y + c = 0 with x, y solved from x', y' (k is the determinant)
            k = ax * by - bx * ay
            image = []
            for line in lines:
                a, b, c = line.coefficients
                p, q = a * by - b * ay, b * ax - a * bx
                image.append(Line(p * lx, q * ly, c * k - p * cx - q * cy))
            return scale * d, mapped, image, covers
    raise RetryLimitExceeded(f"no invertible affine map within {RETRY_LIMIT} draws")


def _constructed(spec: GeneratorSpec) -> GCCertificate:
    """The set ``spec`` names, certified from the covers it is built with.

    A construction that the certificate rule rejects raises
    InvalidCertificate: that is an internal error, not a property of the set.
    """
    if spec.kind == "principal":
        return _principal_certified(spec.degree)
    if spec.kind == "chung_yao":
        scaled = _chung_yao_scaled(spec.degree, spec.seed, spec.coordinate_bound)
    else:
        scaled = _projective_image_scaled(spec.degree, spec.seed, spec.coordinate_bound)
    return _certified(spec.degree, scaled)


def generate_with_certificate(spec: GeneratorSpec) -> tuple[NodeSet, GCCertificate]:
    """Generate per spec; the certificate is constructed, then verified by the certificate rule."""
    cert = _constructed(spec)
    return cert.nodeset, cert


def generate(spec: GeneratorSpec) -> NodeSet:
    """Generate per spec; the set's certificate is verified before it is returned."""
    xs, _ = generate_with_certificate(spec)
    return xs


def gen_principal(degree: int) -> NodeSet:
    """The triangular lattice (i/n, j/n), i + j <= n, verified on the way out."""
    if degree < 1:
        raise ValueError("principal lattice needs degree >= 1")
    return _principal_certified(degree).nodeset
