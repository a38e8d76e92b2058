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
each distinct base line is mapped once.  Every line is kept as its
canonical integer triple ``(a, b, c)`` (``geometry._canonical``, the
normalization of :class:`~gcnlab.geometry.Line`).  The distinct triples
and each node's cover, as positions in them, go to the cover table
(:class:`~gcnlab.certification.GCCertificate`), which verifies it once
by the certificate rule, evaluating every line at every node.  If the
rule rejects a construction, InvalidCertificate is raised: an internal
error, never a property of the set.  A natural lattice hands over its
triples in Line order and each node's cover as the positions ``0..n+1``
without the two of its meeting lines, so the table is kept as it is; the
principal lattice (built once per degree) and affine images, whose lines
the map reorders, are put in Line order by the table.  The certificate's
``Line`` objects (``lines``) and entries (constants and witnesses) are
views built only when something reads them, so a sweep builds none.

Nodes are built on integers and become Fractions only when read.  A
natural lattice's candidate lines come from ``SplitMix64.line``, and each,
kept or not, counts against the budget of ``RETRY_LIMIT`` draws.  Two
random lines ``(a1, b1, c1)`` and ``(a2, b2, c2)`` meet at the homogeneous
point ``(b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1)``, taken with a
positive last entry w; over the lcm D of all w, a natural lattice is a
sorted list of integer nodes ``(D*x, D*y)``, which is the order of its
points because D > 0.  A drawn line ``(a, b, c)`` is parallel to an
earlier one exactly when their parallels through the origin,
``_canonical(a, b, 0)``, are equal, so general position is a set lookup
and one pass over the meets so far.  An affine image maps such
integer nodes with integer rows over one common scale: its six
coefficients are drawn as the reduced integer pairs of ``rng.rational``,
and each row is cleared by the integer lcm of its denominators, so no
draw builds a Fraction.  The integer nodes, reduced by their gcd with the
scale, become the set's incidence index (``NodeSet.scale`` and
``NodeSet.coords``) as they are, and the set is held as that index: a
sweep reads only the index and the cover table, so it builds no
Fraction, and the points are built from the index when something first
reads ``nodes``.

The principal lattice depends on its degree alone, so it is certified once
per degree per process; every later request for that degree gets the same
set and certificate objects, and an affine image of it reads its integer
nodes from the cached set and its lines and covers from the cached
certificate.

Generation is a pure function of its spec; fixed seeds give byte-identical
node sets on every platform (see :mod:`gcnlab.rng` for the PRNG contract).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .certification import GCCertificate
from .errors import RetryLimitExceeded
from .geometry import NodeSet, Triple, Value, _canonical
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
    directions: set[Triple] = set()
    attempts = 0
    while len(lines) < count:
        attempts += 1
        if attempts > RETRY_LIMIT:
            raise RetryLimitExceeded(
                f"no general-position configuration of {count} lines within "
                f"{RETRY_LIMIT} draws at coordinate bound {bound}"
            )
        a, b, c = rng.line(bound)
        direction = _canonical(a, b, 0)
        if direction in directions:
            continue
        for x, y, w, _, _ in meets:
            if a * x + b * y + c * w == 0:
                break
        else:
            j = len(lines)
            for i, (a1, b1, c1) in enumerate(lines):
                x, y, w = b1 * c - b * c1, a * c1 - a1 * c, a1 * b - a * b1
                meets.append((x, y, w, i, j) if w > 0 else (-x, -y, -w, i, j))
            lines.append((a, b, c))
            directions.add(direction)
    return lines, meets


# A construction on integers: the scale D, the integer nodes (D*x, D*y), the
# canonical triples of the distinct cover lines, and each node's cover as
# positions in those lines.
_Scaled = tuple[int, list[tuple[int, int]], list[Triple], list[tuple[int, ...]]]


def _chung_yao_scaled(degree: int, seed: int, bound: int) -> _Scaled:
    """The natural lattice of ``degree + 2`` random lines, over the lcm D of the meets' weights.

    Its nodes are sorted, which is the order of the points because D > 0.
    The lines' triples are returned in Line order, and the node where the
    lines at positions p < q meet is covered by the other n: the positions
    ``0..n+1`` without p and q, ascending.
    """
    lines, meets = _general_position_meets(SplitMix64(seed), degree + 2, bound)
    d = lcm(*(w for _, _, w, _, _ in meets))
    nodes = sorted((x * (d // w), y * (d // w), i, j) for x, y, w, i, j in meets)
    drawn = [_canonical(*t) for t in lines]
    order = sorted(range(len(drawn)), key=drawn.__getitem__)
    rank = [0] * len(drawn)
    for p, i in enumerate(order):
        rank[i] = p
    every = tuple(range(len(drawn)))
    covers = []
    for _, _, i, j in nodes:
        p, q = rank[i], rank[j]
        if p > q:
            p, q = q, p
        covers.append(every[:p] + every[p + 1 : q] + every[q + 1 :])
    return d, [(x, y) for x, y, _, _ in nodes], [drawn[i] for i in order], covers


def _principal_scaled(degree: int) -> _Scaled:
    """The principal lattice over D = n, covered by the grid lines.

    Node (i, j) is covered by x = a/n (a < i), y = b/n (b < j) and
    x + y = c/n (i + j < c <= n), at positions a, n + b and 2n + c - 1.
    """
    n = degree
    coords = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    lines = (
        [_canonical(n, 0, -a) for a in range(n)]
        + [_canonical(0, n, -b) for b in range(n)]
        + [_canonical(n, n, -c) for c in range(1, n + 1)]
    )
    covers = [(*range(i), *range(n, n + j), *range(2 * n + i + j, 3 * n)) for i, j in coords]
    return n, coords, lines, covers


def _certified(degree: int, scaled: _Scaled) -> GCCertificate:
    """The node set of a construction, with its index, certified from its covers."""
    d, coords, lines, covers = scaled
    return GCCertificate._of_triples(NodeSet._scaled(degree, d, coords), lines, covers)


@lru_cache(maxsize=None)
def _principal_certified(degree: int) -> GCCertificate:
    return _certified(degree, _principal_scaled(degree))


def _projective_image_scaled(degree: int, seed: int, bound: int) -> _Scaled:
    """A random invertible affine image of a natural or the principal lattice.

    Node j of the image is the image of base node j, and a base cover line
    ``a*x + b*y + c = 0`` maps to the image's cover line through the
    inverse of the map.  The map is ``x' = m00*x + m01*y + t0``,
    ``y' = m10*x + m11*y + t1``, its coefficients drawn in that order
    (m00, m01, m10, m11, t0, t1) as the reduced integer pairs of
    ``rng.rational(bound)``.
    """
    rng = SplitMix64(seed)
    if rng.choice(("chung_yao", "principal")) == "chung_yao":
        d, coords, lines, covers = _chung_yao_scaled(degree, rng.next_u64(), bound)
    else:
        base = _principal_certified(degree)
        d, coords = base.nodeset.scale, base.nodeset.coords
        lines, covers = base.triples, base.covers
    for _ in range(RETRY_LIMIT):
        (n00, d00), (n01, d01), (n10, d10), (n11, d11), (nt0, dt0), (nt1, dt1) = (
            rng.rational(bound) for _ in range(6)
        )
        # the determinant n00/d00 * n11/d11 - n01/d01 * n10/d10, over positive denominators
        if n00 * n11 * d01 * d10 != n01 * n10 * d00 * d11:
            # lx*x' = ax*x + bx*y + cx and ly*y' = ay*x + by*y + cy; over the
            # scale L*D, L = lcm(lx, ly), X' = (L/lx)*(ax*X + bx*Y + cx*D) on X = D*x
            lx = lcm(d00, d01, dt0)
            ax, bx, cx = n00 * (lx // d00), n01 * (lx // d01), nt0 * (lx // dt0)
            ly = lcm(d10, d11, dt1)
            ay, by, cy = n10 * (ly // d10), n11 * (ly // d11), nt1 * (ly // dt1)
            scale = lcm(lx, ly)
            ux, uy = scale // lx, scale // ly
            mapped = [
                (ux * (ax * x + bx * y + cx * d), uy * (ay * x + by * y + cy * d))
                for x, y in coords
            ]
            # a*x + b*y + c = 0 with x, y solved from x', y' (k is the determinant)
            k = ax * by - bx * ay
            image = []
            for a, b, c in lines:
                p, q = a * by - b * ay, b * ax - a * bx
                image.append(_canonical(p * lx, q * ly, c * k - p * cx - q * cy))
            return scale * d, mapped, image, covers
    raise RetryLimitExceeded(f"no invertible affine map within {RETRY_LIMIT} draws")


def generate_with_certificate(spec: GeneratorSpec) -> tuple[NodeSet, GCCertificate]:
    """The set ``spec`` names, and its certificate, constructed from the covers it is built with.

    The certificate is verified by the certificate rule.  A construction
    that the rule rejects raises InvalidCertificate: that is an internal
    error, not a property of the set.
    """
    if spec.kind == "principal":
        cert = _principal_certified(spec.degree)
    else:
        if spec.kind == "chung_yao":
            scaled = _chung_yao_scaled(spec.degree, spec.seed, spec.coordinate_bound)
        else:
            scaled = _projective_image_scaled(spec.degree, spec.seed, spec.coordinate_bound)
        cert = _certified(spec.degree, scaled)
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
