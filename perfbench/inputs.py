"""Seeded inputs for the benchmark workloads.

The benchmark builds its own node sets and line groups from the seed, so
the program under test receives only generated inputs and set-up does no
certification.  Constructions follow the ones the paper uses:

* ``chung_yao``: all pairwise intersections of ``n + 2`` integer lines in
  general position (no two parallel, no three concurrent);
* ``principal_image``: an invertible affine image, with random rational
  coefficients, of the principal lattice ``(i/n, j/n)``, ``i + j <= n``;
* ``moved``: a ``chung_yao`` set whose node 0 is replaced by a random
  point off every line through two of the other nodes.  That keeps the set
  poised (node 0's old fundamental polynomial is a product of such lines,
  so it does not vanish at the new point), but a node on neither of the
  two old lines through node 0 then has no line-product fundamental
  polynomial, so the set is not GC for every degree >= 2.

Everything is exact (``fractions.Fraction``) and uses ``random.Random``
seeded with a string, which is stable across runs and platforms.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from typing import Iterator

Line = tuple[int, int, int]
Point = tuple[Fraction, Fraction]


def stream(seed: int, label: str) -> random.Random:
    """An independent PRNG for one named input of one seed."""
    return random.Random(f"{seed}:{label}")


def canonical_line(a: int, b: int, c: int) -> Line:
    """Integer triple up to scale: gcd 1, first nonzero coefficient positive."""
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def random_line(rng: random.Random, bound: int) -> Line:
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if (a, b) != (0, 0):
            return canonical_line(a, b, c)


def meet(l1: Line, l2: Line) -> Point | None:
    det = l1[0] * l2[1] - l2[0] * l1[1]
    if det == 0:
        return None
    return (
        Fraction(l1[1] * l2[2] - l2[1] * l1[2], det),
        Fraction(l2[0] * l1[2] - l1[0] * l2[2], det),
    )


def on_line(line: Line, p: Point) -> bool:
    return line[0] * p[0] + line[1] * p[1] + line[2] == 0


def line_through(p: Point, q: Point) -> Line:
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = p[1] * q[0] - p[0] * q[1]
    m = a.denominator * b.denominator * c.denominator
    return canonical_line(int(a * m), int(b * m), int(c * m))


def chung_yao(rng: random.Random, degree: int, bound: int = 8) -> list[Point]:
    lines: list[Line] = []
    while len(lines) < degree + 2:
        cand = random_line(rng, bound)
        if cand in lines or any(meet(cand, l) is None for l in lines):
            continue
        points = [meet(lines[i], lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))]
        if any(on_line(cand, p) for p in points):
            continue
        lines.append(cand)
    return sorted(meet(lines[i], lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines)))


def _rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def principal_image(rng: random.Random, degree: int, bound: int = 8) -> list[Point]:
    while True:
        m00, m01, m10, m11, t0, t1 = (_rational(rng, bound) for _ in range(6))
        if m00 * m11 - m01 * m10 != 0:
            break
    base = [
        (Fraction(i, degree), Fraction(j, degree))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]
    return [(m00 * x + m01 * y + t0, m10 * x + m11 * y + t1) for x, y in base]


def moved(rng: random.Random, nodes: list[Point], bound: int = 8) -> list[Point]:
    rest = nodes[1:]
    pair_lines = {line_through(rest[i], rest[j]) for i in range(len(rest)) for j in range(i + 1, len(rest))}
    while True:
        p = (_rational(rng, bound), _rational(rng, bound))
        if p not in rest and not any(on_line(l, p) for l in pair_lines):
            return [p] + rest


def nodeset_json(degree: int, nodes: list[Point]) -> str:
    """A node file in the program's documented input schema."""
    return json.dumps({"degree": degree, "nodes": [[str(x), str(y)] for x, y in nodes]}) + "\n"


#: The single-set files of one session pass, in the order they are run.
#: ``kind`` picks the construction; the moved set derives from the
#: degree-7 ``chung_yao`` set of the same seed.
CLI_FILES = (
    ("chung_yao", 7),
    ("principal_image", 7),
    ("chung_yao", 8),
    ("principal_image", 8),
    ("chung_yao", 9),
    ("principal_image", 9),
    ("moved", 7),
)


def cli_nodesets(seed: int) -> list[tuple[str, int, list[Point]]]:
    """(label, degree, nodes) for every file of the single-set session pass."""
    out = []
    for kind, degree in CLI_FILES:
        label = f"{kind}_{degree}"
        if kind == "chung_yao":
            nodes = chung_yao(stream(seed, label), degree)
        elif kind == "principal_image":
            nodes = principal_image(stream(seed, label), degree)
        else:
            nodes = moved(stream(seed, label), chung_yao(stream(seed, f"chung_yao_{degree}"), degree))
        out.append((label, degree, nodes))
    return out


def degenerate(lines_m: list[Line], lines_n: list[Line]) -> bool:
    """True when the two line products do not meet in m * n distinct points."""
    points = {meet(a, b) for a in lines_m for b in lines_n}
    return None in points or len(points) != len(lines_m) * len(lines_n)


def cb_instances(seed: int) -> Iterator[tuple[list[Line], list[Line], bool]]:
    """Endless pairs of line groups with m, n in 2..7, coefficients in [-7, 7].

    Each block takes every (m, n) once, in shuffled order, and draws line
    groups of that size until one meets transversally (its m * n points are
    distinct); the degenerate draws before it are kept as inputs too.  So
    every block checks one non-degenerate instance of each size, and the
    run-to-run mix does not hinge on how many of the rare non-degenerate
    7 x 7 draws (7% of them, each about 100 times a 2 x 2 one) a run gets.
    Lines are distinct within and across groups.  Yields ``(lines_m,
    lines_n, degenerate)``.
    """
    rng = stream(seed, "cb")
    while True:
        sizes = [(m, n) for m in range(2, 8) for n in range(2, 8)]
        rng.shuffle(sizes)
        for m, n in sizes:
            while True:
                lines: list[Line] = []
                while len(lines) < m + n:
                    cand = random_line(rng, 7)
                    if cand not in lines:
                        lines.append(cand)
                bad = degenerate(lines[:m], lines[m:])
                yield lines[:m], lines[m:], bad
                if not bad:
                    break


def gm_round_seed(seed: int, round_index: int) -> int:
    """Master seed of one sweep round."""
    return stream(seed, f"gm:{round_index}").getrandbits(63)
