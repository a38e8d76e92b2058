"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact arithmetic everywhere: every assertion is an equality or an
exact combinatorial count, with zero tolerance.  The only numeric budgets
are the stated wall-clock expectations of the two randomized harnesses.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import gcnlab
from gcnlab import (
    DegenerateIntersection,
    GeneratorSpec,
    Line,
    MDSequence,
    NodeSet,
    Point,
    Poly,
    all_fundamentals,
    cayley_bacharach_check,
    certify_gc,
    dim_pi,
    divide_by_line,
    enumerate_mdseqs,
    evaluate,
    gen_principal,
    generate_with_certificate,
    greedy_mdseq,
    incidence_profile,
    interpolate,
    is_poised,
    line_incidence,
    multiply_line,
    vandermonde,
)
from gcnlab.cli import main as cli_main
from gcnlab.linalg import nullspace_basis
from gcnlab.rng import SplitMix64, substream_seed


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def pool():
    """Generated instances of all three kinds at degrees 2..5, certified."""
    instances = []
    for degree in (2, 3, 4, 5):
        for kind, seeds in (("chung_yao", (101, 202)), ("projective_image", (303, 404))):
            for seed in seeds:
                spec = GeneratorSpec(kind, degree, seed=seed)
                xs, cert = generate_with_certificate(spec)
                instances.append((kind, degree, xs, cert))
        xs = gen_principal(degree)
        instances.append(("principal", degree, xs, certify_gc(xs)))
    return instances


@criterion(1, "dimension and size")
def test_criterion_1_dimension_and_size(pool):
    assert dim_pi(5) == 21
    degree5 = [(kind, xs) for kind, degree, xs, _ in pool if degree == 5]
    assert {kind for kind, _ in degree5} == {"chung_yao", "principal", "projective_image"}
    for kind, xs in degree5:
        assert len(xs) == 21, f"{kind} produced {len(xs)} nodes"


@criterion(2, "GM holds on 200 trials per degree")
def test_criterion_2_gm_search(tmp_path):
    start = time.perf_counter()
    for degree in (2, 3, 4, 5):
        out = tmp_path / f"summary{degree}.json"
        code = cli_main(
            ["search", "--degree", str(degree), "--trials", "200", "--seed", "2024",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["certified"] == 200, f"degree {degree}: {doc['certified']}/200 certified"
        assert doc["gm_satisfied"] == 200, f"degree {degree}: {doc['gm_satisfied']}/200 satisfied"
        assert doc["failures"] == []
        assert set(doc["kinds"]) == {"chung_yao", "principal", "projective_image"}
    elapsed = time.perf_counter() - start
    print(f"\n  search 4 x 200 trials took {elapsed:.1f}s")
    assert elapsed < 120, f"search took {elapsed:.1f}s, expected under 2 minutes"


@criterion(3, "certificate soundness and witnesses")
def test_criterion_3_certificate_soundness(pool):
    for kind, degree, xs, cert in pool:
        incidence = line_incidence(xs)
        for entry in cert.entries:
            assert len(entry.lines) == degree
            for j, node in enumerate(xs.nodes):
                value = entry.constant * prod((l.at(node) for l in entry.lines), start=Fraction(1))
                assert value == (1 if j == entry.node_index else 0)
            assert set(entry.witnesses) == set(entry.lines)
            for line, witness in entry.witnesses.items():
                assert len(witness) >= 2
                others = list(entry.lines)
                others.remove(line)
                for j in witness:
                    assert j in incidence[line]
                    cofactor = entry.constant * prod(
                        (o.at(xs.nodes[j]) for o in others), start=Fraction(1)
                    )
                    assert cofactor != 0


@criterion(4, "distribution-sequence laws")
def test_criterion_4_mdseq_laws(pool):
    for kind, degree, xs, cert in pool:
        for k in range(len(xs)):
            counts = greedy_mdseq(cert, k).counts
            assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
            assert sum(counts) == dim_pi(degree) - 1
            assert all(c >= 2 for c in counts)
            if kind == "chung_yao":
                assert counts == tuple(range(degree + 1, 1, -1))
    # exhaustive enumeration: singleton on every node, degrees <= 4 ...
    for kind, degree, xs, cert in pool:
        if degree > 4:
            continue
        expected = {MDSequence(tuple(range(degree + 1, 1, -1)))}
        for k in range(len(xs)):
            got = enumerate_mdseqs(cert, k)
            assert len(got) == 1, f"{kind} degree {degree} node {k}: {got}"
            if kind == "chung_yao":
                assert got == expected
    # ... plus the degree-5 principal lattice
    principal5_cert = next(
        cert for kind, degree, _, cert in pool if kind == "principal" and degree == 5
    )
    for k in range(21):
        assert len(enumerate_mdseqs(principal5_cert, k)) == 1


@criterion(5, "vanishing on a line forces divisibility (500 instances)")
def test_criterion_5_divisibility_suite():
    rng = SplitMix64(777)
    instances = 0
    while instances < 500:
        n = 1 + instances % 5
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        if (a, b) == (0, 0):
            continue
        line = Line(a, b, rng.randint(-6, 6))
        points = set()
        while len(points) < n + 1:
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
            if line.b != 0:
                points.add(Point(t, Fraction(-line.a * t - line.c, line.b)))
            else:
                points.add(Point(Fraction(-line.c, line.a), t))
        basis = nullspace_basis(vandermonde(NodeSet(n, sorted(points))))
        coeffs = [Fraction(0)] * dim_pi(n)
        for vec in basis:
            w = rng.randint(-5, 5)
            coeffs = [c + w * v for c, v in zip(coeffs, vec)]
        p = Poly(n, tuple(coeffs))
        if p.is_zero():
            continue
        quotient = divide_by_line(p, line)
        assert multiply_line(quotient, line) == p
        # round-trip identity on an unconstrained random polynomial
        q = Poly(n, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim_pi(n))))
        if not q.is_zero():
            assert divide_by_line(multiply_line(q, line), line) == q
        instances += 1


@criterion(6, "Cayley-Bacharach dependence (grid + 100 random instances)")
def test_criterion_6_cayley_bacharach():
    start = time.perf_counter()
    grid_m = [Line(1, 0, 0), Line(1, 0, -1), Line(1, 0, -2)]
    grid_n = [Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2)]
    assert cayley_bacharach_check(grid_m, grid_n)
    rng = SplitMix64(4242)
    done = 0
    while done < 100:
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        groups, seen = ([], []), set()
        degenerate = False
        for group, count in zip(groups, (m, n)):
            while len(group) < count:
                a, b, c = (rng.randint(-7, 7) for _ in range(3))
                if (a, b) == (0, 0):
                    continue
                line = Line(a, b, c)
                if line in seen:
                    continue
                seen.add(line)
                group.append(line)
        try:
            dependent = cayley_bacharach_check(groups[0], groups[1])
        except DegenerateIntersection:
            continue
        assert dependent, f"instance m={m} n={n} not essentially {m + n - 3}-dependent"
        done += 1
    elapsed = time.perf_counter() - start
    print(f"\n  grid + 100 random instances took {elapsed:.1f}s")
    assert elapsed < 60, f"dependence suite took {elapsed:.1f}s, expected under 1 minute"


@criterion(7, "interpolation reproduction and partition of unity")
def test_criterion_7_reproduction():
    rng = SplitMix64(31337)
    kinds = ("chung_yao", "principal", "projective_image")
    for set_index in range(10):
        kind = kinds[set_index % 3]
        if kind == "principal":
            xs = gen_principal(5)
        else:
            xs, _ = generate_with_certificate(
                GeneratorSpec(kind, 5, seed=substream_seed(91, set_index))
            )
        assert is_poised(xs)
        for _ in range(10):
            p = Poly(
                5,
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim_pi(5))),
            )
            values = [evaluate(p, node) for node in xs.nodes]
            assert interpolate(xs, values) == p
        total = Poly.zero(5)
        for sol in all_fundamentals(xs):
            total = total + sol.poly
        assert total == Poly.constant(1, 5)


@criterion(8, "incidence-count sum identity")
def test_criterion_8_counting_identity(pool):
    for kind, degree, xs, _ in pool:
        for center in range(len(xs)):
            profile = incidence_profile(xs, center)
            assert sum(k * c for k, c in profile.counts.items()) == len(xs) - 1


@criterion(9, "byte-identical artifacts under fixed seeds")
def test_criterion_9_determinism(tmp_path):
    def run(env_hash_seed: str, tag: str) -> dict[str, bytes]:
        # the child imports the same gcnlab as this process, however pytest
        # put it on sys.path
        src = str(Path(gcnlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=env_hash_seed, PYTHONPATH=path)
        base = tmp_path / tag
        base.mkdir()
        nodes = base / "nodes.json"
        cert = base / "cert.json"
        summary = base / "summary.json"
        figure = base / "figure.svg"
        cmds = [
            ["generate", "--kind", "chung_yao", "--degree", "4", "--seed", "77",
             "--out", str(nodes)],
            ["certify-gc", str(nodes), "--out", str(cert)],
            ["search", "--degree", "2", "--trials", "5", "--seed", "3",
             "--out", str(summary)],
            ["plot", str(nodes), "--overlay", "maximal", "--overlay", "primary:0",
             "--out", str(figure)],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "gcnlab.cli", *cmd],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in (nodes, cert, summary, figure)}

    first = run("0", "a")
    second = run("12345", "b")
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
