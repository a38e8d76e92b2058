"""Shared fixtures: small lattices and their certificates, computed once."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gcnlab import (
    GeneratorSpec,
    Line,
    NodeSet,
    Point,
    certify_gc,
    gen_principal,
    generate_with_certificate,
    intersect,
)
from gcnlab import generators


@pytest.fixture
def cold_cache():
    """The principal memo, empty at the start and at the end of the test."""
    generators._principal_certified.cache_clear()
    yield
    generators._principal_certified.cache_clear()


@pytest.fixture
def built_indexes(monkeypatch):
    """Every node set indexed during the test (each ``NodeSet._store`` call), in order."""
    built = []
    store = NodeSet._store

    def counting_store(xs, *args, **kwargs):
        store(xs, *args, **kwargs)
        built.append(xs)

    monkeypatch.setattr(NodeSet, "_store", counting_store)
    return built


@pytest.fixture
def too_many_digits():
    """A decimal integer one digit past ``sys.get_int_max_str_digits()``; skips where there is no limit."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None or limit() == 0:
        pytest.skip("this Python has no integer string conversion limit")
    return "7" * (limit() + 1)


def index_of(xs):
    """A node set's incidence index, ``(degree, scale, coords)``, for comparing two sets' indexes."""
    return (xs.degree, xs.scale, xs.coords)


CY2_LINES = (Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1), Line(2, 1, -4))


def cy_nodes_from_lines(lines, degree):
    pts = sorted(
        {intersect(lines[i], lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))}
    )
    return NodeSet(degree, tuple(pts))


@pytest.fixture(scope="session")
def triangle():
    """The smallest poised set: degree 1, unit triangle."""
    return NodeSet(1, (Point(0, 0), Point(1, 0), Point(0, 1)))


@pytest.fixture(scope="session")
def cy2():
    """A natural-lattice GC_2 set built from four named lines."""
    return cy_nodes_from_lines(CY2_LINES, 2)


@pytest.fixture(scope="session")
def cy2_cert(cy2):
    return certify_gc(cy2)


@pytest.fixture(scope="session")
def principal5():
    return gen_principal(5)


@pytest.fixture(scope="session")
def principal5_cert(principal5):
    return certify_gc(principal5)


@pytest.fixture(scope="session")
def cy5_pair():
    """A degree-5 natural lattice with its certificate (seeded)."""
    return generate_with_certificate(GeneratorSpec("chung_yao", 5, seed=42))


@pytest.fixture(scope="session")
def cy3_pair():
    return generate_with_certificate(GeneratorSpec("chung_yao", 3, seed=11))
