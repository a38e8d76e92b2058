"""GC certificates: candidate lines, factorization, witnesses, soundness."""

import copy
import json
import pickle
from fractions import Fraction
from itertools import combinations
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcnlab import (
    DEFAULT_KINDS,
    GCNLabError,
    GeneratorSpec,
    InvalidCertificate,
    Line,
    NodeSet,
    NotGC,
    NotPoised,
    Point,
    Poly,
    ZeroPolynomial,
    all_fundamentals,
    certify_gc,
    dim_pi,
    divide_by_line,
    enumerate_mdseqs,
    fixed_first_mdseq,
    gen_principal,
    generate,
    generate_with_certificate,
    gm_report_from_certificate,
    greedy_mdseq,
    is_poised,
    line_incidence,
    maximal_lines,
    multiply_line,
    used_lines_of,
    verify_certificate,
)
from gcnlab import certification, generators
from gcnlab.certification import GCCertificate, NodeCertificate, _cover
from gcnlab.errors import NotDivisible
from gcnlab.geometry import _bits
from gcnlab.rng import SplitMix64
from gcnlab.serialization import load_certificate, save_certificate

from conftest import CY2_LINES, index_of
from oracles import (
    NotProductOfCandidateLines,
    candidate_lines,
    certificate_fault_private,
    certify_gc_algebraic,
    distinct_pair_lines,
    factor_into_lines,
    line_incidence_pairs,
    line_through,
    used_line_index,
)


def product_poly(lines, constant=1):
    p = Poly.constant(constant)
    for l in lines:
        p = multiply_line(p, l)
    return p


class TestCandidateLines:
    def test_triangle(self, triangle):
        assert len(candidate_lines(triangle)) == 3

    def test_collinear(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        assert candidate_lines(xs) == {Line(1, -1, 0)}

    def test_principal5_matches_pair_enumeration_oracle(self, principal5):
        got = candidate_lines(principal5)
        assert len(got) == len(distinct_pair_lines(principal5.nodes))

    def test_incidence_covers_all_pairs(self, cy2):
        incidence = line_incidence(cy2)
        for i in range(len(cy2)):
            for j in range(i + 1, len(cy2)):
                l = line_through(cy2.nodes[i], cy2.nodes[j])
                assert i in incidence[l] and j in incidence[l]

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            candidate_lines(NodeSet(0, (Point(0, 0),)))


class TestFactorIntoLines:
    def test_two_line_product(self):
        p = product_poly([Line(1, -1, 0), Line(1, 1, -1)], constant=2)
        factors, const = factor_into_lines(p, {Line(1, -1, 0), Line(1, 1, -1), Line(1, 0, 0)})
        assert sorted(factors) == sorted((Line(1, -1, 0), Line(1, 1, -1)))
        assert const == 2

    def test_irreducible_conic_fails(self):
        conic = Poly.from_coeff_dict({(2, 0): 1, (0, 2): 1, (0, 0): -1}, 2)
        with pytest.raises(NotProductOfCandidateLines):
            factor_into_lines(conic, {Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)})

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            factor_into_lines(Poly.zero(2), {Line(1, 0, 0)})

    def test_repeated_factor_multiset(self):
        p = product_poly([Line(1, 0, 0), Line(1, 0, 0)], constant=3)
        factors, const = factor_into_lines(p, {Line(1, 0, 0), Line(0, 1, 0)})
        assert factors == (Line(1, 0, 0), Line(1, 0, 0)) and const == 3

    def test_fallback_trial_division_with_no_zero_information(self):
        # the algebraic oracle's incidence-guided engine must still factor
        # when no zero nodes are known: every step then goes through
        # exhaustive trial division
        from oracles import _factor_zero_cover

        lines = [Line(1, -1, 0), Line(1, 1, -1)]
        p = product_poly(lines + [lines[0]], constant=-5)  # squared factor too
        cands = [(l, frozenset()) for l in sorted({*lines, Line(0, 1, -3)})]
        factors, const = _factor_zero_cover(p, cands, set())
        assert sorted(factors) == sorted(lines + [lines[0]])
        assert const == -5

    def test_chung_yao_fundamental_factors(self, cy2, cy2_cert):
        # construction oracle: the fundamental of each node is, up to scale,
        # the product of the generating lines avoiding that node
        for k, node in enumerate(cy2.nodes):
            avoiding = [l for l in CY2_LINES if l.at(node) != 0]
            assert len(avoiding) == 2
            fund = all_fundamentals(cy2)[k].poly
            factors, const = factor_into_lines(fund, candidate_lines(cy2))
            assert sorted(factors) == sorted(avoiding)
            assert product_poly(factors, const) == fund


class TestCertifyGC:
    def test_chung_yao_uses_avoiding_lines(self, cy2, cy2_cert):
        for entry in cy2_cert.entries:
            node = cy2.nodes[entry.node_index]
            expected = sorted(l for l in CY2_LINES if l.at(node) != 0)
            assert sorted(entry.lines) == expected

    def test_principal_lattice_certifies(self, principal5_cert):
        assert len(principal5_cert.entries) == 21
        for entry in principal5_cert.entries:
            assert len(entry.lines) == 5

    def test_natural_lattice_degree_six(self):
        from gcnlab import GeneratorSpec, generate_with_certificate

        xs, cert = generate_with_certificate(GeneratorSpec("chung_yao", 6, seed=60))
        assert len(xs) == 28
        for entry in cert.entries:
            assert len(entry.lines) == 6

    def test_soundness_rechecked_externally(self, cy5_pair):
        xs, cert = cy5_pair
        for entry in cert.entries:
            for j, node in enumerate(xs.nodes):
                value = entry.constant * prod(l.at(node) for l in entry.lines)
                assert value == (1 if j == entry.node_index else 0)

    def test_witnesses_are_nonvanishing_cofactor_nodes(self, cy5_pair):
        xs, cert = cy5_pair
        incidence = line_incidence(xs)
        for entry in cert.entries:
            for line, witness in entry.witnesses.items():
                assert len(witness) >= 2
                others = list(entry.lines)
                others.remove(line)
                for j in witness:
                    assert j in incidence[line]
                    value = entry.constant * prod(o.at(xs.nodes[j]) for o in others)
                    assert value != 0

    def test_not_poised_rejected(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        with pytest.raises(NotPoised):
            certify_gc(xs)

    def test_poised_non_gc_perturbation(self):
        # a natural-lattice GC_2 set with one node moved generically: still
        # poised, but certification must fail with a node witness
        nodes = (
            Point(0, 0),
            Point(0, 1),
            Point(0, 4),
            Point(1, 0),
            Point(2, 0),
            Point(Fraction(22, 7), Fraction(-21, 11)),
        )
        xs = NodeSet(2, nodes)
        assert is_poised(xs)
        with pytest.raises(NotGC) as excinfo:
            certify_gc(xs)
        assert excinfo.value.node_index is not None
        # the witness's fundamental really does keep a nonlinear residual
        k = excinfo.value.node_index
        fund = all_fundamentals(xs)[k].poly
        with pytest.raises(NotProductOfCandidateLines) as fail:
            factor_into_lines(fund, candidate_lines(xs))
        assert fail.value.residual_degree >= 1

    def test_degree_zero_trivial(self):
        xs = NodeSet(0, (Point(1, 2),))
        cert = certify_gc(xs)
        assert cert.entries[0].lines == () and cert.entries[0].constant == 1


class TestUsedLines:
    def test_degree_one_complement(self, triangle):
        cert = certify_gc(triangle)
        # each node uses exactly the opposite side of the triangle
        for k, node in enumerate(triangle.nodes):
            (used,) = used_lines_of(cert, k)
            assert used.at(node) != 0
            for j, other in enumerate(triangle.nodes):
                if j != k:
                    assert used.at(other) == 0

    def test_degree_five_complement_size(self, cy5_pair):
        xs, cert = cy5_pair
        for k in range(len(xs)):
            assert len(used_lines_of(cert, k)) == 5

    def test_usage_is_symmetric_with_index(self, cy2_cert):
        index = used_line_index(cy2_cert)
        for entry in cy2_cert.entries:
            for line in entry.lines:
                assert entry.node_index in index.users_of(line)
        for line, users in index.users.items():
            for k in users:
                assert line in used_lines_of(cy2_cert, k)


class TestCandidateCompleteness:
    def test_single_node_lines_never_divide(self, cy2):
        # exhaustive check against a family of lines through exactly one
        # node: none may divide any fundamental polynomial
        funds = all_fundamentals(cy2)
        slopes = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), None)
        for j, node in enumerate(cy2.nodes):
            for slope in slopes:
                if slope is None:
                    line = Line.from_rationals(1, 0, -node.x)
                else:
                    line = Line.from_rationals(slope, -1, node.y - slope * node.x)
                if sum(1 for p in cy2.nodes if line.at(p) == 0) != 1:
                    continue
                for sol in funds:
                    with pytest.raises(NotDivisible):
                        divide_by_line(sol.poly, line)


# --- differential tests against the algebraic certifier -----------------------

GENERATED = [
    (kind, degree, seed)
    for degree in range(1, 6)
    for kind in DEFAULT_KINDS
    for seed in ((0,) if kind == "principal" else (1, 2))
]


def outcome(certify, xs):
    """What a certifier says about a set, in comparable form."""
    try:
        cert = certify(xs)
    except GCNLabError as exc:
        return type(exc), getattr(exc, "node_index", None), str(exc)
    return [(e.node_index, e.lines, e.constant, list(e.witnesses.items())) for e in cert.entries]


def assert_agrees_with_oracle(xs):
    got = outcome(certify_gc, xs)
    assert got == outcome(certify_gc_algebraic, xs)
    return got


def replaced(xs, i, point):
    nodes = list(xs.nodes)
    nodes[i] = point
    return NodeSet(xs.degree, tuple(nodes))


def point_on(line, t):
    """The point of ``line`` with x = t, or with y = t when it is vertical."""
    if line.b == 0:
        return Point(Fraction(-line.c, line.a), t)
    return Point(t, -(line.a * t + line.c) / Fraction(line.b))


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


class TestAgainstAlgebraicOracle:
    @pytest.mark.parametrize("kind,degree,seed", GENERATED)
    def test_generated_sets(self, kind, degree, seed):
        xs = generate(GeneratorSpec(kind, degree, seed=seed))
        assert isinstance(assert_agrees_with_oracle(xs), list)
        assert list(line_incidence(xs).items()) == list(line_incidence_pairs(xs).items())

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_one_node_moved(self, degree):
        rng = SplitMix64(degree)
        outcomes = set()
        for kind in DEFAULT_KINDS:
            xs = generate(GeneratorSpec(kind, degree, seed=7))
            for _ in range(4):
                i = rng.randint(0, len(xs) - 1)
                p = Point(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                          Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
                if xs.index(p) is None:
                    moved = replaced(xs, i, p)
                    got = assert_agrees_with_oracle(moved)
                    outcomes.add(got[0] if isinstance(got, tuple) else "GC")
                    assert list(line_incidence(moved).items()) == list(
                        line_incidence_pairs(moved).items()
                    )
        assert NotGC in outcomes

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_node_snapped_onto_a_line(self, kind, degree):
        # moving a node onto a maximal line puts degree + 2 nodes on it, so
        # the set is not poised; onto a two-node line it usually stays poised
        xs = generate(GeneratorSpec(kind, degree, seed=3))
        incidence = line_incidence(xs)
        maximal = min(l for l, ids in incidence.items() if len(ids) == degree + 1)
        short = min(l for l, ids in incidence.items() if len(ids) == 2)
        for line, t in ((maximal, Fraction(97, 13)), (short, Fraction(-89, 11))):
            i = min(j for j in range(len(xs)) if j not in incidence[line])
            snapped = replaced(xs, i, point_on(line, t))
            got = assert_agrees_with_oracle(snapped)
            if line == maximal:
                assert got[0] is NotPoised
                assert len(line_incidence(snapped)[line]) == degree + 2

    def test_wrong_node_count_and_degree_zero(self):
        too_few = NodeSet(2, (Point(0, 0), Point(1, 0), Point(0, 1)))
        too_many = NodeSet(1, (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)))
        assert assert_agrees_with_oracle(too_few)[0] is NotPoised
        assert assert_agrees_with_oracle(too_many)[0] is NotPoised
        only = assert_agrees_with_oracle(NodeSet(0, (Point(Fraction(1, 3), 2),)))
        assert only == [(0, (), Fraction(1), [])]

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(DEFAULT_KINDS),
        degree=st.integers(2, 3),
        seed=st.integers(0, 20),
        data=st.data(),
    )
    def test_property_moved_node(self, kind, degree, seed, data):
        xs = generate(GeneratorSpec(kind, degree, seed=seed))
        i = data.draw(st.integers(0, len(xs) - 1))
        p = Point(data.draw(small_rationals), data.draw(small_rationals))
        assume(xs.index(p) is None)
        assert_agrees_with_oracle(replaced(xs, i, p))

    @settings(max_examples=30, deadline=None)
    @given(
        degree=st.integers(2, 3),
        data=st.data(),
    )
    def test_property_grid_sets(self, degree, data):
        # small grids force many collinear triples: GC, poised-not-GC and
        # non-poised sets all come up
        cells = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        size = (degree + 1) * (degree + 2) // 2
        points = data.draw(st.lists(cells, min_size=size, max_size=size, unique=True))
        xs = NodeSet(degree, tuple(Point(x, y) for x, y in points))
        assert_agrees_with_oracle(xs)


class TestIncidenceIndex:
    def test_certificate_carries_index_and_load_rebuilds_it(self, cy3_pair):
        xs, cert = cy3_pair
        assert {"scale", "coords"} <= set(vars(cert.nodeset))
        loaded = load_certificate(save_certificate(cert))
        # the document holds no index; verifying the load built a new one
        assert loaded == cert and loaded.nodeset is not cert.nodeset
        assert index_of(loaded.nodeset) == index_of(cert.nodeset)
        assert "keys" not in vars(loaded.nodeset)
        assert line_incidence(loaded.nodeset) == line_incidence(cert.nodeset)
        assert save_certificate(loaded) == save_certificate(cert)

    def test_node_set_keeps_one_index(self):
        generated = generate(GeneratorSpec("chung_yao", 2, seed=4))
        xs = NodeSet(2, generated.nodes)
        # built by the constructor, before anything reads it
        assert {"scale", "coords"} <= set(vars(xs)) and "keys" not in vars(xs)
        assert xs.keys is xs.keys
        assert index_of(xs) == index_of(NodeSet(2, xs.nodes)) == index_of(generated)
        assert len(xs) == len(xs.coords) == 6

    def test_certify_leaves_its_index_on_the_set(self, built_indexes):
        points = generate(GeneratorSpec("chung_yao", 4, seed=9)).nodes
        built_indexes.clear()
        xs = NodeSet(4, points)
        assert len(built_indexes) == 1 and built_indexes[0] is xs
        cert = certify_gc(xs)
        keys = xs.keys
        assert maximal_lines(xs) == {line for line, _ in xs.maximal}
        gm_report_from_certificate(cert)
        line_incidence(xs)
        greedy_mdseq(cert, 0)
        fixed_first_mdseq(cert, 0, cert.lines[cert.covers[0][0]])
        enumerate_mdseqs(cert, 0)
        assert certify_gc(xs) == cert
        assert len(built_indexes) == 1
        assert xs.keys is keys

    def test_values_scale_line_evaluation(self, cy3_pair):
        xs, cert = cy3_pair
        index = cert.nodeset
        for line, ids in line_incidence(xs).items():
            values = index.values(line)
            assert [Fraction(v, index.scale) for v in values] == [line.at(p) for p in xs.nodes]
            assert ids == tuple(j for j, v in enumerate(values) if v == 0)

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_line_keys_round_trip_in_pair_order(self, kind, degree):
        xs = generate(GeneratorSpec(kind, degree, seed=degree))
        index = NodeSet(degree, xs.nodes)
        lines = line_incidence(xs)
        assert list(lines) == list(line_incidence_pairs(xs))
        assert list(lines) == [index.line(key) for key in index.keys]
        assert list(lines.values()) == [_bits(mask) for mask in index.keys.values()]
        for line, mask in zip(lines, index.keys.values()):
            assert index.zero_mask(line) == mask


def assert_keys_match_pairs(xs):
    """``xs.keys`` holds the lines of the pair oracle, in its order, each with its nodes."""
    pairs = line_incidence_pairs(xs)
    assert [xs.line(key) for key in xs.keys] == list(pairs)
    assert [_bits(mask) for mask in xs.keys.values()] == list(pairs.values())


GRID_4X4 = tuple(Point(i, j) for i in range(4) for j in range(4))


class TestIndexOnCollinearSets:
    """The index against the pair oracle on sets where many lines hold three or more nodes."""

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_principal_lattice(self, degree):
        xs = NodeSet(degree, gen_principal(degree).nodes)
        assert max(mask.bit_count() for mask in xs.keys.values()) == degree + 1
        assert_keys_match_pairs(xs)

    @pytest.mark.parametrize("size", [6, 10])
    def test_grid_subsets(self, size):
        # every 97th subset in lexicographic order: a fixed sample of 83
        for chosen in list(combinations(range(16), size))[::97]:
            assert_keys_match_pairs(NodeSet(1, tuple(GRID_4X4[i] for i in chosen)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=12, unique=True))
    def test_small_integer_sets(self, points):
        assert_keys_match_pairs(NodeSet(1, tuple(Point(x, y) for x, y in points)))


class TestCoverSearch:
    def test_branches_when_forcing_stalls(self):
        # with r = 2 no two-node line is forced, so the search branches on
        # node 0 and then forces the line left over
        lines = [(2, 0b0011, "a"), (2, 0b1100, "b"), (2, 0b0101, "c"), (2, 0b1010, "d")]
        assert _cover(0b1111, lines, 2, 0b10000) == (["a", "b"], 0b1111)
        # lines through the avoided node are never chosen
        assert _cover(0b1111, lines, 2, 0b0001)[0] is None

    def test_branching_set_agrees_with_oracle(self, monkeypatch):
        # a poised set on a 5 x 5 grid where forcing stalls before the
        # search gives up on a node
        pts = (
            (-2, 0), (-2, 1), (1, 0), (-1, -2), (-1, 1),
            (0, -2), (2, -2), (1, -2), (2, -1), (0, 0),
        )
        xs = NodeSet(3, tuple(Point(x, y) for x, y in pts))
        calls = []
        cover = certification._cover
        monkeypatch.setattr(
            certification, "_cover", lambda *args: calls.append(args[2]) or cover(*args)
        )
        got = assert_agrees_with_oracle(xs)
        assert got[0] is NotGC
        assert any(r < xs.degree for r in calls)  # a recursive call

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_not_gc_names_the_uncovered_nodes(self, kind, degree):
        xs = generate(GeneratorSpec(kind, degree, seed=7))
        moved = replaced(xs, 0, Point(Fraction(1234, 977), Fraction(-4321, 1013)))
        with pytest.raises(NotGC) as excinfo:
            certify_gc(moved)
        exc = excinfo.value
        k = exc.node_index
        assert str(exc) == f"fundamental polynomial of node {k} is not a product of node-pair lines"
        # recount the forcing from the pair incidence of the oracle
        left, r = set(range(len(moved))) - {k}, degree
        while True:
            forced = [
                set(ids)
                for ids in line_incidence_pairs(moved).values()
                if k not in ids and len(left.intersection(ids)) > r
            ]
            if not forced or len(forced) > r:
                break
            left -= set().union(*forced)
            r -= len(forced)
        assert exc.uncovered == tuple(sorted(left))
        assert k not in exc.uncovered and 0 in exc.uncovered


class TestZeroMaskRecheck:
    @pytest.mark.parametrize("through_node", [False, True])
    def test_wrong_cover_line_is_caught(self, monkeypatch, cy3_pair, through_node):
        xs, _ = cy3_pair
        cover = certification._cover

        def wrong(uncovered, lines, r, avoid):
            keys, left = cover(uncovered, lines, r, avoid)
            # another line avoiding the node leaves a witness of the first
            # factor uncovered; a line through the node zeroes the product there
            spare = next(
                key
                for _, mask, key in lines
                if bool(mask & avoid) == through_node and key not in keys
            )
            return [spare] + keys[1:], left

        monkeypatch.setattr(certification, "_cover", wrong)
        with pytest.raises(InvalidCertificate) as excinfo:
            certify_gc(xs)
        assert excinfo.value.node_index == 0
        message = str(excinfo.value)
        assert message.startswith("node 0: zero mask: the product of its lines ")
        if through_node:
            assert message.endswith(" vanishes at node 0")
        else:
            assert "does not vanish at node " in message


# --- verification of certificates built anywhere ------------------------------


def with_cover(cert, k, cover, *extra):
    """The table ``(nodeset, lines, covers)`` of ``cert``, with the ``extra`` lines added
    and node ``k`` covered by those at ``cover``."""
    covers = cert.covers[:k] + (cover,) + cert.covers[k + 1 :]
    return cert.nodeset, cert.lines + extra, covers


def one_node_line(xs, k):
    """A line through exactly one node of ``xs``, and not through node ``k``."""
    node = xs.nodes[(k + 1) % len(xs)]
    for slope in range(1, 100):
        line = Line.from_rationals(slope, -1, node.y - slope * node.x)
        if sum(line.at(p) == 0 for p in xs.nodes) == 1:
            return line
    raise AssertionError("no line through one node")


def document(table, cert):
    """The saved document of ``cert`` with the lines of cover table ``table``.

    Its constants and witnesses stay ``cert``'s, so only the cover can be
    at fault.
    """
    _, lines, covers = table
    doc = json.loads(save_certificate(cert))
    doc["entries"] = doc["entries"][: len(covers)]
    for entry, cover in zip(doc["entries"], covers):
        entry["lines"] = [list(lines[f].coefficients) for f in cover]
    return json.dumps(doc)


def drop_first_witness(doc, k):
    witnesses = doc["entries"][k]["witnesses"]
    first = next(iter(witnesses))
    witnesses[first] = witnesses[first][:-1]


def swap_entries(doc, i, j):
    entries = doc["entries"]
    entries[i], entries[j] = entries[j], entries[i]


#: name: (corruption of a valid cover table, reason, node index)
COVER_FAULTS = {
    # the nodes only the dropped line held are left: n distinct lines are needed
    "repeated-line": (
        lambda c: with_cover(c, 0, c.covers[0][:1] * 2 + c.covers[0][2:]), "zero mask", 0
    ),
    "extra-line": (lambda c: with_cover(c, 3, c.covers[3] + c.covers[4][:1]), "line count", 3),
    "missing-entry": (lambda c: (c.nodeset, c.lines, c.covers[:-1]), "count", None),
    "line-through-one-node": (
        lambda c: with_cover(c, 0, (len(c.lines),) + c.covers[0][1:], one_node_line(c.nodeset, 0)),
        "zero mask",
        0,
    ),
}

#: name: (edit of a valid saved document, in place, reason, node index)
ENTRY_FAULTS = {
    "wrong-constant": (
        lambda d: d["entries"][2].update(constant=str(2 * Fraction(d["entries"][2]["constant"]))),
        "constant",
        2,
    ),
    "swapped-lines": (
        lambda d: d["entries"][1].update(lines=d["entries"][1]["lines"][::-1]), "line order", 1
    ),
    "missing-witness": (lambda d: drop_first_witness(d, 3), "witnesses", 3),
    "permuted-entries": (lambda d: swap_entries(d, 4, 5), "order", 4),
}

#: Cover faults are refused by the GCCertificate constructor, which runs
#: verify_certificate, and by the loader; entry faults exist only in a document.
FAULTS = [
    pytest.param(name, check, id=f"{name}-{check}")
    for name in sorted(COVER_FAULTS.keys() | ENTRY_FAULTS.keys())
    for check in (("verify", "load") if name in COVER_FAULTS else ("load",))
]


def load_saved(cert):
    return load_certificate(save_certificate(cert))


class TestVerifyCertificate:
    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_every_generated_certificate_passes(self, kind):
        for degree in range(1, 13):
            _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            assert verify_certificate(cert) is None
            assert load_saved(cert) == cert

    @pytest.mark.parametrize("name, check", FAULTS)
    def test_corruption_is_rejected_with_its_reason(self, cy3_pair, name, check):
        _, cert = cy3_pair
        if name in COVER_FAULTS:
            corrupt, reason, k = COVER_FAULTS[name]
            table = corrupt(cert)
            assert table != (cert.nodeset, cert.lines, cert.covers)
            text = document(table, cert)
        else:
            edit, reason, k = ENTRY_FAULTS[name]
            doc = json.loads(save_certificate(cert))
            edit(doc)
            assert doc != json.loads(save_certificate(cert))
            text = json.dumps(doc)
        with pytest.raises(InvalidCertificate) as excinfo:
            if check == "verify":
                GCCertificate(*table)
            else:
                load_certificate(text)
        assert excinfo.value.node_index == k
        prefix = f"{reason}: " if k is None else f"node {k}: {reason}: "
        assert str(excinfo.value).startswith(prefix)

    def test_a_repeated_line_has_no_witness(self):
        # five collinear nodes and one off the line: the doubled line holds
        # every node but node 0, so only the witness rule rejects it
        xs = NodeSet(2, (Point(0, 1),) + tuple(Point(t, 0) for t in range(5)))
        message = r"^node 0: witnesses: factor Line\(0, 1, 0\) has 0, not at least two$"
        with pytest.raises(InvalidCertificate, match=message):
            GCCertificate(xs, (Line(0, 1, 0),), ((0, 0),) * 6)

    def test_node_set_of_the_wrong_size(self, triangle):
        cert = certify_gc(triangle)
        bigger = NodeSet(1, triangle.nodes + (Point(5, 7),))
        with pytest.raises(InvalidCertificate, match="^count: 3 entries for 4 nodes") as excinfo:
            GCCertificate(bigger, cert.lines, cert.covers)
        assert excinfo.value.node_index is None

    def test_degree_zero(self):
        assert verify_certificate(certify_gc(NodeSet(0, (Point(3, 4),)))) is None

    def test_the_rule_runs_once_per_construction(self, cy3_pair, monkeypatch):
        # loading, copying and unpickling each build one certificate, and
        # reading its entries trusts the table
        _, cert = cy3_pair
        text = save_certificate(cert)
        calls = []
        rule = certification.verify_certificate

        def spy(table):
            calls.append(table)
            rule(table)

        monkeypatch.setattr(certification, "verify_certificate", spy)
        loaded = load_certificate(text)
        assert len(calls) == 1 and calls[0] is loaded
        assert save_certificate(loaded) == text and len(calls) == 1
        for rebuild in (copy.copy, lambda c: pickle.loads(pickle.dumps(c))):
            rebuilt = rebuild(cert)
            assert rebuilt == cert and calls[-1] is rebuilt
        assert len(calls) == 3

    def test_an_entry_is_the_value_its_fields_build(self, cy3_pair):
        # an entry of the table and an entry built from its fields keep the
        # constant the same way, so they compare, copy and print alike
        _, cert = cy3_pair
        for entry in cert.entries:
            built = NodeCertificate(entry.node_index, entry.constant, entry.lines, entry.witnesses)
            assert type(entry.constant) is Fraction
            assert built == entry and repr(built) == repr(entry)
            assert pickle.loads(pickle.dumps(entry)) == entry == copy.copy(built)

    def test_lines_in_any_order_and_repeated(self, cy3_pair):
        _, cert = cy3_pair
        lines = list(cert.lines[::-1])
        covers = [[len(lines) - 1 - f for f in cover] for cover in cert.covers]
        assert GCCertificate(cert.nodeset, lines, covers) == cert
        # a second copy of a line, used by one node, is the same line
        k = next(k for k, cover in enumerate(covers) if 0 in cover)
        covers[k] = [len(lines) if i == 0 else i for i in covers[k]]
        assert GCCertificate(cert.nodeset, lines + lines[:1], covers) == cert

    @pytest.mark.parametrize("position", (-1, 6, 7))
    def test_a_cover_position_outside_the_lines(self, position):
        # a negative position used to wrap to another line, and one past the
        # end to raise IndexError
        cert = generators._principal_certified(2)
        assert len(cert.lines) == 6
        table = with_cover(cert, 1, (position,) + cert.covers[1][1:])
        message = rf"^node 1: position: {position} is not one of 6 positions$"
        with pytest.raises(InvalidCertificate, match=message) as excinfo:
            GCCertificate(*table)
        assert excinfo.value.node_index == 1


class TestConstructorOrder:
    """The constructor keeps a table in canonical order and sorts any other."""

    tables = st.builds(
        lambda *spec: generate_with_certificate(GeneratorSpec(*spec))[1],
        st.sampled_from(DEFAULT_KINDS),
        st.integers(1, 6),
        st.integers(0, 2**64 - 1),
    )

    @settings(max_examples=40, deadline=None)
    @given(cert=tables, data=st.data())
    def test_permuted_and_repeated_lines_give_an_equal_certificate(self, cert, data):
        m = len(cert.lines)
        # lines[new[f]] is cert.lines[f]
        new = data.draw(st.permutations(range(m)))
        lines = [None] * m
        for f, g in enumerate(new):
            lines[g] = cert.lines[f]
        covers = [data.draw(st.permutations([new[f] for f in cover])) for cover in cert.covers]
        self.assert_one_table(cert, lines, covers)
        # a second copy of a line, used in place of the first by one node
        f = data.draw(st.integers(0, m - 1))
        k = next(k for k, cover in enumerate(cert.covers) if f in cover)
        covers[k] = [m if i == new[f] else i for i in covers[k]]
        self.assert_one_table(cert, lines + [cert.lines[f]], covers)

    @staticmethod
    def assert_one_table(cert, lines, covers):
        """The table is stored as ``cert``'s, from Line objects and from their triples alike."""
        by_lines = GCCertificate(cert.nodeset, lines, covers)
        by_triples = GCCertificate._of_triples(cert.nodeset, [l._values() for l in lines], covers)
        assert by_lines == by_triples == cert
        for got in (by_lines, by_triples):
            assert (got.triples, got.covers, got.masks) == (cert.triples, cert.covers, cert.masks)

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_masks_are_stored_and_lines_built_when_read(self, kind):
        for degree in range(1, 7):
            _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            built = {
                "of_triples": GCCertificate._of_triples(cert.nodeset, cert.triples, cert.covers),
                "constructor": GCCertificate(cert.nodeset, list(cert.lines), cert.covers),
                "copy": copy.copy(cert),
                "pickle": pickle.loads(pickle.dumps(cert)),
            }
            for how, got in built.items():
                assert "masks" in got.__dict__ and "lines" not in got.__dict__, how
                assert got.masks == cert.masks
                assert got.lines == cert.lines and "lines" in got.__dict__, how
            # the loader checks the file's entries against the table's
            # derivation in integers, so it builds neither lines nor entries
            loaded = load_saved(cert)
            assert "masks" in loaded.__dict__ and loaded.masks == cert.masks
            assert "entries" not in loaded.__dict__ and "lines" not in loaded.__dict__
            # the entries read their lines off the one view
            for entry, cover in zip(loaded.entries, loaded.covers):
                assert all(a is loaded.lines[f] for a, f in zip(entry.lines, cover))

    @settings(max_examples=40, deadline=None)
    @given(cert=tables)
    def test_a_canonical_table_is_stored_as_given(self, cert):
        # a sorted table holds new cover tuples; a canonical one the very tuples handed in
        again = GCCertificate(cert.nodeset, list(cert.lines), cert.covers)
        assert all(a is b for a, b in zip(again.covers, cert.covers))
        assert again == cert
        assert again.lines == cert.lines
        by_triples = GCCertificate._of_triples(cert.nodeset, cert.triples, cert.covers)
        assert by_triples.triples is cert.triples
        assert all(a is b for a, b in zip(by_triples.covers, cert.covers))

    @settings(max_examples=40, deadline=None)
    @given(cert=tables, data=st.data())
    def test_a_repeated_position_fails_at_its_node(self, cert, data):
        # n distinct lines with one dropped leave its witnesses uncovered
        assume(cert.degree >= 2)
        k = data.draw(st.integers(0, len(cert.covers) - 1))
        i = data.draw(st.integers(1, cert.degree - 1))
        cover = cert.covers[k]
        table = with_cover(cert, k, cover[:i] + cover[i - 1 : i] + cover[i + 1 :])
        with pytest.raises(InvalidCertificate, match=rf"^node {k}: zero mask: ") as excinfo:
            GCCertificate(*table)
        assert excinfo.value.node_index == k

    @pytest.mark.parametrize("degree", range(3, 7))
    def test_a_repeated_position_in_an_ordered_table_has_no_witness(self, degree):
        # test_a_repeated_line_has_no_witness at higher degrees: every node
        # but node 0 on one line, repeated n times in each cover, covers node
        # 0's complement, so only the witness rule rejects the table
        xs = NodeSet(degree, (Point(0, 1),) + tuple(Point(t, 0) for t in range(dim_pi(degree) - 1)))
        message = r"^node 0: witnesses: factor Line\(0, 1, 0\) has 0, not at least two$"
        with pytest.raises(InvalidCertificate, match=message):
            GCCertificate(xs, (Line(0, 1, 0),), ((0,) * degree,) * len(xs))

    @settings(max_examples=40, deadline=None)
    @given(cert=tables, data=st.data())
    def test_a_position_outside_an_ordered_table(self, cert, data):
        k = data.draw(st.integers(0, len(cert.covers) - 1))
        cover = cert.covers[k]
        m = len(cert.lines)
        position = data.draw(st.sampled_from((-1, m, m + 5)))
        changed = (position,) + cover[1:] if position < 0 else cover[:-1] + (position,)
        message = rf"^node {k}: position: {position} is not one of {m} positions$"
        with pytest.raises(InvalidCertificate, match=message) as excinfo:
            GCCertificate(*with_cover(cert, k, changed))
        assert excinfo.value.node_index == k

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_natural_lattices_are_built_in_canonical_order(self, degree):
        for seed in range(3):
            scaled = generators._chung_yao_scaled(degree, seed, 8)
            _, _, lines, covers = scaled
            assert lines == sorted(lines) and len(set(lines)) == len(lines)
            assert all(list(cover) == sorted(set(cover)) for cover in covers)
            assert all(0 <= i < len(lines) for cover in covers for i in cover)
            cert = generators._certified(degree, scaled)
            # stored as given: the very cover tuples, not sorted copies
            assert len(cert.covers) == len(covers)
            assert all(a is b for a, b in zip(cert.covers, covers))
            assert cert.triples == tuple(lines)
            assert cert == generate_with_certificate(GeneratorSpec("chung_yao", degree, seed=seed))[1]


# --- the one-pass rule against the prefix-and-suffix reference ----------------


def rule_verdict(degree, count, lines, masks, covers):
    """``verify_certificate``'s message and node on a table of zero masks, or (None, None)."""
    nodeset = SimpleNamespace(degree=degree, coords=(None,) * count)
    table = SimpleNamespace(nodeset=nodeset, lines=lines, masks=masks, covers=covers)
    try:
        verify_certificate(table)
    except InvalidCertificate as exc:
        return str(exc), exc.node_index
    return None, None


def base_tables():
    """Valid cover tables of small generated sets, as (degree, count, lines, masks, covers)."""
    tables = []
    for kind in DEFAULT_KINDS:
        for degree in range(1, 5):
            for seed in range(2):
                _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))
                tables.append((degree, len(cert.nodeset), cert.lines, list(cert.masks),
                               [list(cover) for cover in cert.covers]))
    return tables


BASES = base_tables()


@st.composite
def mask_tables(draw):
    """A base table with up to four edits, or a random one.

    The edits repeat a position in a cover, point it at another line, flip
    a node of a mask (a wrong union, or a factor left one witness), OR one
    mask into another (factors with no private node) or change a cover's
    length.  A random table may also miscount its nodes.
    """
    if draw(st.booleans()):
        degree = draw(st.integers(0, 3))
        size = (degree + 1) * (degree + 2) // 2
        m = draw(st.integers(1, 6))
        lines = [Line(1, 0, -f) for f in range(m)]
        masks = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=m, max_size=m))
        covers = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=degree, max_size=degree),
                               min_size=size, max_size=size))
        count = draw(st.sampled_from((size, size, size, size + 1)))
        return degree, count, lines, masks, covers
    degree, count, lines, masks, covers = draw(st.sampled_from(BASES))
    masks, covers = list(masks), [list(cover) for cover in covers]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("repeat", "point", "flip", "merge", "length")))
        k = draw(st.integers(0, count - 1))
        f = draw(st.integers(0, len(lines) - 1))
        g = draw(st.integers(0, len(lines) - 1))
        cover = covers[k]
        i = draw(st.integers(0, max(len(cover) - 1, 0)))
        if edit == "flip":
            masks[f] ^= 1 << k
        elif edit == "merge":
            masks[f] |= masks[g]
        elif edit == "length" and draw(st.booleans()):
            cover.append(f)
        elif not cover:
            continue
        elif edit == "repeat":
            cover[i] = cover[(i + 1) % len(cover)]
        elif edit == "point":
            cover[i] = f
        else:
            cover.pop()
    return degree, count, lines, masks, covers


class TestOnePassRule:
    @settings(max_examples=400, deadline=None)
    @given(table=mask_tables())
    def test_agrees_with_prefix_and_suffix_ors(self, table):
        assert rule_verdict(*table) == certificate_fault_private(*table)

    def test_every_reason_is_reached(self):
        # every single edit of one base table: repeated positions, wrong
        # unions and factors with fewer than two witnesses all occur
        degree, count, lines, masks, covers = next(t for t in BASES if t[0] == 3)
        reasons = set()
        edits = []
        for f in range(len(lines)):
            for j in range(count):
                edits.append(([*masks[:f], masks[f] ^ 1 << j, *masks[f + 1 :]], covers))
            for g in range(len(lines)):
                edits.append(([*masks[:f], masks[f] | masks[g], *masks[f + 1 :]], covers))
        for k in range(count):
            for i in range(degree):
                for f in range(len(lines)):
                    cover = covers[k][:i] + [f] + covers[k][i + 1 :]
                    edits.append((masks, covers[:k] + [cover] + covers[k + 1 :]))
            edits.append((masks, covers[:k] + [covers[k][1:]] + covers[k + 1 :]))
        for edited_masks, edited_covers in edits:
            table = (degree, count, lines, edited_masks, edited_covers)
            verdict = rule_verdict(*table)
            assert verdict == certificate_fault_private(*table)
            reasons.add(verdict[0] and verdict[0].split(": ")[1])
        assert reasons == {None, "line count", "zero mask", "witnesses"}
