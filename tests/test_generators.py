"""Seeded generators: construction shape, verification, reproducibility."""

import pickle
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import analysis, certification, generators
from gcnlab.serialization import save_nodeset
from gcnlab import (
    DEFAULT_KINDS,
    DuplicateNode,
    GCCertificate,
    GeneratorSpec,
    InvalidCertificate,
    Line,
    NodeSet,
    Point,
    RetryLimitExceeded,
    certify_gc,
    dim_pi,
    gen_principal,
    generate,
    generate_with_certificate,
    gm_report_from_certificate,
    is_poised,
    line_incidence,
    maximal_lines,
    search_counterexample,
)

from conftest import index_of
from oracles import (
    certify_gc_algebraic,
    chung_yao_fraction,
    chung_yao_nodes_fraction,
    projective_image_fraction,
    projective_image_nodes_fraction,
)


class TestGeneratorSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec("berzolari", 3)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            GeneratorSpec("principal", 0)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            GeneratorSpec("chung_yao", 2, coordinate_bound=0)


class TestChungYao:
    def test_degree_one_triangle(self):
        xs = generate(GeneratorSpec("chung_yao", 1, seed=8))
        assert len(xs) == 3 and is_poised(xs)

    def test_node_count_is_dimension(self):
        for degree, seed in ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4)):
            xs = generate(GeneratorSpec("chung_yao", degree, seed=seed))
            assert len(xs) == dim_pi(degree)

    def test_degree5_has_seven_maximal_lines(self):
        xs = generate(GeneratorSpec("chung_yao", 5, seed=6))
        assert len(xs) == 21
        assert len(maximal_lines(xs)) == 7

    def test_retry_limit_with_starved_bound(self):
        # coefficients in {-1, 0, 1} give only four line directions, so seven
        # pairwise non-parallel lines cannot exist and the budget must trip
        with pytest.raises(RetryLimitExceeded):
            generate(GeneratorSpec("chung_yao", 5, seed=0, coordinate_bound=1))


class TestPrincipal:
    def test_degree_one(self):
        xs = gen_principal(1)
        assert set(xs.nodes) == {Point(0, 0), Point(0, 1), Point(1, 0)}

    def test_degree_two_size(self):
        assert len(gen_principal(2)) == 6

    def test_degree_five_maximal_lines(self, principal5):
        assert maximal_lines(principal5) == {Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)}

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            gen_principal(0)

    def test_lattice_coordinates(self):
        xs = gen_principal(3)
        assert all(
            p.x.denominator in (1, 3) and p.y.denominator in (1, 3) and p.x + p.y <= 1
            for p in xs.nodes
        )


class TestProjectiveImage:
    def test_certified_output(self):
        for seed in (0, 1, 2, 3):
            xs = generate(GeneratorSpec("projective_image", 3, seed=seed))
            assert len(xs) == dim_pi(3)
            certify_gc(xs)  # must not raise

    def test_preserves_maximal_line_count(self):
        # affine images keep incidence structure; principal base keeps 3,
        # natural-lattice base keeps degree + 2
        for seed in range(6):
            xs = generate(GeneratorSpec("projective_image", 2, seed=seed))
            assert len(maximal_lines(xs)) in (3, 4)


class TestDeterminism:
    def test_same_seed_same_nodes(self):
        spec = GeneratorSpec("chung_yao", 4, seed=12345)
        assert generate(spec).nodes == generate(spec).nodes

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("chung_yao", 3, seed=1))
        b = generate(GeneratorSpec("chung_yao", 3, seed=2))
        assert a.nodes != b.nodes

    def test_generation_is_verified(self):
        xs, cert = generate_with_certificate(GeneratorSpec("projective_image", 4, seed=77))
        assert is_poised(xs)
        assert len(cert.entries) == len(xs)


def _principal_points(degree):
    return [
        Point(Fraction(i, degree), Fraction(j, degree))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]


class TestPrincipalMemo:
    def test_certified_once_per_degree(self, cold_cache, monkeypatch):
        def no_search(xs):
            raise AssertionError("a sweep trial searched for a cover")

        monkeypatch.setattr(certification, "certify_gc", no_search)
        monkeypatch.setattr(analysis, "certify_gc", no_search)
        # 6 trials cycle chung_yao, principal, projective_image twice each
        a = search_counterexample(degree=3, trials=6, seed=5)
        b = search_counterexample(degree=3, trials=6, seed=6)
        assert a.all_satisfied and b.all_satisfied
        info = generators._principal_certified.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 3  # the three principal trials after the first

    def test_each_trial_indexes_its_set_once(self, cold_cache, built_indexes):
        # one principal set, then four fresh sets per search; the generators
        # hand each set the index of the integer nodes they built it from
        search_counterexample(degree=3, trials=6, seed=5)
        search_counterexample(degree=3, trials=6, seed=6)
        assert len(built_indexes) == len({id(index) for index in built_indexes}) == 1 + 4 + 4

    def test_cached_certificate_equals_fresh(self, cold_cache):
        for degree in (1, 2, 5):
            cert = generators._principal_certified(degree)
            xs = cert.nodeset
            fresh = certify_gc(NodeSet(degree, _principal_points(degree)))
            assert xs == fresh.nodeset
            assert cert == fresh
            assert list(line_incidence(xs).items()) == list(line_incidence(fresh.nodeset).items())

    def test_gen_principal_and_spec_share_the_entry(self, cold_cache):
        xs = gen_principal(4)
        info = generators._principal_certified.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        ys, cert = generate_with_certificate(GeneratorSpec("principal", 4, seed=9))
        zs, _ = generate_with_certificate(GeneratorSpec("principal", 4, seed=10, coordinate_bound=3))
        assert xs is ys is zs and cert.nodeset is xs
        info = generators._principal_certified.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_principal_image_reads_the_cached_index(self, cold_cache):
        # seed 1 draws the principal base; its nodes come from the memo entry
        spec = GeneratorSpec("projective_image", 3, seed=1)
        assert projective_image_nodes_fraction(3, 1, 8) == generate(spec)
        info = generators._principal_certified.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        generate(spec)
        info = generators._principal_certified.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestConstructedCertificates:
    """Generated certificates are constructed; the cover search is their oracle."""

    @staticmethod
    def searched(xs):
        # a copy of the set, so the search builds its own index
        return certify_gc(NodeSet(xs.degree, xs.nodes))

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_equal_to_the_search(self, kind):
        for degree in range(1, 13):
            for seed in (0, 1, 2, 7, 2024, 7331):
                xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))
                assert cert == self.searched(xs)

    @pytest.mark.parametrize("degree", (20, 30))
    def test_high_degree_natural_lattice_equal_to_the_search(self, degree):
        xs, cert = generate_with_certificate(GeneratorSpec("chung_yao", degree, seed=degree))
        assert cert == self.searched(xs)

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_index_equals_the_one_derived_from_the_nodes(self, kind):
        for degree in range(1, 9):
            for seed in range(4):
                xs = generate(GeneratorSpec(kind, degree, seed=seed))
                assert index_of(xs) == index_of(NodeSet(xs.degree, xs.nodes))

    def test_integer_nodes_keep_the_duplicate_check(self):
        cases = [
            (4, [(0, 0), (2, 0), (0, 0)], [(0, 0), ("1/2", 0), (0, 0)]),
            # reduced by the gcd 2 over the scale 3; the repeated node is not the first
            (6, [(2, 4), (4, 4), (6, 2), (4, 4)],
             [("1/3", "2/3"), ("2/3", "2/3"), (1, "1/3"), ("2/3", "2/3")]),
        ]
        for scale, coords, points in cases:
            with pytest.raises(DuplicateNode) as fraction_path:
                NodeSet(2, [Point(x, y) for x, y in points])
            with pytest.raises(DuplicateNode, match=r"^node Point\(.*\) appears twice$") as raised:
                NodeSet._scaled(2, scale, coords)
            assert str(raised.value) == str(fraction_path.value)

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_generated_set_equals_the_set_of_its_fractions(self, cold_cache, kind):
        # a generated set is held as its index and builds its points when
        # read (the cold cache makes the principal sets fresh too); it
        # equals the set built from Fraction points in every way
        for degree in range(1, 13):
            for seed in range(3):
                xs = generate(GeneratorSpec(kind, degree, seed=seed))
                assert "nodes" not in xs.__dict__ or (kind == "principal" and seed)
                if kind == "principal":
                    points = _principal_points(degree)
                elif kind == "chung_yao":
                    points = chung_yao_nodes_fraction(degree, seed, 8).nodes
                else:
                    points = projective_image_nodes_fraction(degree, seed, 8).nodes
                want = NodeSet(degree, points)
                assert xs == want and want == xs
                assert hash(xs) == hash(want) and repr(xs) == repr(want)
                assert pickle.loads(pickle.dumps(xs)) == want
                assert save_nodeset(xs) == save_nodeset(want)

    def test_search_reads_the_report_and_use_counts_off_the_covers(self, monkeypatch):
        certs = []
        covers = analysis._maximal_covers

        def spy(cert):
            certs.append(cert)
            return covers(cert)

        monkeypatch.setattr(analysis, "_maximal_covers", spy)
        runs = []
        for degree in range(1, 7):
            for seed in (3, 2024):
                start = len(certs)
                summary = search_counterexample(degree=degree, trials=9, seed=seed)
                runs.append((summary, certs[start:]))
        monkeypatch.undo()
        for summary, trials in runs:
            assert len(trials) == summary.certified == 9
            assert summary.gm_satisfied == sum(gm_report_from_certificate(c).satisfied for c in trials)
            want: dict[int, int] = {}
            for cert in trials:
                got = gm_report_from_certificate(cert)
                fresh = self.searched(cert.nodeset)
                index = fresh.nodeset
                assert got == gm_report_from_certificate(fresh)
                assert got.maximal_lines == index.maximal
                uses = Counter(chain.from_iterable(e.lines for e in fresh.entries))
                for line, count in uses.items():
                    node_count = index.zero_mask(line).bit_count()
                    want[node_count] = max(want.get(node_count, 0), count)
            assert summary.use_count_max == want

    def test_sweep_builds_no_line_map(self, cold_cache, monkeypatch):
        certs = []

        def spy(spec):
            xs, cert = generate_with_certificate(spec)
            certs.append(cert)
            return xs, cert

        monkeypatch.setattr(generators, "generate_with_certificate", spy)
        for degree in range(2, 6):
            search_counterexample(degree=degree, trials=12, seed=2024)
        assert len(certs) == 48
        for cert in certs:
            assert not {"keys", "masks", "maximal"} & set(cert.nodeset.__dict__)
            # the set is held as its index: no trial builds its points
            assert "nodes" not in cert.nodeset.__dict__
            # validity needs the zero masks only: no constant or witness is built
            assert "masks" in cert.__dict__ and "entries" not in cert.__dict__
            # the table holds line triples: no trial builds a Line
            assert "lines" not in cert.__dict__

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_certificate_of_triples_is_the_certificate_of_its_lines(self, cold_cache, kind):
        for degree in range(1, 13):
            for seed in range(3):
                _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))
                assert "lines" not in cert.__dict__ or (kind == "principal" and seed)
                want = GCCertificate(cert.nodeset, list(cert.lines), cert.covers)
                assert cert.triples == want.triples == tuple(l._values() for l in want.lines)
                assert (cert.lines, cert.covers, cert.masks) == (want.lines, want.covers, want.masks)
                assert cert.entries == want.entries
                assert cert == want and hash(cert) == hash(want)
                again = pickle.loads(pickle.dumps(cert))
                assert again == want and again.triples == want.triples
                assert again.entries == want.entries

    def test_corrupted_cover_is_an_internal_error(self, monkeypatch):
        scaled = generators._chung_yao_scaled

        def corrupt(*args):
            d, coords, lines, covers = scaled(*args)
            # node 1's cover holds a generating line through node 0
            return d, coords, lines, [covers[1], *covers[1:]]

        monkeypatch.setattr(generators, "_chung_yao_scaled", corrupt)
        with pytest.raises(InvalidCertificate) as excinfo:
            search_counterexample(degree=3, trials=3, seed=1, kinds=["chung_yao"])
        assert excinfo.value.node_index == 0
        assert str(excinfo.value) == "node 0: zero mask: the product of its lines vanishes at node 0"


def _exact(build, *args):
    """Coordinates as (numerator, denominator), in node order, and the sorted lines, or the error."""
    try:
        xs, lines = build(*args)
    except RetryLimitExceeded as exc:
        return "RetryLimitExceeded", str(exc)
    nodes = [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in xs.nodes]
    return nodes, sorted(lines)


def _built(scaled):
    """The node set of an integer construction and its cover lines' triples, without the certificate."""

    def build(degree, seed, bound):
        d, coords, triples, _ = scaled(degree, seed, bound)
        return NodeSet._scaled(degree, d, coords), triples

    return build


def _as_triples(oracle):
    """A Fraction oracle whose cover lines are given as their canonical triples ``Line._values()``."""

    def build(degree, seed, bound):
        xs, lines = oracle(degree, seed, bound)
        return xs, [line._values() for line in lines]

    return build


BUILDERS = (
    (_built(generators._chung_yao_scaled), _as_triples(chung_yao_fraction)),
    (_built(generators._projective_image_scaled), _as_triples(projective_image_fraction)),
)


class TestIntegerBuildersAgainstFraction:
    @pytest.mark.parametrize("bound", (1, 2, 8))
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_same_nodes_in_same_order(self, degree, bound):
        for seed in range(50):
            for build, oracle in BUILDERS:
                assert _exact(build, degree, seed, bound) == _exact(oracle, degree, seed, bound)

    def test_starved_bound_fails_alike(self):
        # bound 1 leaves four line directions, so five general-position lines cannot exist
        starved = (
            "RetryLimitExceeded",
            "no general-position configuration of 5 lines within 512 draws at coordinate bound 1",
        )
        assert _exact(BUILDERS[0][0], 3, 0, 1) == starved
        assert _exact(chung_yao_fraction, 3, 0, 1) == starved
        image = BUILDERS[1][0]
        seeds = [seed for seed in range(20) if _exact(image, 3, seed, 1) == starved]
        assert seeds
        assert all(_exact(projective_image_fraction, 3, seed, 1) == starved for seed in seeds)

    @settings(max_examples=60, deadline=None)
    @given(
        degree=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        bound=st.integers(1, 40),
    )
    def test_property_over_seed_and_bound(self, degree, seed, bound):
        for build, oracle in BUILDERS:
            assert _exact(build, degree, seed, bound) == _exact(oracle, degree, seed, bound)


class TestWitnessOrder:
    @pytest.mark.parametrize("kind", ("chung_yao", "principal", "projective_image"))
    def test_witness_keys_follow_line_order(self, kind):
        for degree in range(1, 7):
            for seed in range(3):
                _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))
                for entry in cert.entries:
                    assert list(entry.witnesses) == list(entry.lines) == sorted(entry.lines)

    @pytest.mark.parametrize("kind", ("chung_yao", "principal", "projective_image"))
    def test_witness_keys_match_algebraic_oracle(self, kind):
        # the entries derived from the cover table against the ones the
        # oracle reads off the exact solve
        for degree in range(1, 9):
            xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            want = certify_gc_algebraic(xs).entries
            assert len(cert.entries) == len(want) == len(xs)
            for got, expected in zip(cert.entries, want):
                assert got.node_index == expected.node_index
                assert got.constant == expected.constant
                assert got.lines == expected.lines
                assert list(got.witnesses.items()) == list(expected.witnesses.items())
