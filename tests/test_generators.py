"""Seeded generators: construction shape, verification, reproducibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import generators
from gcnlab import (
    GeneratorSpec,
    Line,
    Point,
    RetryLimitExceeded,
    certify_gc,
    dim_pi,
    gen_principal,
    generate,
    generate_with_certificate,
    is_poised,
    maximal_lines,
    search_counterexample,
)

from oracles import (
    certify_gc_algebraic,
    chung_yao_nodes_fraction,
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


class TestPrincipalMemo:
    @pytest.fixture
    def cold_cache(self):
        generators._principal_certified.cache_clear()
        yield
        generators._principal_certified.cache_clear()

    def test_certified_once_per_degree(self, cold_cache, monkeypatch):
        calls = []

        def counting_certify(xs):
            calls.append(xs)
            return certify_gc(xs)

        monkeypatch.setattr(generators, "certify_gc", counting_certify)
        # 6 trials cycle chung_yao, principal, projective_image twice each
        a = search_counterexample(degree=3, trials=6, seed=5)
        b = search_counterexample(degree=3, trials=6, seed=6)
        assert a.all_satisfied and b.all_satisfied
        principal = [xs for xs in calls if xs == generators._principal_nodes(3)]
        assert len(principal) == 1
        assert len(calls) == 1 + 4 + 4

    def test_each_trial_indexes_its_set_once(self, cold_cache, monkeypatch):
        from gcnlab.geometry import Incidence

        build = Incidence.of.__func__
        calls = []

        def counting_of(klass, xs):
            calls.append(xs)
            return build(klass, xs)

        monkeypatch.setattr(Incidence, "of", classmethod(counting_of))
        # as above: one principal set, then four fresh sets per search
        search_counterexample(degree=3, trials=6, seed=5)
        search_counterexample(degree=3, trials=6, seed=6)
        assert len(calls) == len({id(xs) for xs in calls}) == 1 + 4 + 4

    def test_cached_certificate_equals_fresh(self, cold_cache):
        for degree in (1, 2, 5):
            xs, cert = generators._principal_certified(degree)
            fresh = certify_gc(generators._principal_nodes(degree))
            assert xs == fresh.nodeset
            assert cert == fresh
            assert cert.nodeset.incidence.masks == fresh.nodeset.incidence.masks
            assert list(cert.nodeset.incidence.masks) == list(fresh.nodeset.incidence.masks)

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


def _exact(build, *args):
    """Every coordinate as (numerator, denominator), in node order, or the error raised."""
    try:
        xs = build(*args)
    except RetryLimitExceeded as exc:
        return "RetryLimitExceeded", str(exc)
    return [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in xs.nodes]


BUILDERS = (
    (generators._chung_yao_nodes, chung_yao_nodes_fraction),
    (generators._projective_image_nodes, projective_image_nodes_fraction),
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
        assert _exact(generators._chung_yao_nodes, 3, 0, 1) == starved
        assert _exact(chung_yao_nodes_fraction, 3, 0, 1) == starved
        image = generators._projective_image_nodes
        seeds = [seed for seed in range(20) if _exact(image, 3, seed, 1) == starved]
        assert seeds
        assert all(_exact(projective_image_nodes_fraction, 3, seed, 1) == starved for seed in seeds)

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
        for degree in range(1, 5):
            xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            for got, want in zip(cert.entries, certify_gc_algebraic(xs).entries):
                assert list(got.witnesses.items()) == list(want.witnesses.items())
