"""Maximal lines, GM reports, node classes, profiles, dependence, search."""

from fractions import Fraction

import pytest

from gcnlab import (
    CenterInTarget,
    DegenerateIntersection,
    GeneratorSpec,
    IdenticalLines,
    Line,
    NodeSet,
    NotGC,
    ParallelLines,
    Point,
    TooManyCollinear,
    cayley_bacharach_check,
    certify_gc,
    classify_2m_nodes,
    gen_principal,
    generate_with_certificate,
    gm_report_from_certificate,
    incidence_profile,
    intersect,
    line_incidence,
    maximal_lines,
    search_counterexample,
    verify_gm,
)
from gcnlab import generators
from gcnlab.generators import DEFAULT_KINDS
from gcnlab.rng import SplitMix64, substream_seed

from oracles import (
    cayley_bacharach_set_fraction, incidence_profile_fraction, solvable_naive, used_line_index,
    vandermonde_naive,
)


class TestMaximalLines:
    def test_principal5_three_sides(self, principal5):
        got = maximal_lines(principal5)
        assert got == {Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)}
        incidence = line_incidence(principal5)
        for line in got:
            assert len(incidence[line]) == 6

    def test_chung_yao5_seven_lines(self, cy5_pair):
        xs, _ = cy5_pair
        got = maximal_lines(xs)
        assert len(got) == 7
        incidence = line_incidence(xs)
        assert all(len(incidence[l]) == 6 for l in got)

    def test_degree_one_pair_lines(self, triangle):
        assert len(maximal_lines(triangle)) == 3

    def test_too_many_collinear_reported(self):
        pts = tuple(Point(t, 0) for t in range(5)) + (Point(0, 1), Point(1, 2))
        xs = NodeSet(3, pts)
        with pytest.raises(TooManyCollinear) as excinfo:
            maximal_lines(xs)
        assert excinfo.value.count == 5
        assert excinfo.value.line == Line(0, 1, 0)

    def test_first_overfull_line_in_canonical_order(self):
        # x = 0 (5 nodes) is found first in pair order, y = 2 (6 nodes) comes
        # first in canonical order; pinned on the unfiltered sort
        pts = tuple(Point(0, y) for y in (0, 1, 3, 4, 5)) + tuple(Point(x, 2) for x in range(1, 7))
        with pytest.raises(TooManyCollinear) as excinfo:
            maximal_lines(NodeSet(3, pts))
        assert excinfo.value.line == Line(0, 1, -2)
        assert excinfo.value.count == 6
        assert str(excinfo.value) == (
            "Line(0, 1, -2) passes through 6 nodes; at most 4 of a poised degree-3 set "
            "can be collinear"
        )

    def test_computed_once_per_index(self, principal5_cert):
        xs = principal5_cert.nodeset
        assert xs.maximal is xs.maximal
        # the report reads its maximal lines off the cover table instead
        assert gm_report_from_certificate(principal5_cert).maximal_lines == xs.maximal
        assert xs.degree == 5
        assert [line for line, _ in xs.maximal] == sorted(maximal_lines(xs))

    def test_overfull_line_raises_on_every_read(self):
        pts = tuple(Point(t, 0) for t in range(5)) + (Point(0, 1), Point(1, 2))
        xs = NodeSet(3, pts)
        for _ in range(2):
            with pytest.raises(TooManyCollinear):
                xs.maximal


class TestReportFromTheCoverTable:
    """The report's maximal lines are the cover lines with n + 1 nodes."""

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_equal_to_the_maximal_lines_of_a_fresh_index(self, kind):
        for degree in range(1, 13):
            for seed in range(3):
                _, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))
                certs = [cert]
                if degree <= 9:
                    certs.append(certify_gc(NodeSet(degree, cert.nodeset.nodes)))
                for c in certs:
                    report = gm_report_from_certificate(c)
                    fresh = NodeSet(degree, c.nodeset.nodes)
                    assert report.maximal_lines == fresh.maximal
                    assert report.satisfied and report.counterexample is None


class TestVerifyGM:
    def test_generated_degree5_satisfied(self, cy5_pair):
        xs, _ = cy5_pair
        report = verify_gm(xs)
        assert report.satisfied and report.counterexample is None

    def test_chung_yao_has_at_least_degree_plus_two(self):
        for degree, seed in ((2, 3), (3, 4), (4, 5)):
            xs, cert = generate_with_certificate(GeneratorSpec("chung_yao", degree, seed=seed))
            report = gm_report_from_certificate(cert)
            assert report.satisfied
            assert len(report.maximal_lines) >= degree + 2

    def test_non_gc_rejected(self):
        nodes = (
            Point(0, 0), Point(0, 1), Point(0, 4), Point(1, 0), Point(2, 0),
            Point(Fraction(22, 7), Fraction(-21, 11)),
        )
        with pytest.raises(NotGC):
            verify_gm(NodeSet(2, nodes))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_gm(NodeSet(0, (Point(0, 0),)))


class Test2mNodes:
    def test_principal5_corners(self, principal5):
        got = classify_2m_nodes(principal5)
        corners = {
            principal5.index(Point(0, 0)),
            principal5.index(Point(1, 0)),
            principal5.index(Point(0, 1)),
        }
        assert got == corners

    def test_chung_yao5_all_nodes(self, cy5_pair):
        xs, _ = cy5_pair
        assert classify_2m_nodes(xs) == set(range(21))

    def test_principal2_intersection_roles(self):
        xs = gen_principal(2)
        got = classify_2m_nodes(xs)
        corners = {xs.index(Point(0, 0)), xs.index(Point(1, 0)), xs.index(Point(0, 1))}
        assert got == corners


class TestIncidenceProfile:
    def test_default_target_sums_to_twenty(self, cy5_pair):
        xs, _ = cy5_pair
        for center in range(len(xs)):
            profile = incidence_profile(xs, center)
            assert sum(k * c for k, c in profile.counts.items()) == 20

    def test_three_line_fifteen_node_target(self, cy5_pair):
        # fifteen nodes on three maximal lines avoiding the center
        xs, _ = cy5_pair
        incidence = line_incidence(xs)
        center = 0
        avoiding = [l for l in sorted(maximal_lines(xs)) if center not in incidence[l]]
        lines3 = avoiding[:3]
        target = sorted(set().union(*(incidence[l] for l in lines3)))
        assert len(target) == 15 and center not in target
        profile = incidence_profile(xs, center, target)
        assert sum(k * c for k, c in profile.counts.items()) == 15

    def test_single_node_target(self, cy2):
        profile = incidence_profile(cy2, 0, (3,))
        assert profile.counts == {1: 1}

    def test_center_in_target_rejected(self, cy2):
        with pytest.raises(CenterInTarget):
            incidence_profile(cy2, 0, (0, 1))

    def test_repeated_target_rejected(self, cy2):
        with pytest.raises(ValueError, match="repeats a node index"):
            incidence_profile(cy2, 0, (1, 1, 2))
        with pytest.raises(CenterInTarget):  # checked before a repeat
            incidence_profile(cy2, 0, (0, 0))

    def test_counts_match_fraction_lines(self, cy5_pair, principal5):
        rng = SplitMix64(17)
        grid = NodeSet(2, tuple(Point(i, j) for i in range(4) for j in range(3)))
        for xs in (cy5_pair[0], principal5, grid):
            for center in range(len(xs)):
                others = [j for j in range(len(xs)) if j != center]
                subset = [j for j in others if rng.randint(0, 1)]
                for target in (others, subset):
                    got = incidence_profile(xs, center, target).counts
                    assert got == incidence_profile_fraction(xs, center, target)

    def test_principal5_profiles(self, principal5):
        for center in (0, 7, 20):
            profile = incidence_profile(principal5, center)
            assert sum(k * c for k, c in profile.counts.items()) == 20


class TestCayleyBacharach:
    def test_three_by_three_grid(self):
        lines_m = [Line(1, 0, 0), Line(1, 0, -1), Line(1, 0, -2)]
        lines_n = [Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2)]
        assert cayley_bacharach_check(lines_m, lines_n)

    def test_grid_infeasibility_against_oracle(self):
        # independent check: each node's inhomogeneous system at degree 3 is
        # infeasible by naive rational elimination
        pts = [Point(i, j) for i in range(3) for j in range(3)]
        rows = vandermonde_naive(pts, 3)
        for k in range(9):
            rhs = [Fraction(1) if i == k else Fraction(0) for i in range(9)]
            assert not solvable_naive(rows, rhs)

    def test_parallel_cross_pair_rejected(self):
        with pytest.raises(DegenerateIntersection) as excinfo:
            cayley_bacharach_check([Line(1, 0, 0)], [Line(1, 0, -1), Line(0, 1, 0)])
        assert str(excinfo.value) == "Line(1, 0, 0) and Line(1, 0, -1) do not meet transversally"
        assert isinstance(excinfo.value.__cause__, ParallelLines)

    def test_line_in_both_groups_rejected(self):
        lines_m = [Line(1, 0, 0), Line(1, 1, -3)]
        lines_n = [Line(0, 1, 0), Line(1, 1, -3), Line(1, -1, 5)]
        with pytest.raises(DegenerateIntersection) as excinfo:
            cayley_bacharach_check(lines_m, lines_n)
        assert str(excinfo.value) == "Line(1, 1, -3) and Line(1, 1, -3) do not meet transversally"
        assert isinstance(excinfo.value.__cause__, IdenticalLines)

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_integer_meets_build_the_fraction_set(self, m, n, monkeypatch):
        # the set the check hands to the algebra is the one Fraction meets and
        # the constructor give, and a degenerate draw raises the same message
        if m + n < 3:
            with pytest.raises(ValueError):
                cayley_bacharach_check([Line(1, 0, -k) for k in range(m)],
                                       [Line(0, 1, -k) for k in range(n)])
            return
        seen = []
        monkeypatch.setattr(
            "gcnlab.interpolation.is_essentially_dependent",
            lambda xs, degree: seen.append((xs, degree)) or "verdict",
        )
        rng = SplitMix64(substream_seed(77, 8 * m + n))
        sets = degenerate = 0
        while sets < 3 or degenerate < 3:  # parallel pairs and repeated meets come up too
            lines = []
            while len(lines) < m + n:
                a, b, c = (rng.randint(-7, 7) for _ in range(3))
                if (a, b) != (0, 0):
                    lines.append(Line(a, b, c))
            try:
                expected = cayley_bacharach_set_fraction(lines[:m], lines[m:])
            except DegenerateIntersection as exc:
                with pytest.raises(DegenerateIntersection) as excinfo:
                    cayley_bacharach_check(lines[:m], lines[m:])
                assert str(excinfo.value) == str(exc)
                degenerate += 1
                continue
            assert cayley_bacharach_check(lines[:m], lines[m:]) == "verdict"
            xs, degree = seen.pop()
            assert degree == m + n - 3 == xs.degree
            by_intersect = NodeSet(degree, [intersect(la, lb) for la in lines[:m] for lb in lines[m:]])
            assert (xs.scale, xs.coords) == (expected.scale, expected.coords)
            assert (by_intersect.scale, by_intersect.coords) == (xs.scale, xs.coords)
            assert xs == expected == by_intersect
            sets += 1

    def test_coincident_intersections_rejected(self):
        # three concurrent cross lines collapse the point count
        lines_m = [Line(1, 0, 0), Line(0, 1, 0)]
        lines_n = [Line(1, 1, 0), Line(1, 2, 0)]
        with pytest.raises(DegenerateIntersection) as excinfo:
            cayley_bacharach_check(lines_m, lines_n)
        assert str(excinfo.value) == "only 1 distinct intersection points, expected 4"

    def test_random_seeded_instances(self):
        rng = SplitMix64(55)
        done = 0
        while done < 6:
            m = rng.randint(2, 4)
            n = rng.randint(2, 4)
            lines_m, lines_n, seen = [], [], set()
            for group, count in ((lines_m, m), (lines_n, n)):
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
                assert cayley_bacharach_check(lines_m, lines_n)
            except DegenerateIntersection:
                continue
            done += 1

    def test_degree_sum_too_small(self):
        with pytest.raises(ValueError):
            cayley_bacharach_check([Line(1, 0, 0)], [Line(0, 1, 0)])


class TestSearch:
    def test_nonpositive_trials_rejected(self):
        # an empty sweep would report vacuous success
        for trials in (0, -3):
            with pytest.raises(ValueError):
                search_counterexample(degree=3, trials=trials, seed=1)

    def test_no_kinds_rejected(self, monkeypatch):
        # refused before any set is generated, like a sweep of no trials
        monkeypatch.setattr(generators, "generate_with_certificate", None)
        for kinds in ((), []):
            with pytest.raises(ValueError, match="at least one generator kind"):
                search_counterexample(degree=3, trials=3, seed=1, kinds=kinds)

    def test_small_run_all_satisfied(self):
        s = search_counterexample(degree=2, trials=9, seed=17)
        assert s.certified == 9 and s.gm_satisfied == 9 and s.all_satisfied
        assert set(s.kinds) == {"chung_yao", "principal", "projective_image"}

    def test_use_counts_bounded_by_set_size(self):
        s = search_counterexample(degree=5, trials=6, seed=23)
        assert s.certified == 6 == s.gm_satisfied
        assert all(v <= 20 for v in s.use_count_max.values())

    def test_use_count_max_matches_used_line_index(self):
        # the histogram the search counted through UsedLineIndex
        for degree in (2, 3, 4, 5):
            want: dict[int, int] = {}
            for i in range(9):
                spec = GeneratorSpec(
                    DEFAULT_KINDS[i % 3], degree, seed=substream_seed(31, i), coordinate_bound=8
                )
                _, cert = generate_with_certificate(spec)
                for line, users in used_line_index(cert).users.items():
                    count = cert.nodeset.zero_mask(line).bit_count()
                    want[count] = max(want.get(count, 0), len(users))
            got = search_counterexample(degree=degree, trials=9, seed=31).use_count_max
            assert got == want

    def test_reproducible(self):
        a = search_counterexample(degree=3, trials=4, seed=99)
        b = search_counterexample(degree=3, trials=4, seed=99)
        assert a == b


class TestUsedLineIndexOnDegree5(object):
    def test_no_line_used_more_than_set_size_minus_one(self, cy5_pair):
        xs, cert = cy5_pair
        index = used_line_index(cert)
        assert all(len(users) <= len(xs) - 1 for users in index.users.values())
