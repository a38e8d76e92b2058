"""Exact plane geometry: canonical lines, incidence, general position."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import (
    DuplicateLine,
    IdenticalLines,
    IdenticalPoints,
    Line,
    ParallelLines,
    Point,
    general_position,
    intersect,
    is_incident,
    line_through,
    to_scalar,
)

from oracles import general_position_fraction

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
points = st.builds(Point, rationals, rationals)
line_coeffs = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
).filter(lambda t: (t[0], t[1]) != (0, 0))
lines = st.builds(lambda t: Line(*t), line_coeffs)


class TestLineCanonicalization:
    def test_gcd_reduced_and_sign_fixed(self):
        assert Line(2, -2, 4).coefficients == (1, -1, 2)
        assert Line(-3, 0, 6).coefficients == (1, 0, -2)
        assert Line(0, -5, 5).coefficients == (0, 1, -1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Line(0, 0, 7)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            Line(Fraction(1, 2), 1, 0)

    def test_from_rationals_clears_denominators(self):
        assert Line.from_rationals(Fraction(1, 2), Fraction(1, 3), -1).coefficients == (3, 2, -6)

    @given(lines)
    def test_idempotent(self, l):
        assert Line(*l.coefficients) == l


class TestLineThrough:
    def test_diagonal_through_origin(self):
        assert line_through(Point(0, 0), Point(1, 1)) == Line(1, -1, 0)

    def test_y_axis(self):
        assert line_through(Point(0, 0), Point(0, 1)) == Line(1, 0, 0)

    def test_rational_intercepts(self):
        # clears denominators of x/(1/2) + y/(1/3) = 1
        got = line_through(Point(Fraction(1, 2), 0), Point(0, Fraction(1, 3)))
        assert got == Line(2, 3, -1)

    def test_identical_points(self):
        with pytest.raises(IdenticalPoints):
            line_through(Point(1, 2), Point(1, 2))

    @given(points, points)
    def test_symmetric_and_incident(self, p, q):
        if p == q:
            with pytest.raises(IdenticalPoints):
                line_through(p, q)
            return
        l = line_through(p, q)
        assert l == line_through(q, p)
        assert is_incident(p, l) and is_incident(q, l)


class TestIntersect:
    def test_axes(self):
        assert intersect(Line(1, 0, 0), Line(0, 1, 0)) == Point(0, 0)

    def test_parallel(self):
        with pytest.raises(ParallelLines):
            intersect(Line(1, 0, 0), Line(1, 0, -1))

    def test_identical(self):
        with pytest.raises(IdenticalLines):
            intersect(Line(1, 0, 0), Line(2, 0, 0))

    def test_two_by_two_system(self):
        assert intersect(Line(1, 1, -1), Line(1, -1, 0)) == Point(
            Fraction(1, 2), Fraction(1, 2)
        )

    @given(lines, lines)
    def test_intersection_is_incident_to_both(self, l1, l2):
        if l1 == l2 or l1.a * l2.b - l2.a * l1.b == 0:
            return
        p = intersect(l1, l2)
        assert is_incident(p, l1) and is_incident(p, l2)


class TestIsIncident:
    def test_on_diagonal(self):
        assert is_incident(Point(0, 0), Line(1, -1, 0))
        assert is_incident(Point(Fraction(1, 3), Fraction(1, 3)), Line(1, -1, 0))

    def test_off_diagonal(self):
        assert not is_incident(Point(1, 0), Line(1, -1, 0))


class TestGeneralPosition:
    def test_triangle(self):
        assert general_position([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)])

    def test_concurrent(self):
        assert not general_position([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0)])

    def test_parallel_pair(self):
        assert not general_position([Line(1, 0, 0), Line(1, 0, -1), Line(0, 1, 0)])

    def test_duplicate(self):
        with pytest.raises(DuplicateLine):
            general_position([Line(1, 0, 0), Line(2, 0, 0)])

    @given(st.lists(lines, min_size=2, max_size=5, unique=True), st.randoms())
    def test_permutation_invariant(self, ls, rng):
        shuffled = list(ls)
        rng.shuffle(shuffled)
        assert general_position(ls) == general_position(shuffled)


small_lines = st.builds(
    lambda t: Line(*t),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)).filter(
        lambda t: (t[0], t[1]) != (0, 0)
    ),
)


@st.composite
def line_lists(draw):
    """0-8 lines over [-8, 8], with forced parallel, concurrent and duplicate lines mixed in."""
    ls = draw(st.lists(small_lines, max_size=8, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        if len(ls) >= 8:
            break
        force = draw(st.sampled_from(("parallel", "concurrent", "duplicate")))
        if force == "duplicate" and ls:
            ls.append(draw(st.sampled_from(ls)))
        elif force == "parallel" and ls:
            l = draw(st.sampled_from(ls))
            ls.append(Line(l.a, l.b, l.c + draw(st.integers(1, 8))))
        elif force == "concurrent" and len(ls) >= 2:
            l1, l2 = draw(st.sampled_from(ls)), draw(st.sampled_from(ls))
            if l1.a * l2.b - l2.a * l1.b == 0:
                continue
            # a third line through the meet of l1 and l2: a combination of both
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            a, b = s * l1.a + t * l2.a, s * l1.b + t * l2.b
            if (a, b) != (0, 0):
                ls.append(Line(a, b, s * l1.c + t * l2.c))
    return draw(st.permutations(ls))


class TestGeneralPositionAgainstFraction:
    @given(line_lists())
    @settings(max_examples=400)
    def test_matches_fraction_oracle(self, ls):
        try:
            expected = general_position_fraction(ls)
        except DuplicateLine:
            with pytest.raises(DuplicateLine):
                general_position(ls)
            return
        assert general_position(ls) == expected


class TestScalar:
    def test_rejects_float(self):
        with pytest.raises(TypeError):
            to_scalar(0.5)
        with pytest.raises(TypeError):
            Point(0.5, 0)

    def test_accepts_exact_forms(self):
        assert to_scalar("2/3") == Fraction(2, 3)
        assert to_scalar(7) == 7
        assert Point("1/2", 0).x == Fraction(1, 2)

    def test_fraction_comes_back_as_itself(self):
        q = Fraction(-6, 4)
        assert to_scalar(q) is q
        p = Point(q, Fraction(5))
        assert p.x is q

    def test_values_and_types_by_input_form(self):
        cases = (
            (7, Fraction(7)),
            (-3, Fraction(-3)),
            (True, Fraction(1)),
            ("2/3", Fraction(2, 3)),
            ("-10/4", Fraction(-5, 2)),
            (Fraction(9, 6), Fraction(3, 2)),
        )
        for value, want in cases:
            got = to_scalar(value)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_fraction_subclass_becomes_fraction(self):
        class Tagged(Fraction):
            pass

        got = to_scalar(Tagged(1, 3))
        assert type(got) is Fraction and got == Fraction(1, 3)

    def test_float_refused_even_when_exact(self):
        for value in (0.5, 2.0, -0.0):
            with pytest.raises(TypeError):
                to_scalar(value)

    @given(rationals)
    def test_lowest_terms_positive_denominator(self, q):
        s = to_scalar(q)
        from math import gcd

        assert s.denominator > 0
        assert gcd(s.numerator, s.denominator) == 1
