"""Exact plane geometry: canonical lines, incidence, general position."""

from fractions import Fraction
from math import gcd, lcm
from typing import Union

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import (
    DuplicateLine,
    DuplicateNode,
    IdenticalLines,
    IdenticalPoints,
    LengthMismatch,
    Line,
    NodeSet,
    ParallelLines,
    Point,
    intersect,
    is_incident,
    to_scalar,
)

from gcnlab.geometry import _clear

from conftest import index_of
from oracles import (
    DataclassLine,
    DataclassPoint,
    general_position,
    general_position_fraction,
    line_through,
)

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


class TestClear:
    def test_no_values(self):
        assert _clear([]) == (1, [])

    def test_mixed_ints_and_fractions(self):
        d, ints = _clear([Fraction(-1, 4), 3, Fraction(5, 6), Fraction(-7, 9), -2])
        assert (d, ints) == (36, [-9, 108, 30, -28, -72])
        assert all(type(v) is int for v in ints)

    @given(st.lists(st.one_of(st.integers(-9, 9), rationals), max_size=6))
    def test_scales_by_the_lcm_of_the_denominators(self, values):
        d, ints = _clear(values)
        assert ints == [v * d for v in values]
        assert all(d % Fraction(v).denominator == 0 for v in values)
        assert gcd(d, *ints) == 1


def point_rule(degree, points, labels):
    """The first error of a set of Points, as (type, message), by hashing the Points.

    The degree is checked first, then repeats (the second occurrence of the
    first repeated point is named), then the label count.
    """
    if degree < 0:
        return ValueError, f"degree must be nonnegative, got {degree}"
    seen = set()
    for p in points:
        if p in seen:
            return DuplicateNode, f"node {p} appears twice"
        seen.add(p)
    if labels is not None and len(labels) != len(points):
        return LengthMismatch, f"{len(labels)} labels for {len(points)} nodes"
    return None


def outcome(build, *args):
    """The set ``build(*args)`` returns, or the (type, message) of what it raises."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def node_lists(draw):
    """A degree, rational points with repeats, labels of any count and an unreduced scale.

    A repeat is spelled over a multiple of its denominator, and the integer
    nodes of the scaled path share the extra factor, so repeats appear on
    the integer nodes only after the gcd reduction.
    """
    degree = draw(st.integers(-1, 4))
    drawn = draw(st.lists(st.tuples(rationals, rationals), max_size=8))
    coords = list(drawn)
    for _ in range(draw(st.integers(0, 2)) if drawn else 0):
        x, y = draw(st.sampled_from(drawn))
        k = draw(st.integers(2, 4))
        respelled = tuple(f"{k * v.numerator}/{k * v.denominator}" for v in (x, y))
        coords.insert(draw(st.integers(0, len(coords))), respelled)
    points = [Point(x, y) for x, y in coords]
    labels = draw(st.none() | st.lists(st.sampled_from("abc"), max_size=9))
    factor = draw(st.integers(1, 6))
    return degree, points, labels, factor


class TestNodeSetConstruction:
    """The constructor, from points, and ``_scaled``, from integer nodes, share one setup."""

    @settings(max_examples=300, deadline=None)
    @given(case=node_lists())
    def test_both_paths_give_one_index_and_one_error(self, case):
        degree, points, labels, factor = case
        scale = factor * lcm(*(v.denominator for p in points for v in (p.x, p.y)))
        ints = [(int(p.x * scale), int(p.y * scale)) for p in points]
        built = outcome(NodeSet, degree, points, labels)
        scaled = outcome(NodeSet._scaled, degree, scale, ints)
        assert scaled == point_rule(degree, points, None) or isinstance(scaled, NodeSet)
        want = point_rule(degree, points, labels)
        if want is not None:
            assert built == want
        else:
            assert built.nodes == tuple(points)
            assert built.labels == (None if labels is None else tuple(labels))
        if isinstance(scaled, NodeSet):
            plain = NodeSet(degree, points)
            assert "nodes" not in vars(scaled)
            assert index_of(scaled) == index_of(plain)
            assert len(scaled) == len(plain) == len(points)
            assert scaled == plain and scaled.nodes == tuple(points)

    def test_an_empty_set(self):
        for xs in (NodeSet(2, []), NodeSet._scaled(2, 5, [])):
            assert len(xs) == 0 and xs.coords == () and xs.scale == 1


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

    def test_scalar_and_rational_like_resolve_on_access(self):
        import gcnlab
        from gcnlab import geometry

        assert gcnlab.Scalar is geometry.Scalar is Fraction
        assert geometry.RationalLike == Union[int, str, Fraction]
        assert "Scalar" not in vars(geometry)
        with pytest.raises(AttributeError, match="module 'gcnlab.geometry' has no attribute 'nope'"):
            geometry.nope  # noqa: B018

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


# Constructor inputs for the comparison with the dataclass oracles: lines
# with (a, b) = (0, 0), coefficients and coordinates that are not ints.
odd_values = st.sampled_from([Fraction(1, 2), Fraction(4, 2), "3", "2/3", "x", 2.0, None, True])
any_triples = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)),
    st.integers(-60, 60).map(lambda c: (0, 0, c)),
    st.tuples(*[st.one_of(st.integers(-9, 9), odd_values)] * 3),
)
any_pairs = st.tuples(*[st.one_of(rationals, odd_values)] * 2)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def built(cls, args):
    """``cls(*args)``, or the type and message of the exception it raised."""
    try:
        return cls(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_value(new, ref, fields):
    if isinstance(ref, tuple):
        assert new == ref  # the same exception type and message
        return
    assert tuple(getattr(new, f) for f in fields) == tuple(getattr(ref, f) for f in fields)
    assert [type(getattr(new, f)) for f in fields] == [type(getattr(ref, f)) for f in fields]
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert new != ref and ref != new  # equal only within one class
    with pytest.raises(TypeError):
        new < ref  # noqa: B015
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(new, f, 0)
        with pytest.raises(AttributeError):
            delattr(new, f)


def same_order(new, ref, fields):
    key = operator.attrgetter(*fields)
    assert [key(v) for v in sorted(new)] == [key(v) for v in sorted(ref)]
    for i in range(len(new)):
        for j in range(len(new)):
            for op in COMPARISONS:
                assert op(new[i], new[j]) == op(ref[i], ref[j])


class TestAgainstDataclassOracle:
    """``Point`` and ``Line`` behave as the frozen, ordered dataclasses they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(any_triples)
    def test_line(self, t):
        same_value(built(Line, t), built(DataclassLine, t), ("a", "b", "c"))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(rationals, rationals, rationals))
    def test_line_from_rationals(self, t):
        new = built(Line.from_rationals, t)
        same_value(new, built(DataclassLine.from_rationals, t), ("a", "b", "c"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(line_coeffs, min_size=1, max_size=8))
    def test_line_order(self, ts):
        same_order([Line(*t) for t in ts], [DataclassLine(*t) for t in ts], ("a", "b", "c"))

    @settings(max_examples=300, deadline=None)
    @given(any_pairs)
    def test_point(self, xy):
        same_value(built(Point, xy), built(DataclassPoint, xy), ("x", "y"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1, 0, Fraction(1, 2)]), rationals), max_size=8))
    def test_point_order(self, pairs):  # few x values, so ties on x are common
        same_order(
            [Point(*xy) for xy in pairs], [DataclassPoint(*xy) for xy in pairs], ("x", "y")
        )
