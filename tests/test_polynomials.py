"""Dense bivariate polynomials: dimension, evaluation, line multiply/divide."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import (
    MAX_DEGREE,
    Line,
    NotDivisible,
    Point,
    Poly,
    ZeroPolynomial,
    dim_pi,
    divide_by_line,
    evaluate,
    monomials,
    multiply_line,
)
from gcnlab.linalg import nullspace_basis
from gcnlab.polynomials import _position
from gcnlab.rng import SplitMix64

from oracles import (
    divide_by_line_dict,
    multiply_line_dict,
    poly_add_dict,
    poly_multiply_naive,
    vandermonde_naive,
)

coeff = st.fractions(min_value=-6, max_value=6, max_denominator=8)
line_coeffs = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
).filter(lambda t: (t[0], t[1]) != (0, 0))
lines = st.builds(lambda t: Line(*t), line_coeffs)
# general lines and lines with a = 0, b = 0 or c = 0
any_lines = st.one_of(
    lines,
    st.builds(lambda b, c: Line(0, b, c), st.integers(-6, 6).filter(bool), st.integers(-6, 6)),
    st.builds(lambda a, c: Line(a, 0, c), st.integers(-6, 6).filter(bool), st.integers(-6, 6)),
    line_coeffs.map(lambda t: Line(t[0], t[1], 0)),
)


def polys(max_degree=4):
    return st.integers(0, max_degree).flatmap(
        lambda n: st.tuples(*(coeff for _ in range(dim_pi(n)))).map(lambda cs: Poly(n, cs))
    )


class TestDimension:
    def test_values(self):
        assert dim_pi(0) == 1
        assert dim_pi(2) == 6  # 1, x, y, x^2, xy, y^2
        assert dim_pi(5) == 21

    def test_matches_binomial(self):
        for n in range(13):
            assert dim_pi(n) == math.comb(n + 2, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dim_pi(-1)


class TestMonomialOrder:
    def test_graded_lex_prefix(self):
        assert monomials(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_block_lengths(self):
        for n in range(7):
            assert len(monomials(n)) == dim_pi(n)


class TestPositions:
    def test_lower_bounds_are_prefixes(self):
        for n in range(MAX_DEGREE + 1):
            assert monomials(n) == monomials(MAX_DEGREE)[: dim_pi(n)]

    def test_position_formula(self):
        order = monomials(MAX_DEGREE)
        for i in range(MAX_DEGREE + 1):
            for j in range(MAX_DEGREE + 1 - i):
                assert _position(i, j) == order.index((i, j))


class TestEvaluate:
    def test_simple(self):
        p = Poly.from_coeff_dict({(2, 0): 1, (0, 1): 1}, 2)  # x^2 + y
        assert evaluate(p, Point(2, 3)) == 7

    def test_zero_polynomial(self):
        assert evaluate(Poly.zero(3), Point(5, -7)) == 0

    def test_vanishes_on_factor(self):
        p = poly_from_product([(1, -1, 0), (1, 1, -1)])  # (x - y)(x + y - 1)
        assert evaluate(p, Point(Fraction(1, 2), Fraction(1, 2))) == 0


def poly_from_product(coeff_triples):
    p = Poly.constant(1)
    for t in coeff_triples:
        p = multiply_line(p, Line(*t))
    return p


class TestMultiplyLine:
    def test_constant_times_line(self):
        assert multiply_line(Poly.constant(1), Line(1, -1, 0)) == Poly.from_coeff_dict(
            {(1, 0): 1, (0, 1): -1}, 1
        )

    def test_x_times_y(self):
        x = Poly.from_coeff_dict({(1, 0): 1}, 1)
        assert multiply_line(x, Line(0, 1, 0)) == Poly.from_coeff_dict({(1, 1): 1}, 2)

    def test_expansion_against_convolution_oracle(self):
        # (x + y)(x + y - 1); expected computed by dict convolution
        p = Poly.from_coeff_dict({(1, 0): 1, (0, 1): 1}, 1)
        expected = poly_multiply_naive(
            p.as_dict(), {(1, 0): Fraction(1), (0, 1): Fraction(1), (0, 0): Fraction(-1)}
        )
        assert multiply_line(p, Line(1, 1, -1)).as_dict() == expected

    @given(polys(3), lines, lines)
    def test_degree_bound_rises_by_one(self, p, l1, l2):
        q = multiply_line(p, l1)
        assert q.degree_bound == p.degree_bound + 1

    @given(polys(3), lines)
    def test_pointwise_product(self, p, l):
        q = multiply_line(p, l)
        for pt in (Point(0, 0), Point(1, 2), Point(Fraction(-1, 3), Fraction(2, 5))):
            assert q.at(pt) == p.at(pt) * l.at(pt)


class TestDivideByLine:
    def test_exact_quotient(self):
        p = poly_from_product([(1, -1, 0), (1, 1, 0)])  # (x - y)(x + y)
        assert divide_by_line(p, Line(1, -1, 0)) == Poly.from_coeff_dict(
            {(1, 0): 1, (0, 1): 1}, 1
        )

    def test_irreducible_remainder(self):
        p = Poly.from_coeff_dict({(2, 0): 1, (0, 0): 1}, 2)  # x^2 + 1
        with pytest.raises(NotDivisible):
            divide_by_line(p, Line(1, 0, 0))

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            divide_by_line(Poly.zero(2), Line(1, 0, 0))

    def test_constant_has_no_line_factor(self):
        with pytest.raises(NotDivisible):
            divide_by_line(Poly.constant(3), Line(1, 0, 0))

    def test_vertical_line_division(self):
        p = poly_from_product([(1, 0, -2), (0, 1, 5)])
        assert divide_by_line(p, Line(1, 0, -2)) == Poly.from_coeff_dict(
            {(0, 1): 1, (0, 0): 5}, 1
        )

    @given(polys(4), lines)
    @settings(max_examples=150)
    def test_round_trip(self, p, l):
        if p.is_zero():
            return
        assert divide_by_line(multiply_line(p, l), l) == p

    def test_sampled_vanishing_poly_divides(self):
        # p in Pi_3 vanishing at 5 distinct points of y = 0 must be divisible
        # by y; sample p from the nullspace of the 5 vanishing constraints and
        # verify by multiplying the quotient back.
        pts = [Point(t, 0) for t in range(5)]
        basis = nullspace_basis(vandermonde_naive(pts, 3))
        assert basis, "five constraints cannot exhaust a 10-dimensional space"
        rng = SplitMix64(202)
        for _ in range(10):
            coeffs = [Fraction(0)] * dim_pi(3)
            for vec in basis:
                w = rng.randint(-5, 5)
                coeffs = [c + w * v for c, v in zip(coeffs, vec)]
            p = Poly(3, tuple(coeffs))
            if p.is_zero():
                continue
            q = divide_by_line(p, Line(0, 1, 0))
            assert q.degree_bound == 2
            assert multiply_line(q, Line(0, 1, 0)) == p


class TestVanishingPointsForceDivisibility:
    """A degree-n polynomial vanishing at n+1 points of a line has it as a factor."""

    @given(st.integers(1, 4), lines, st.data())
    @settings(max_examples=60, deadline=None)
    def test_property(self, n, line, data):
        seed = data.draw(st.integers(0, 2**32))
        pts = _distinct_points_on_line(line, n + 1, seed)
        basis = nullspace_basis(vandermonde_naive(pts, n))
        rng = SplitMix64(seed ^ 0xA5A5)
        coeffs = [Fraction(0)] * dim_pi(n)
        for vec in basis:
            w = rng.randint(-4, 4)
            coeffs = [c + w * v for c, v in zip(coeffs, vec)]
        p = Poly(n, tuple(coeffs))
        if p.is_zero():
            return
        q = divide_by_line(p, line)
        assert multiply_line(q, line) == p


def _distinct_points_on_line(line, count, seed):
    rng = SplitMix64(seed)
    pts = set()
    while len(pts) < count:
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        if line.b != 0:
            pts.add(Point(t, Fraction(-line.a * t - line.c, line.b)))
        else:
            pts.add(Point(Fraction(-line.c, line.a), t))
    return sorted(pts)


class TestEvaluateAlgebra:
    @given(polys(3), polys(3))
    @settings(max_examples=60)
    def test_linear_in_p(self, p, q):
        pt = Point(Fraction(2, 3), Fraction(-1, 2))
        assert (p + q).at(pt) == p.at(pt) + q.at(pt)
        assert p.scale(Fraction(3, 7)).at(pt) == Fraction(3, 7) * p.at(pt)

    def test_mathematical_equality_ignores_bound(self):
        a = Poly.from_coeff_dict({(1, 0): 1}, 1)
        b = Poly.from_coeff_dict({(1, 0): 1}, 3)
        assert a == b

    def test_degree_bound_cap(self):
        with pytest.raises(ValueError):
            Poly.zero(13)

    @given(polys(3), polys(3))
    @settings(max_examples=60)
    def test_negation_and_difference(self, p, q):
        pt = Point(Fraction(2, 3), Fraction(-1, 2))
        assert (-p).at(pt) == -p.at(pt)
        assert (p - q).at(pt) == p.at(pt) - q.at(pt)
        assert (p - p).is_zero()

    def test_wrong_number_of_coefficients(self):
        with pytest.raises(ValueError, match="need 3 coefficients for degree 1, got 2"):
            Poly(1, (1, 2))

    def test_monomial_above_the_bound(self):
        with pytest.raises(ValueError, match="exceeds degree bound 2"):
            Poly.from_coeff_dict({(2, 1): 1}, 2)


def _same(got, want):
    assert got.degree_bound == want.degree_bound
    assert got.coeffs == want.coeffs


def _outcome(f, *args):
    """``("ok", result)`` or ``(exception type, message)`` of a call."""
    try:
        return "ok", f(*args)
    except (NotDivisible, ZeroPolynomial, ValueError) as exc:
        return type(exc), str(exc)


class TestAgainstDictReference:
    """Positional arithmetic gives the dictionary reference's coefficients, bounds and errors."""

    @given(polys(5), polys(5))
    @settings(max_examples=60)
    def test_add_and_subtract(self, p, q):
        _same(p + q, poly_add_dict(p, q))
        _same(p - q, poly_add_dict(p, -q))

    @given(polys(5), any_lines)
    @settings(max_examples=80)
    def test_multiply_line(self, p, line):
        _same(multiply_line(p, line), multiply_line_dict(p, line))

    @given(polys(5), any_lines, st.booleans())
    @settings(max_examples=100)
    def test_divide_by_line(self, p, line, divisible):
        if divisible and p.degree_bound < 5:
            p = multiply_line_dict(p, line)
        self._compare(p, line)

    @given(polys(4), any_lines, st.data())
    @settings(max_examples=100)
    def test_divide_a_product_plus_one_monomial(self, r, line, data):
        # the monomial alone is the remainder when it is free of the leading variable
        n = r.degree_bound + 1
        i, j = data.draw(st.sampled_from(monomials(n)))
        p = multiply_line_dict(r, line) + Poly.from_coeff_dict({(i, j): 1}, n)
        self._compare(p, line)

    @staticmethod
    def _compare(p, line):
        got, want = _outcome(divide_by_line, p, line), _outcome(divide_by_line_dict, p, line)
        assert got[0] == want[0]
        if got[0] == "ok":
            _same(got[1], want[1])
        else:
            assert got == want

    @given(any_lines)
    def test_divide_zero(self, line):
        for n in range(4):
            got = _outcome(divide_by_line, Poly.zero(n), line)
            assert got == _outcome(divide_by_line_dict, Poly.zero(n), line)
            assert got[0] is ZeroPolynomial

    @given(any_lines)
    @settings(max_examples=20)
    def test_multiply_at_the_cap(self, line):
        p = Poly.constant(3, MAX_DEGREE)
        got = _outcome(multiply_line, p, line)
        assert got == _outcome(multiply_line_dict, p, line)
        assert got[0] is ValueError
