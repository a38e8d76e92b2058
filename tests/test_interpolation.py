"""Poisedness, fundamental polynomials, dependence and reproduction."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import (
    DEFAULT_KINDS,
    DuplicateNode,
    GeneratorSpec,
    LengthMismatch,
    Line,
    NodeSet,
    NotPoised,
    Point,
    Poly,
    all_fundamentals,
    annihilator,
    dim_pi,
    evaluate,
    fundamental,
    gen_principal,
    generate,
    interpolate,
    intersect,
    is_essentially_dependent,
    is_independent,
    is_poised,
    vandermonde,
)
from gcnlab import linalg
from gcnlab.interpolation import _integer_vandermonde
from gcnlab.rng import SplitMix64

from oracles import rank_naive, solvable_naive, vandermonde_naive


def grid_3x3():
    return NodeSet(3, tuple(Point(i, j) for i in range(3) for j in range(3)))


class TestNodeSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNode):
            NodeSet(1, (Point(0, 0), Point(0, 0), Point(1, 1)))

    def test_label_length_checked(self):
        with pytest.raises(LengthMismatch):
            NodeSet(0, (Point(0, 0),), labels=("a", "b"))

    def test_index_lookup(self, triangle):
        assert triangle.index(Point(1, 0)) == 1
        assert triangle.index(Point(5, 5)) is None


class TestVandermonde:
    def test_degree_zero(self):
        m = vandermonde(NodeSet(0, (Point(3, 4),)))
        assert m == [[Fraction(1)]]

    def test_degree_one_columns(self, triangle):
        assert vandermonde(triangle) == [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(1)],
        ]

    def test_degree_five_shape(self, principal5):
        m = vandermonde(principal5)
        assert len(m) == 21 and all(len(row) == 21 for row in m)


class TestIsPoised:
    def test_collinear_fails(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        assert not is_poised(xs)

    def test_triangle(self, triangle):
        assert is_poised(triangle)

    def test_wrong_size(self):
        assert not is_poised(NodeSet(1, (Point(0, 0), Point(1, 0))))

    def test_principal_lattice_degree5(self, principal5):
        assert is_poised(principal5)
        # independent oracle: naive rational Gauss on the same matrix
        assert rank_naive(vandermonde(principal5)) == dim_pi(5)


def conic_six():
    """Six nodes on the circle x^2 + y^2 = 25: not poised at degree 2."""
    pts = ((3, 4), (4, 3), (5, 0), (0, 5), (-3, 4), (-5, 0))
    return NodeSet(2, tuple(Point(x, y) for x, y in pts))


def overfull_line():
    """Four collinear nodes at degree 2, one more than a poised set allows."""
    pts = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1))
    return NodeSet(2, tuple(Point(x, y) for x, y in pts))


def scaled_fraction_rows(nodes, n):
    """The Fraction Vandermonde rows of ``nodes``, each times the lcm of its node's denominators to the n."""
    rows = []
    for p, row in zip(nodes, vandermonde_naive(nodes, n)):
        scale = lcm(p.x.denominator, p.y.denominator) ** n
        rows.append([scale * v for v in row])
    return rows


def count_kernels(monkeypatch):
    """A list that gains one entry per call of ``linalg._left_kernel``, the exact step of ``unit_consistency``."""
    calls = []
    kernel = linalg._left_kernel
    monkeypatch.setattr(linalg, "_left_kernel", lambda *args: calls.append(1) or kernel(*args))
    return calls


class TestModularRankScreen:
    CASES = {
        "principal": lambda: gen_principal(5),
        "chung_yao": lambda: generate(GeneratorSpec("chung_yao", 4, seed=3)),
        "projective_image": lambda: generate(GeneratorSpec("projective_image", 4, seed=3)),
        "conic": conic_six,
        "overfull_line": overfull_line,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agrees_with_exact_rank(self, name, monkeypatch):
        xs = self.CASES[name]()
        exact = rank_naive(vandermonde(xs))
        assert len(linalg._pivots_mod_p(_integer_vandermonde(xs, xs.degree))) <= exact
        calls = count_kernels(monkeypatch)
        poised = is_poised(xs)
        assert poised == (exact == len(xs))
        # exact work runs only when the modular screen finds a deficiency,
        # and then the kernel of the modular pivot columns passes its check
        assert len(calls) == (0 if poised else 1)

    def test_integer_rows_scale_the_fraction_rows(self):
        mixed = NodeSet(2, (
            Point(Fraction(-3, 4), Fraction(5, 6)), Point(-2, Fraction(1, 9)),
            Point(Fraction(7, 10), -5), Point(0, Fraction(-1, 4)), Point(Fraction(-5, 3), 0),
            Point(Fraction(1, 2), Fraction(-1, 2)),
        ))
        # the lines that ``cayley-bacharach --m 3 --n 4 --seed 1`` draws
        group_m = (Line(1, -4, -4), Line(4, -5, -8), Line(0, 1, 3))
        group_n = (Line(7, 2, 2), Line(4, -3, 3), Line(8, 1, 7), Line(2, 4, -1))
        cayley_bacharach = NodeSet(4, [intersect(la, lb) for la in group_m for lb in group_n])
        principal4 = gen_principal(4)
        # the principal lattice's common scale is 4, but node (1/2, 0) needs only 2
        assert principal4.scale == 4 and (2, 0) in principal4.coords
        for xs in (
            generate(GeneratorSpec("projective_image", 3, seed=5)), principal4, mixed,
            cayley_bacharach,
        ):
            for n in (xs.degree, xs.degree + 1):
                assert _integer_vandermonde(xs, n) == scaled_fraction_rows(xs.nodes, n)

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_rows_of_generated_sets(self, kind, degree):
        for seed in range(3):
            xs = generate(GeneratorSpec(kind, degree, seed=seed))
            assert _integer_vandermonde(xs, degree) == scaled_fraction_rows(xs.nodes, degree)

    def test_generated_set_builds_no_point_for_algebra(self):
        xs = generate(GeneratorSpec("projective_image", 3, seed=5))
        assert is_poised(xs) and is_independent(xs) and not is_essentially_dependent(xs, 3)
        assert "nodes" not in vars(xs)

    def test_prime_multiple_determinant_falls_back(self):
        p = linalg.PRIME
        assert len(linalg._pivots_mod_p([[p, 0], [0, 1]])) == 1
        assert rank_naive([[p, 0], [0, 1]]) == 2
        # both Vandermonde determinants are p: singular modulo p, poised over Q
        for xs in (
            NodeSet(1, (Point(0, 0), Point(p, 0), Point(0, 1))),
            NodeSet(1, (Point(0, 0), Point(Fraction(p, 3), 0), Point(0, Fraction(1, 5)))),
        ):
            assert len(linalg._pivots_mod_p(_integer_vandermonde(xs, xs.degree))) == 2
            assert is_poised(xs)


class TestFundamental:
    def test_forced_by_three_conditions(self, triangle):
        assert fundamental(triangle, 0).poly == Poly.from_coeff_dict(
            {(0, 0): 1, (1, 0): -1, (0, 1): -1}, 1
        )
        assert fundamental(triangle, 1).poly == Poly.from_coeff_dict({(1, 0): 1}, 1)

    def test_kronecker_property_by_evaluation(self, cy2):
        for sol in all_fundamentals(cy2):
            for j, node in enumerate(cy2.nodes):
                assert evaluate(sol.poly, node) == (1 if j == sol.node_index else 0)

    def test_requires_poisedness(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        with pytest.raises(NotPoised):
            fundamental(xs, 0)

    def test_index_range(self, triangle):
        with pytest.raises(IndexError):
            fundamental(triangle, 3)


class TestIndependence:
    def test_single_node(self):
        for n in range(3):
            assert is_independent(NodeSet(n, (Point(2, 5),)))

    def test_collinear_overload(self):
        # n + 2 points on one line are dependent at degree n
        for n in (1, 2, 3):
            pts = tuple(Point(t, 0) for t in range(n + 2))
            assert not is_independent(NodeSet(n, pts))

    def test_grid_at_degree_three(self):
        xs = grid_3x3()
        assert not is_independent(xs)
        assert rank_naive(vandermonde(xs)) < 9  # oracle agreement

    def test_oversized_set(self):
        pts = tuple(Point(i, i * i) for i in range(5))
        assert not is_independent(NodeSet(0, pts))

    @pytest.mark.parametrize(
        "xs, independent, kernels",
        [
            (grid_3x3(), False, 1),
            (NodeSet(3, (Point(0, 0), Point(1, 2), Point(5, -1))), True, 0),
            # Vandermonde rows [1, 0, 0] and [1, p, 0]: deficient modulo p
            # only, so the kernel of column 0 fails its check on column 1
            (NodeSet(1, (Point(0, 0), Point(linalg.PRIME, 0))), True, 2),
        ],
        ids=["grid", "three_nodes", "prime_apart"],
    )
    def test_exact_rank_only_after_a_modular_deficiency(self, xs, independent, kernels, monkeypatch):
        rows = _integer_vandermonde(xs, xs.degree)
        calls = count_kernels(monkeypatch)
        assert is_independent(xs) == independent
        assert len(calls) == kernels
        assert bool(calls) == (len(linalg._pivots_mod_p(rows)) < len(xs))

    def test_full_rank_hidden_by_the_prime(self, monkeypatch):
        # rank 2 over Q, rank 1 modulo the prime: only the exact kernel of
        # all columns proves independence
        m = [[2, 1], [linalg.PRIME + 2, 1]]
        assert len(linalg._pivots_mod_p(m)) == 1 and rank_naive(m) == 2
        monkeypatch.setattr("gcnlab.interpolation._integer_vandermonde", lambda xs, n: m)
        calls = count_kernels(monkeypatch)
        assert is_independent(NodeSet(1, (Point(0, 0), Point(1, 0))))
        assert len(calls) == 2


class TestEssentialDependence:
    def test_single_node_never(self):
        for m in range(4):
            assert not is_essentially_dependent(NodeSet(m, (Point(1, 1),)), m)

    def test_collinear_m_plus_two(self):
        for m in (1, 2, 3):
            pts = tuple(Point(t, 0) for t in range(m + 2))
            assert is_essentially_dependent(NodeSet(m, pts), m)

    def test_grid_at_degree_three(self):
        assert is_essentially_dependent(grid_3x3(), 3)

    def test_implies_not_independent(self):
        xs = grid_3x3()
        assert is_essentially_dependent(xs, 3) and not is_independent(xs)


class TestAnnihilator:
    def test_poised_has_none(self, triangle):
        assert annihilator(triangle) is None

    def test_collinear_witness(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        p = annihilator(xs)
        assert p is not None and not p.is_zero()
        for node in xs.nodes:
            assert evaluate(p, node) == 0

    def test_grid_witness(self):
        p = annihilator(grid_3x3())
        assert p is not None
        for node in grid_3x3().nodes:
            assert evaluate(p, node) == 0

    @pytest.mark.parametrize("n", range(4))
    def test_empty_set_gives_the_constant_one(self, n):
        assert annihilator(NodeSet(n, ())) == Poly.constant(1, n)


class TestInterpolate:
    def test_zero_data(self, triangle):
        assert interpolate(triangle, [0, 0, 0]).is_zero()

    def test_reproduces_polynomial(self):
        xs = gen_principal(2)
        q = Poly.from_coeff_dict({(2, 0): 1, (0, 1): -1}, 2)  # x^2 - y
        values = [evaluate(q, node) for node in xs.nodes]
        assert interpolate(xs, values) == q

    def test_delta_data_gives_fundamental(self, triangle):
        for k in range(3):
            values = [1 if j == k else 0 for j in range(3)]
            assert interpolate(triangle, values) == fundamental(triangle, k).poly

    def test_exact_value_forms_agree(self, triangle):
        # v0 + (v1 - v0) x + (v2 - v0) y on the unit triangle
        want = Poly.from_coeff_dict(
            {(0, 0): Fraction(1, 10), (1, 0): Fraction(2, 5), (0, 1): Fraction(9, 10)}, 1
        )
        for values in (
            [Fraction(1, 10), Fraction(1, 2), 1],
            ["1/10", "1/2", "1"],
            [Fraction(1, 10), "1/2", 1],
        ):
            assert interpolate(triangle, values) == want
        ints = Poly.from_coeff_dict({(0, 0): 1, (1, 0): 1, (0, 1): 2}, 1)
        assert interpolate(triangle, [1, 2, 3]) == ints

    @pytest.mark.parametrize("values", [[0.1, 0.5, 1.0], [0, 1, 0.5]])
    def test_floats_are_refused(self, triangle, values):
        with pytest.raises(TypeError, match="refusing float"):
            interpolate(triangle, values)

    def test_length_mismatch(self, triangle):
        with pytest.raises(LengthMismatch):
            interpolate(triangle, [1, 2])

    def test_not_poised(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 1), Point(2, 2)))
        with pytest.raises(NotPoised):
            interpolate(xs, [1, 2, 3])


class TestDegreeCap:
    """``Poly`` stops at degree 12, so the solves refuse a higher degree before eliminating."""

    @pytest.fixture(scope="class")
    def cy14(self):
        return generate(GeneratorSpec("chung_yao", 14, seed=1))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda xs: fundamental(xs, 0),
            lambda xs: interpolate(xs, [0] * len(xs)),
            all_fundamentals,
        ],
        ids=["fundamental", "interpolate", "all_fundamentals"],
    )
    def test_poised_degree_14_rejected(self, cy14, solve, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solve_square ran above the degree cap")

        monkeypatch.setattr(linalg, "solve_square", no_solve)
        with pytest.raises(ValueError, match=r"^degree bound 14 outside \[0, 12\]$"):
            solve(cy14)

    def test_not_poised_reported_first(self):
        # 120 grid nodes on 12 vertical lines: their product vanishes on all
        xs = NodeSet(14, tuple(Point(i, j) for i in range(12) for j in range(10)))
        with pytest.raises(NotPoised):
            fundamental(xs, 0)
        with pytest.raises(NotPoised):
            interpolate(xs, [0] * len(xs))


class TestStructuralProperties:
    def test_partition_of_unity(self, cy2):
        total = Poly.zero(cy2.degree)
        for sol in all_fundamentals(cy2):
            total = total + sol.poly
        assert total == Poly.constant(1, cy2.degree)

    def test_reproduction_random_quadratics(self, cy2):
        rng = SplitMix64(31)
        for _ in range(10):
            q = Poly(
                2,
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim_pi(2))),
            )
            values = [evaluate(q, node) for node in cy2.nodes]
            assert interpolate(cy2, values) == q

    def test_poised_implies_independent(self, triangle, cy2, principal5):
        for xs in (triangle, cy2, principal5):
            assert is_poised(xs) and is_independent(xs)

    def test_poisedness_both_directions(self):
        # poised: only the zero polynomial interpolates zero data
        xs = gen_principal(2)
        assert interpolate(xs, [0] * len(xs)).is_zero()
        # not poised: a nonzero annihilating polynomial exists
        bad = NodeSet(2, tuple(Point(t, t * t) for t in range(-3, 3)))
        if not is_poised(bad):
            w = annihilator(bad)
            assert w is not None and not w.is_zero()


#: Node denominators whose lcm per node, and its powers, share primes with
#: some data denominators below and not with others.
mixed = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((2, 3, 4, 6, 9)))
data_values = st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 5, 7, 12, 35)))


@st.composite
def mixed_sets(draw):
    """A degree 1 to 3 set of up to dim_pi(degree) nodes with mixed denominators."""
    n = draw(st.integers(1, 3))
    size = draw(st.one_of(st.just(dim_pi(n)), st.integers(1, dim_pi(n))))
    points = st.builds(Point, mixed, mixed)
    return NodeSet(n, tuple(draw(st.lists(points, min_size=size, max_size=size, unique=True))))


def apply(rows, coeffs):
    return [sum(v * c for v, c in zip(row, coeffs)) for row in rows]


class TestMixedDenominatorsAgainstNaiveRows:
    """Every exact question agrees with naive Gauss on Fraction-power rows."""

    @given(mixed_sets(), st.integers(0, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_naive_rows(self, xs, m, data):
        rows = vandermonde_naive(xs.nodes, xs.degree)
        assert vandermonde(xs) == rows
        r = rank_naive(rows)
        assert is_independent(xs) == (r == len(xs))
        witness = annihilator(xs)
        if r == dim_pi(xs.degree):
            assert witness is None
        else:
            assert not witness.is_zero() and apply(rows, witness.coeffs) == [0] * len(xs)
        units = [[int(i == k) for i in range(len(xs))] for k in range(len(xs))]
        rows_m = vandermonde_naive(xs.nodes, m)
        assert is_essentially_dependent(xs, m) == (
            not any(solvable_naive(rows_m, e) for e in units)
        )
        values = data.draw(st.lists(data_values, min_size=len(xs), max_size=len(xs)))
        if not len(xs) == r == dim_pi(xs.degree):
            assert not is_poised(xs)
            with pytest.raises(NotPoised):
                interpolate(xs, values)
            return
        assert is_poised(xs)
        solutions = all_fundamentals(xs)
        for k, e in enumerate(units):
            assert solvable_naive(rows, e)
            assert apply(rows, solutions[k].poly.coeffs) == e
            assert fundamental(xs, k) == solutions[k]
        assert apply(rows, interpolate(xs, values).coeffs) == values


#: small ints, PRIME multiples and halves, so some minors vanish modulo the prime only
coordinate = st.one_of(
    st.integers(-4, 4),
    st.integers(-2, 2).map(lambda k: k * linalg.PRIME),
    st.builds(Fraction, st.integers(-4, 4), st.just(2)),
)


@st.composite
def predicate_sets(draw):
    """A degree 0 to 3 set: scattered nodes, n + 2 collinear nodes plus a few more, or a grid."""
    n = draw(st.integers(0, 3))
    points = st.tuples(coordinate, coordinate)
    kind = draw(st.sampled_from(("scattered", "collinear", "grid")))
    if kind == "scattered":
        pts = draw(st.lists(points, min_size=1, max_size=dim_pi(n) + 1))
    elif kind == "collinear":
        (x0, y0), (dx, dy) = draw(points), draw(points.filter(lambda d: d != (0, 0)))
        pts = [(x0 + t * dx, y0 + t * dy) for t in range(n + 2)] + draw(st.lists(points, max_size=2))
    else:
        xs = draw(st.lists(coordinate, min_size=1, max_size=4, unique=True))
        ys = draw(st.lists(coordinate, min_size=1, max_size=4, unique=True))
        pts = [(x, y) for x in xs for y in ys]
    return NodeSet(n, tuple(Point(x, y) for x, y in dict.fromkeys(pts)))


class TestPredicatesAgainstNaiveRank:
    """``is_poised``, ``is_independent`` and ``is_essentially_dependent`` against Fraction Gauss."""

    @given(predicate_sets(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_agree(self, xs, m):
        s = len(xs)
        units = [[int(i == k) for i in range(s)] for k in range(s)]
        independent = rank_naive(vandermonde_naive(xs.nodes, xs.degree)) == s
        assert is_independent(xs) == independent
        assert is_poised(xs) == (independent and s == dim_pi(xs.degree))
        rows_m = vandermonde_naive(xs.nodes, m)
        assert is_essentially_dependent(xs, m) == (not any(solvable_naive(rows_m, e) for e in units))
