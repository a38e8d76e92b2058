"""Fraction-free elimination against a naive rational-Gauss oracle."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnlab import linalg
from gcnlab.linalg import (
    nullspace_basis,
    nullspace_vector,
    PRIME,
    rank,
    rank_mod_p,
    solve_square,
    unit_consistency,
)

from oracles import is_consistent, nullspace_naive, rank_naive, solvable_naive

entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(max_rows=5, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(entry, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def integer_matrix(nrows, ncols):
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@st.composite
def wide_rank_deficient(draw):
    """s rows, more columns than rows and rank at most s - 1, like the Cayley-Bacharach systems."""
    s = draw(st.integers(2, 6))
    r = draw(st.integers(0, s - 1))
    width = draw(st.integers(s + 1, 9))
    left, right = draw(integer_matrix(s, r)), draw(integer_matrix(r, width))
    return [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(width)] for row in left]


#: a 60-80-bit integer of either sign, the size of an integer Vandermonde entry
big_entry = st.tuples(
    st.booleans(), st.integers(60, 80).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
).map(lambda t: -t[1] if t[0] else t[1])


@st.composite
def big_entry_matrices(draw):
    """Rows of 60-80-bit entries, PRIME multiples of small rows, and combinations of earlier rows.

    A PRIME multiple is 0 modulo the prime, so the modular rank drops and
    ``unit_consistency`` must fall back to all columns; a combination
    makes the rank over Q deficient too.
    """
    s, width = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    m = []
    for _ in range(s):
        kind = draw(st.sampled_from(("big", "prime", "combination") if m else ("big", "prime")))
        if kind == "big":
            row = draw(st.lists(st.one_of(st.just(0), big_entry), min_size=width, max_size=width))
        elif kind == "prime":
            row = [PRIME * v for v in draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))]
        else:
            coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
            row = [sum(a * r[j] for a, r in zip(coefficients, m)) for j in range(width)]
        m.append(row)
    return m


def per_unit(m):
    """``is_consistent`` of ``A x = e_k`` for every k, one system at a time."""
    return [is_consistent(m, [int(i == k) for i in range(len(m))]) for k in range(len(m))]


class TestRank:
    @given(matrices())
    @settings(max_examples=120)
    def test_matches_naive_gauss(self, m):
        assert rank(m) == rank_naive(m)

    def test_duplicated_rows(self):
        row = [Fraction(1), Fraction(2), Fraction(3)]
        assert rank([row, row, [Fraction(0), Fraction(1), Fraction(1)]]) == 2

    def test_rank_deficient_keeps_exactness(self):
        # column skips exercise the Bareiss divisions on a singular matrix
        m = [
            [Fraction(0), Fraction(2), Fraction(4), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(0), Fraction(3), Fraction(6), Fraction(4)],
            [Fraction(0), Fraction(5), Fraction(10), Fraction(9)],
        ]
        assert rank(m) == rank_naive(m) == 2


class TestRankModP:
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(-5, 5), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )
        )
    )
    @settings(max_examples=120)
    def test_matches_exact_rank_on_small_entries(self, m):
        # every minor is at most 5^5 * 5! < PRIME in absolute value, so none
        # vanishes modulo PRIME unless it vanishes
        assert 5**5 * 120 < PRIME
        assert rank_mod_p(m) == rank(m)

    def test_prime_is_a_prime_below_2_to_the_30(self):
        # every residue is a one-digit CPython int, every product below 2^60
        assert 1 < PRIME < 1 << 30
        assert all(PRIME % d for d in range(2, isqrt(PRIME) + 1))

    @given(big_entry_matrices())
    @settings(max_examples=150, deadline=None)
    def test_big_entries_and_prime_multiples(self, m):
        assert rank_mod_p(m) <= rank(m) == rank_naive(m)
        assert unit_consistency(m) == per_unit(m)

    def test_prime_multiples_lose_rank(self):
        assert rank_mod_p([[PRIME, 0], [0, 1]]) == 1
        assert rank_mod_p([[2, 1], [PRIME + 2, 1]]) == 1
        assert rank([[2, 1], [PRIME + 2, 1]]) == 2
        assert rank_mod_p([]) == 0


class TestConsistency:
    @given(matrices(4, 4), st.data())
    @settings(max_examples=80)
    def test_matches_naive(self, m, data):
        rhs = data.draw(st.lists(entry, min_size=len(m), max_size=len(m)))
        assert is_consistent(m, rhs) == solvable_naive(m, rhs)

    def test_inconsistent_system(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert not is_consistent(m, [Fraction(1), Fraction(3)])
        assert is_consistent(m, [Fraction(1), Fraction(2)])

    @given(matrices(5, 5))
    @settings(max_examples=100)
    def test_shared_elimination_matches_per_unit_checks(self, m):
        got = unit_consistency(m)
        for k in range(len(m)):
            rhs = [Fraction(1) if i == k else Fraction(0) for i in range(len(m))]
            assert got[k] == is_consistent(m, rhs)

    @given(wide_rank_deficient())
    @settings(max_examples=100)
    def test_wide_rank_deficient(self, m):
        assert unit_consistency(m) == per_unit(m)

    @pytest.mark.parametrize(
        "m, expected",
        [
            ([[1, 0], [0, PRIME]], [True, True]),
            ([[1, 0], [0, PRIME], [1, PRIME]], [False, False, False]),
            ([[1, 0, 2], [0, PRIME, 0], [1, PRIME, 2], [0, 0, 1]], [False, False, False, True]),
        ],
    )
    def test_modular_pivots_missing_a_column(self, monkeypatch, m, expected):
        # the prime hides a column of A's column space, so the kernel of
        # the modular pivot columns fails the check and all columns are used
        calls = []
        kernel = linalg._left_kernel

        def spy(cols, which, s):
            calls.append(list(which))
            return kernel(cols, which, s)

        monkeypatch.setattr(linalg, "_left_kernel", spy)
        assert unit_consistency(m) == expected == per_unit(m)
        assert calls == [linalg._pivots_mod_p(m), list(range(len(m[0])))]

    def test_full_row_rank_modulo_the_prime_needs_no_kernel(self, monkeypatch):
        monkeypatch.setattr(linalg, "_left_kernel", None)
        assert unit_consistency([[1, 2, 3], [0, 1, PRIME]]) == [True, True]

    @pytest.mark.parametrize("m", [[[], [], []], [[0, 0, 0], [0, 0, 0]], [[0], [0], [0], [0]]])
    def test_zero_columns_and_zero_matrix(self, m):
        assert unit_consistency(m) == per_unit(m) == [False] * len(m)

    def test_no_rows(self):
        assert unit_consistency([]) == []


class TestSolveSquare:
    def test_unique_solution(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
        (x,) = solve_square(m, [[Fraction(3), Fraction(0)]])
        assert x == [Fraction(1), Fraction(1)]

    def test_singular_returns_none(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert solve_square(m, [[Fraction(1), Fraction(1)]]) is None

    def test_multiple_rhs_shared_elimination(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        sols = solve_square(m, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
        assert sols == [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]

    @given(matrices(4, 4), st.data())
    @settings(max_examples=60)
    def test_solution_satisfies_system(self, m, data):
        if len(m) != len(m[0]):
            return
        n = len(m)
        rhs = data.draw(st.lists(entry, min_size=n, max_size=n))
        sols = solve_square(m, [rhs])
        if sols is None:
            assert rank_naive(m) < n
            return
        (x,) = sols
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == rhs[i]


class TestNullspace:
    @given(matrices(4, 5))
    @settings(max_examples=80)
    def test_vectors_annihilate(self, m):
        ncols = len(m[0])
        basis = nullspace_basis(m)
        assert len(basis) == ncols - rank_naive(m)
        for v in basis:
            assert any(c != 0 for c in v)
            for row in m:
                assert sum(row[j] * v[j] for j in range(ncols)) == 0

    def test_full_rank_trivial_kernel(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert nullspace_vector(m) is None


def combinations(m):
    """``m`` with up to two rows appended that are rational combinations of its rows."""
    coeffs = st.lists(st.lists(entry, min_size=len(m), max_size=len(m)), max_size=2)
    return coeffs.map(
        lambda cs: m + [[sum(c * row[j] for c, row in zip(cc, m)) for j in range(len(m[0]))] for cc in cs]
    )


class TestNullspaceAgainstGaussJordan:
    """The shared back-substitution gives exactly the reduced-echelon basis."""

    @given(matrices(4, 7).flatmap(combinations))
    @settings(max_examples=120)
    def test_same_basis_wide_and_deficient(self, m):
        assert nullspace_basis(m) == nullspace_naive(m)

    def test_no_rows(self):
        for k in range(5):
            units = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            assert nullspace_basis([], k) == nullspace_naive([], k) == units
        assert nullspace_basis([]) == nullspace_naive([]) == []
