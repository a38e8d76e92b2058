"""Greedy line sequences: counts, primary assignment, swap law, divisibility."""

from collections import Counter
from fractions import Fraction

import pytest

from gcnlab import (
    DEFAULT_KINDS,
    CountsUnequal,
    GeneratorSpec,
    Line,
    LineNotUsed,
    MDSequence,
    MLineSequence,
    NodeSet,
    Point,
    Poly,
    certify_gc,
    dim_pi,
    enumerate_mdseqs,
    fixed_first_mdseq,
    generate_with_certificate,
    greedy_mdseq,
    greedy_sequence_for_lines,
    is_incident,
    line_incidence,
    multiply_line,
    primary_zero_divisibility,
    used_lines_of,
    verify_swap_property,
)
from gcnlab.linalg import nullspace_basis
from gcnlab.rng import SplitMix64
from gcnlab.sequences import _distributions

from oracles import (
    enumerate_mdseqs_dfs,
    greedy_counts_recount,
    greedy_order_fraction,
    line_through,
    vandermonde_naive,
    verify_swap_property_fraction,
)


def with_primary(seq, primary):
    """``seq`` with its primary map replaced."""
    return MLineSequence(
        seq.node_index, seq.nodeset, seq.used, seq.lines, seq.counts, primary, seq.fixed_first
    )


def recount(xs, seq):
    pts = [(p.x, p.y) for p in xs.nodes]
    return greedy_counts_recount(pts, [l.coefficients for l in seq.lines])


class TestGreedyCounts:
    def test_chung_yao_degree5_cascade(self, cy5_pair):
        xs, cert = cy5_pair
        for k in range(len(xs)):
            seq = greedy_mdseq(cert, k)
            assert seq.counts == (6, 5, 4, 3, 2)
            assert recount(xs, seq) == seq.counts  # independent incidence recount

    def test_chung_yao_degree2(self, cy2, cy2_cert):
        for k in range(len(cy2)):
            seq = greedy_mdseq(cy2_cert, k)
            assert seq.counts == (3, 2)
            assert recount(cy2, seq) == seq.counts

    def test_degree_one_single_line(self, triangle):
        cert = certify_gc(triangle)
        for k in range(3):
            assert greedy_mdseq(cert, k).counts == (2,)

    def test_counts_sum_to_dimension_minus_one(self, cy3_pair, principal5_cert):
        xs, cert = cy3_pair
        for k in range(len(xs)):
            assert sum(greedy_mdseq(cert, k).counts) == dim_pi(xs.degree) - 1
        for k in range(21):
            assert sum(greedy_mdseq(principal5_cert, k).counts) == dim_pi(5) - 1

    def test_every_count_at_least_two(self, cy3_pair):
        xs, cert = cy3_pair
        for k in range(len(xs)):
            seq = greedy_mdseq(cert, k)
            assert all(c >= 2 for c in seq.counts)
            # the >= 2 primary nodes are exhibited by the assignment itself
            for pos, count in enumerate(seq.counts):
                assert sum(1 for p in seq.primary.values() if p == pos) == count

    def test_greedy_optimality_certificate(self, cy5_pair):
        # at every step, no unused line of the pool covers more uncovered nodes
        xs, cert = cy5_pair
        for k in range(0, len(xs), 5):
            seq = greedy_mdseq(cert, k)
            incidence = {
                l: {j for j, p in enumerate(xs.nodes) if is_incident(p, l)} for l in seq.used
            }
            remaining = set(range(len(xs)))
            pool = set(seq.used)
            for pos, line in enumerate(seq.lines):
                best = max(len(incidence[l] & remaining) for l in pool)
                assert len(incidence[line] & remaining) == best == seq.counts[pos]
                remaining -= incidence[line]
                pool.remove(line)

    def test_primary_assignment_is_partition(self, cy5_pair):
        xs, cert = cy5_pair
        for k in range(0, len(xs), 4):
            seq = greedy_mdseq(cert, k)
            covered = set(seq.primary)
            assert covered == set(range(len(xs))) - {k}
            for j, pos in seq.primary.items():
                node = xs.nodes[j]
                assert is_incident(node, seq.lines[pos])
                for earlier in range(pos):
                    assert not is_incident(node, seq.lines[earlier])


class TestEnumerate:
    def test_chung_yao_degree3_singleton(self, cy3_pair):
        xs, cert = cy3_pair
        for k in range(len(xs)):
            assert enumerate_mdseqs(cert, k) == {MDSequence((4, 3, 2))}

    def test_principal5_singletons(self, principal5_cert):
        for k in range(21):
            assert enumerate_mdseqs(principal5_cert, k) == {MDSequence((6, 5, 4, 3, 2))}

    def test_degree_one_trivial(self, triangle):
        cert = certify_gc(triangle)
        assert enumerate_mdseqs(cert, 0) == {MDSequence((2,))}


def chain_structure():
    """A hand-built node set and used-line set whose ties reach two count vectors.

    Node 8's "used" lines are three 3-node lines A (y = 0), B (x = 2) and
    C (y = 2) chained at (2, 0) and (2, 2), plus D (x + y = 12), which
    passes through node 7 only and so is no node-pair line.  A, B and C
    tie at the first step: starting with A or C gives (3, 3, 1, 1),
    starting with B gives (3, 2, 2, 1).  No cover table holds these lines,
    so the tests hand them to the mask-level engine of enumerate_mdseqs.
    """
    nodes = (
        Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 1), Point(2, 2),
        Point(3, 2), Point(4, 2), Point(5, 7), Point(9, 9),
    )
    lines = (Line(0, 1, -2), Line(0, 1, 0), Line(1, 0, -2), Line(1, 1, -12))  # C, A, B, D
    return NodeSet(3, nodes), lines


def distributions(xs, lines):
    """The count vectors that enumerate_mdseqs gives for ``lines`` over ``xs``."""
    return _distributions([xs.incidence.zero_mask(line) for line in sorted(lines)], len(xs))


class TestAgainstStackWalk:
    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_generated_sets_every_node(self, kind, degree):
        xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
        for k in range(len(xs)):
            assert enumerate_mdseqs(cert, k) == enumerate_mdseqs_dfs(xs, used_lines_of(cert, k))

    def test_ties_with_two_count_vectors(self):
        xs, lines = chain_structure()
        expected = {MDSequence((3, 3, 1, 1)), MDSequence((3, 2, 2, 1))}
        assert enumerate_mdseqs_dfs(xs, lines) == expected
        assert distributions(xs, lines) == expected

    def test_random_hand_built_line_sets(self):
        # lines through random node pairs of a 4x4 grid, so ties and
        # overlaps are common; several count vectors must show up
        grid = tuple(Point(x, y) for x in range(4) for y in range(4))
        xs = NodeSet(4, grid)
        rng = SplitMix64(2)
        multiple = 0
        for _ in range(60):
            lines = set()
            while len(lines) < 5:
                i, j = rng.randint(0, 15), rng.randint(0, 15)
                if i != j:
                    lines.add(line_through(grid[i], grid[j]))
            expected = enumerate_mdseqs_dfs(xs, lines)
            assert distributions(xs, lines) == expected
            multiple += len(expected) > 1
        assert multiple > 0


class TestFixedFirst:
    def test_any_maximal_first_line_keeps_cascade(self, cy5_pair):
        xs, cert = cy5_pair
        for line in used_lines_of(cert, 0):
            seq = fixed_first_mdseq(cert, 0, line)
            assert seq.counts == (6, 5, 4, 3, 2)
            assert seq.fixed_first == line and seq.lines[0] == line

    def test_line_not_used(self, cy2_cert):
        with pytest.raises(LineNotUsed):
            fixed_first_mdseq(cy2_cert, 0, Line(97, 89, 1))

    def test_line_not_used_by_a_bare_line_set(self, triangle):
        # checked before the first step: an empty set of lines has none
        for used in ([], [Line(0, 1, 0)]):
            with pytest.raises(LineNotUsed, match=r"Line\(1, 0, 0\) is not used by node 0"):
                greedy_sequence_for_lines(triangle, 0, used, fixed_first=Line(1, 0, 0))

    def test_tail_non_increasing_on_generated_sets(self):
        for degree, seed in ((3, 5), (4, 9)):
            xs, cert = generate_with_certificate(GeneratorSpec("chung_yao", degree, seed=seed))
            for k in range(len(xs)):
                for line in used_lines_of(cert, k):
                    seq = fixed_first_mdseq(cert, k, line)
                    tail = seq.counts[1:]
                    assert all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
                    assert sum(seq.counts) == dim_pi(degree) - 1


def parallel_rows_structure():
    """Seven nodes, two disjoint 3-node used lines: counts (3, 3)."""
    nodes = (
        Point(0, 0), Point(1, 0), Point(2, 0),
        Point(0, 1), Point(1, 1), Point(2, 1),
        Point(5, 5),
    )
    xs = NodeSet(2, nodes)
    used = (Line(0, 1, 0), Line(0, 1, -1))
    return greedy_sequence_for_lines(xs, 6, used)


def crossing_structure():
    """A 4-node line then two 3-node lines crossing at a node it covers."""
    nodes = (
        Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0),
        Point(0, 1), Point(0, 2),
        Point(1, 1), Point(2, 2),
        Point(9, 7),
    )
    xs = NodeSet(3, nodes)
    used = (Line(0, 1, 0), Line(1, 0, 0), Line(1, -1, 0))
    return xs, greedy_sequence_for_lines(xs, 8, used)


class TestSwapProperty:
    def test_parallel_equal_counts(self):
        seq = parallel_rows_structure()
        assert seq.counts == (3, 3)
        assert verify_swap_property(seq, 0)

    def test_crossing_secondary_for_both(self):
        xs, seq = crossing_structure()
        assert seq.counts == (4, 2, 2)
        # the two equal-count lines cross at (0, 0), primary for position 0
        assert verify_swap_property(seq, 1)

    def test_corrupted_primary_detected(self):
        xs, seq = crossing_structure()
        bad_primary = dict(seq.primary)
        bad_primary[0] = 1  # claim the crossing is primary for a swapped line
        corrupted = type(seq)(
            node_index=seq.node_index,
            nodeset=seq.nodeset,
            used=seq.used,
            lines=seq.lines,
            counts=seq.counts,
            primary=bad_primary,
            fixed_first=None,
        )
        assert not verify_swap_property(corrupted, 1)

    def test_non_greedy_swap_detected(self):
        # hand-built ordering whose swap is not greedy: a 4-node line is
        # still unused while two 3-node lines claim the first positions
        nodes = tuple(Point(t, 0) for t in range(4)) + (
            Point(0, 1), Point(1, 1), Point(2, 1),
            Point(0, 2), Point(1, 2), Point(2, 2),
            Point(9, 9),
        )
        xs = NodeSet(3, nodes)
        big, row1, row2 = Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2)
        seq = greedy_sequence_for_lines(xs, 10, (big, row1, row2))
        assert seq.counts == (4, 3, 3)
        fake = type(seq)(
            node_index=10,
            nodeset=xs,
            used=seq.used,
            lines=(row1, row2, big),
            counts=(3, 3, 4),
            primary=seq.primary,
            fixed_first=None,
        )
        assert not verify_swap_property(fake, 0)

    def test_crossing_off_the_node_set(self):
        # x = 0 and y = 0 hold two nodes each and meet at (0, 0), no node
        xs = NodeSet(2, (Point(0, 1), Point(0, 2), Point(1, 0), Point(2, 0), Point(5, 5)))
        seq = greedy_sequence_for_lines(xs, 4, (Line(1, 0, 0), Line(0, 1, 0)))
        assert seq.counts == (2, 2)
        assert verify_swap_property(seq, 0)
        # every node claimed late would fail a crossing at a node, not this one
        late = with_primary(seq, {j: 1 for j in seq.primary})
        assert verify_swap_property(late, 0)

    def test_counts_unequal_rejected(self, cy5_pair):
        xs, cert = cy5_pair
        seq = greedy_mdseq(cert, 0)
        with pytest.raises(CountsUnequal):
            verify_swap_property(seq, 0)

    def test_position_out_of_range(self):
        seq = parallel_rows_structure()
        with pytest.raises(IndexError):
            verify_swap_property(seq, 1)


def sample_vanishing_poly(degree, constraints, seed):
    """A random polynomial of the given degree vanishing at all constraint points."""
    basis = nullspace_basis(vandermonde_naive(constraints, degree))
    rng = SplitMix64(seed)
    while True:
        coeffs = [Fraction(0)] * dim_pi(degree)
        for vec in basis:
            w = rng.randint(-5, 5)
            coeffs = [c + w * v for c, v in zip(coeffs, vec)]
        p = Poly(degree, tuple(coeffs))
        if not p.is_zero():
            return p


class TestSwapAgainstFractionOracle:
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_every_equal_count_position(self, degree):
        rng = SplitMix64(degree)
        outcomes = Counter()
        for kind in DEFAULT_KINDS:
            xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            seqs = [greedy_mdseq(cert, k) for k in range(len(xs))]
            # the generated sets' greedy counts fall strictly, so seeded
            # families of node-pair lines and lines through one node add ties
            pair_lines = list(line_incidence(xs))
            for t in range(12):
                used = {pair_lines[rng.randint(0, len(pair_lines) - 1)] for _ in range(degree + 2)}
                for _ in range(2):
                    p = xs.nodes[rng.randint(0, len(xs) - 1)]
                    a, b = rng.randint(1, 5), rng.randint(-5, 5)
                    used.add(Line.from_rationals(a, b, -(a * p.x + b * p.y)))
                first = min(used) if t % 2 else None
                seqs.append(greedy_sequence_for_lines(xs, 0, used, fixed_first=first))
            for seq in seqs:
                for i in range(len(seq.lines) - 1):
                    if seq.counts[i] != seq.counts[i + 1]:
                        continue
                    early = {j: 0 for j in seq.primary}
                    late = {j: len(seq.lines) for j in seq.primary}
                    for primary in (seq.primary, early, late):
                        variant = with_primary(seq, primary)
                        got = verify_swap_property(variant, i)
                        assert got == verify_swap_property_fraction(variant, i)
                        outcomes[got] += 1
        assert outcomes[True] and outcomes[False]


def tie_families(xs, degree, rng):
    """The seeded used-line families of TestSwapAgainstFractionOracle, drawn the same way."""
    pair_lines = list(line_incidence(xs))
    for _ in range(12):
        used = {pair_lines[rng.randint(0, len(pair_lines) - 1)] for _ in range(degree + 2)}
        for _ in range(2):
            p = xs.nodes[rng.randint(0, len(xs) - 1)]
            a, b = rng.randint(1, 5), rng.randint(-5, 5)
            used.add(Line.from_rationals(a, b, -(a * p.x + b * p.y)))
        yield used


def assert_greedy_matches_oracle(xs, k, used, fixed_first=None):
    seq = greedy_sequence_for_lines(xs, k, used, fixed_first=fixed_first)
    assert (seq.lines, seq.counts, seq.primary) == greedy_order_fraction(xs, used, fixed_first)
    return seq


class TestGreedyAgainstFractionOracle:
    """Which tied line greedy takes, against Fraction incidence and least-Line ties."""

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("degree", range(1, 8))
    def test_generated_sets_every_node(self, kind, degree):
        xs, cert = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
        for k in range(len(xs)):
            assert_greedy_matches_oracle(xs, k, used_lines_of(cert, k))

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_tie_families(self, degree):
        rng = SplitMix64(degree)
        tied_steps = 0
        for kind in DEFAULT_KINDS:
            xs, _ = generate_with_certificate(GeneratorSpec(kind, degree, seed=degree))
            for used in tie_families(xs, degree, rng):
                for first in (None, *sorted(used)):
                    seq = assert_greedy_matches_oracle(xs, 0, used, first)
                    # equal counts at steps s, s+1 mean the later line tied at step s
                    start = 0 if first is None else 1
                    tied_steps += sum(
                        seq.counts[s] == seq.counts[s + 1] for s in range(start, len(seq.counts) - 1)
                    )
        assert tied_steps


class TestIncidenceReads:
    def test_bare_set_never_builds_line_keys(self):
        # only the integer nodes are read, not the all-pairs line map
        xs, seq = crossing_structure()
        assert verify_swap_property(seq, 1)
        assert "keys" not in vars(xs.incidence)


class TestPrimaryZeroDivisibility:
    def test_single_line_forced_division(self):
        line = Line(1, 1, -3)
        pts = [Point(t, 3 - t) for t in range(5)]
        p = sample_vanishing_poly(4, pts, seed=77)
        r = primary_zero_divisibility(p, [(line, pts)])
        assert multiply_line(r, line) == p

    def test_round_trip_recovers_factor(self):
        l1, l2 = Line(1, 0, 0), Line(0, 1, -1)
        r = Poly.from_coeff_dict({(1, 0): 2, (0, 0): -1}, 1)
        p = multiply_line(multiply_line(r, l1), l2)  # degree 3, m = 4
        pts1 = [Point(0, t) for t in (0, 2, 3, 5)]       # 4 zeros on x = 0
        pts2 = [Point(t, 1) for t in (1, 2, 3)]          # 3 zeros on y = 1, off x = 0
        out = primary_zero_divisibility(p, [(l1, pts1), (l2, pts2)])
        assert out == r

    def test_two_line_sampled_instance(self):
        l1, l2 = Line(0, 1, 0), Line(1, 0, 0)
        pts1 = [Point(t, 0) for t in range(-2, 3)]                 # 5 on y = 0
        pts2 = [Point(0, t) for t in (1, 2, 3, -1)]                # 4 on x = 0, off y = 0
        p = sample_vanishing_poly(4, pts1 + pts2, seed=13)
        r = primary_zero_divisibility(p, [(l1, pts1), (l2, pts2)])
        assert multiply_line(multiply_line(r, l2), l1) == p

    def test_count_pattern_enforced(self):
        line = Line(0, 1, 0)
        pts = [Point(t, 0) for t in range(4)]
        p = sample_vanishing_poly(4, pts, seed=5)
        with pytest.raises(ValueError):
            primary_zero_divisibility(p, [(line, pts)])  # needs 5 points, got 4

    def test_point_off_line_rejected(self):
        line = Line(0, 1, 0)
        pts = [Point(t, 0) for t in range(4)] + [Point(0, 1)]
        p = Poly.zero(4) + Poly.from_coeff_dict({(0, 1): 1}, 4)
        with pytest.raises(ValueError):
            primary_zero_divisibility(p, [(line, pts)])

    def test_point_on_earlier_line_rejected(self):
        l1, l2 = Line(0, 1, 0), Line(1, 0, 0)
        pts1 = [Point(t, 0) for t in range(-2, 3)]
        pts2 = [Point(0, t) for t in (0, 1, 2, 3)]  # (0, 0) sits on l1
        p = sample_vanishing_poly(4, pts1 + pts2[1:], seed=9)
        if p.at(Point(0, 0)) != 0:
            with pytest.raises(ValueError):
                primary_zero_divisibility(p, [(l1, pts1), (l2, pts2)])

    def test_nonvanishing_rejected(self):
        line = Line(0, 1, 0)
        pts = [Point(t, 0) for t in range(5)]
        p = Poly.constant(1, 4)
        with pytest.raises(ValueError):
            primary_zero_divisibility(p, [(line, pts)])
