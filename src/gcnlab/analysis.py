"""Maximal lines, Gasca-Maeztu verification and dependence checks.

A maximal line of a degree-n set passes through exactly n+1 nodes, the
most a poised set permits: a polynomial of degree n vanishing at n+2
points of a line would be divisible by it and force a dependence.  The
Gasca-Maeztu property asks every GC set to contain a maximal line; this
module verifies it instance by instance, classifies nodes sitting on two
maximal lines, computes incidence-count profiles with their exact sum
identity, checks the dependence of line-product intersections, and drives
the randomized falsification harness.

GM verification deliberately requires a prior GC certificate rather than
mere poisedness: the property is stated for GC sets, and reporting a
violation on a merely poised set would be a category error.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, Sequence

from .certification import GCCertificate, certify_gc
from .errors import (
    CenterInTarget,
    DegenerateIntersection,
    GCNLabError,
    IdenticalLines,
    ParallelLines,
    RetryLimitExceeded,
)
from .geometry import Line, NodeSet, Value, _bits, _meet


class GMReport(Value):
    """Outcome of a Gasca-Maeztu check on one certified set.

    ``satisfied`` is true exactly when ``maximal_lines`` is nonempty.  When
    a certified set has no maximal line (which would contradict the proved
    cases, degree <= 5), ``counterexample`` carries the full certificate so
    the configuration can be reproduced and refuted independently.
    """

    __slots__ = _fields = ("degree", "satisfied", "maximal_lines", "counterexample")
    _defaults = {"counterexample": None}


class IncidenceProfile(Value):
    """Counts of lines through a center node by their target-node incidence.

    ``counts[k]`` is the number of lines through the center meeting the
    target in exactly k points.  Since every target point lies on exactly
    one line through the center, ``sum(k * counts[k]) == len(target)``
    holds exactly; the constructor path asserts it.
    """

    __slots__ = _fields = ("center", "target", "counts")


def maximal_lines(xs: NodeSet) -> set[Line]:
    """All lines through exactly degree+1 nodes.

    Raises TooManyCollinear when some line exceeds degree+1 incidences: for
    poised input that indicates an internal bug, for raw input it is a
    validity report.
    """
    return {line for line, _ in xs.maximal}


def _maximal_covers(cert: GCCertificate) -> Iterator[tuple[Line, int]]:
    """The maximal lines of a certified set and their node masks, in line order.

    A maximal line is a factor of the fundamental polynomial of every node
    off it, so the maximal lines are the cover lines with more than n
    nodes (no line of a poised set holds more than n + 1), and the cover
    lines are in line order already.
    """
    n = cert.degree
    return ((line, mask) for line, mask in zip(cert.lines, cert.masks) if mask.bit_count() > n)


def gm_report_from_certificate(cert: GCCertificate) -> GMReport:
    """Build the GM report for an already-certified set, from its cover table."""
    n = cert.degree
    maximal = tuple((line, _bits(mask)) for line, mask in _maximal_covers(cert))
    satisfied = bool(maximal)
    return GMReport(
        degree=n,
        satisfied=satisfied,
        maximal_lines=maximal,
        counterexample=None if satisfied else cert,
    )


def verify_gm(xs: NodeSet) -> GMReport:
    """Certify the set, then report whether it contains a maximal line.

    Raises NotPoised or NotGC (from certification) when the precondition
    fails; the GM property is only meaningful for GC sets.
    """
    if xs.degree < 1:
        raise ValueError("the maximal-line property needs degree >= 1")
    return gm_report_from_certificate(certify_gc(xs))


def classify_2m_nodes(xs: NodeSet) -> set[int]:
    """Indices of nodes lying on at least two maximal lines."""
    tally: dict[int, int] = {}
    for _, ids in xs.maximal:
        for j in ids:
            tally[j] = tally.get(j, 0) + 1
    return {j for j, c in tally.items() if c >= 2}


def incidence_profile(
    xs: NodeSet, center: int, target: Sequence[int] | None = None
) -> IncidenceProfile:
    """Group a target set by the lines joining it to a center node.

    The lines are the set's index lines through the center.  A target
    index out of range raises IndexError, the center in the target
    CenterInTarget and a repeated target index ValueError.  The exact
    identity ``sum(k * counts[k]) == len(target)`` is asserted before
    returning (each target node lies on exactly one joining line).
    """
    if not 0 <= center < len(xs):
        raise IndexError(f"center index {center} out of range")
    if target is None:
        ids = tuple(j for j in range(len(xs)) if j != center)
    else:
        ids = tuple(target)
        for j in ids:
            if not 0 <= j < len(xs):
                raise IndexError(f"target index {j} out of range")
    if center in ids:
        raise CenterInTarget(f"center {center} must not belong to the target")
    if len(set(ids)) != len(ids):
        raise ValueError(f"target {ids} repeats a node index")
    target_mask = sum(1 << j for j in ids)
    counts: dict[int, int] = {}
    for mask in xs.keys.values():
        k = (mask & target_mask).bit_count() if mask >> center & 1 else 0
        if k:
            counts[k] = counts.get(k, 0) + 1
    if sum(k * c for k, c in counts.items()) != len(ids):
        raise GCNLabError("internal: incidence sum identity violated")
    return IncidenceProfile(center=center, target=ids, counts=counts)


def cayley_bacharach_check(lines_m: Sequence[Line], lines_n: Sequence[Line]) -> bool:
    """Dependence of the intersection points of two line products.

    The product curves of the two groups (degrees m and n) must meet at
    exactly m*n distinct points: every cross pair non-parallel and all
    cross intersections distinct, otherwise DegenerateIntersection is
    raised.  Returns True iff those points are essentially
    (m+n-3)-dependent, i.e. no point has a fundamental polynomial at that
    degree (each inhomogeneous system is infeasible by rank).

    The check stays on integers: each meet is the integer point
    ``(X, Y, W)``, W > 0, that :func:`~gcnlab.geometry.intersect` divides
    out, the meets are put over the lcm of their W, and the set is built
    from those integer nodes with ``NodeSet._scaled``, which gives the
    index the constructor builds from the points.
    """
    m, n = len(lines_m), len(lines_n)
    if m < 1 or n < 1 or m + n < 3:
        raise ValueError("need line groups of degrees m, n with m + n >= 3")
    from .interpolation import is_essentially_dependent

    meets = []
    for la in lines_m:
        for lb in lines_n:
            try:
                meets.append(_meet(la, lb))
            except (ParallelLines, IdenticalLines) as exc:
                raise DegenerateIntersection(f"{la} and {lb} do not meet transversally") from exc
    scale = lcm(*(w for _, _, w in meets))
    coords = [(x * (scale // w), y * (scale // w)) for x, y, w in meets]
    distinct = len(set(coords))
    if distinct != m * n:
        raise DegenerateIntersection(f"only {distinct} distinct intersection points, expected {m * n}")
    return is_essentially_dependent(NodeSet._scaled(m + n - 3, scale, coords), m + n - 3)


class TrialFailure(Value):
    """One failed trial of the falsification harness."""

    __slots__ = _fields = ("trial", "kind", "seed", "reason", "certificate")


class SearchSummary(Value):
    """Aggregate outcome of a falsification run.

    ``use_count_max`` maps the node count of a line class to the largest
    number of nodes observed using one line of that class; the histogram is
    reported as data, no bound is asserted.
    """

    __slots__ = _fields = (
        "degree", "trials", "seed", "kinds", "coordinate_bound", "certified", "gm_satisfied",
        "failures", "use_count_max",
    )

    @property
    def all_satisfied(self) -> bool:
        return self.certified == self.trials and self.gm_satisfied == self.trials


def search_counterexample(
    degree: int,
    trials: int,
    seed: int,
    kinds: Sequence[str] | None = None,
    coordinate_bound: int = 8,
) -> SearchSummary:
    """Generate seeded GC sets and look for one without a maximal line.

    Trials round-robin over the generator kinds; trial ``i`` runs with the
    derived seed ``substream_seed(seed, i)``, so results are reproducible
    and independent of execution order.  Each trial's certificate is
    constructed with its set and verified (see :mod:`gcnlab.generators`),
    and the GM verdict and use counts are read off its cover lines.  A
    trial whose draw exhausts the generator's retry budget is recorded as
    a failure and the sweep goes on.  For degree <= 5 every certified set
    must turn out GM-satisfied; a failure dump would be a refutation of a
    proved statement and deserves independent scrutiny.

    Raises ValueError when ``trials`` is less than 1 or ``kinds`` is empty.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    from .generators import DEFAULT_KINDS, GeneratorSpec, generate_with_certificate
    from .rng import substream_seed

    kind_cycle = tuple(kinds) if kinds is not None else DEFAULT_KINDS
    if not kind_cycle:
        raise ValueError("need at least one generator kind")
    certified = 0
    satisfied = 0
    failures: list[TrialFailure] = []
    use_count_max: dict[int, int] = {}
    for i in range(trials):
        kind = kind_cycle[i % len(kind_cycle)]
        trial_seed = substream_seed(seed, i)
        spec = GeneratorSpec(
            kind=kind, degree=degree, seed=trial_seed, coordinate_bound=coordinate_bound
        )
        try:
            _, cert = generate_with_certificate(spec)
        except RetryLimitExceeded as exc:
            failures.append(
                TrialFailure(trial=i, kind=kind, seed=trial_seed, reason=str(exc), certificate=None)
            )
            continue
        certified += 1
        if any(_maximal_covers(cert)):
            satisfied += 1
        else:
            failures.append(
                TrialFailure(
                    trial=i, kind=kind, seed=trial_seed, reason="no maximal line", certificate=cert
                )
            )
        # the lines of one node's cover are distinct, so a line's count is
        # the number of nodes that use it
        uses = [0] * len(cert.lines)
        for cover in cert.covers:
            for f in cover:
                uses[f] += 1
        for mask, count in zip(cert.masks, uses):
            node_count = mask.bit_count()
            if count > use_count_max.get(node_count, 0):
                use_count_max[node_count] = count
    return SearchSummary(
        degree=degree,
        trials=trials,
        seed=seed,
        kinds=kind_cycle,
        coordinate_bound=coordinate_bound,
        certified=certified,
        gm_satisfied=satisfied,
        failures=tuple(failures),
        use_count_max=use_count_max,
    )
