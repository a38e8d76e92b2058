"""Exact-arithmetic geometry of GC interpolation sets.

The package decides poisedness, computes fundamental polynomials, factors
them into node-pair lines (GC certification), orders used lines into
distribution sequences, verifies the maximal-line (Gasca-Maeztu) property
on generated and user-supplied sets, and checks the dependence of
line-product intersections.  Everything runs over arbitrary-precision
rationals; there is no floating point and no tolerance anywhere.

Each public name is looked up in its home module on access (PEP 562), and a
module is imported the first time one of its names is used, so ``import
gcnlab`` loads no module and a caller, the CLI included, pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Every public name and the module it lives in.
_HOMES = {
    "analysis": (
        "GMReport",
        "IncidenceProfile",
        "SearchSummary",
        "TrialFailure",
        "cayley_bacharach_check",
        "classify_2m_nodes",
        "gm_report_from_certificate",
        "incidence_profile",
        "maximal_lines",
        "search_counterexample",
        "verify_gm",
    ),
    "certification": (
        "GCCertificate",
        "NodeCertificate",
        "certify_gc",
        "line_incidence",
        "used_lines_of",
        "verify_certificate",
    ),
    "errors": (
        "BadRational",
        "CenterInTarget",
        "CountsUnequal",
        "DegenerateIntersection",
        "DuplicateLine",
        "DuplicateNode",
        "GCNLabError",
        "IdenticalLines",
        "IdenticalPoints",
        "InvalidCertificate",
        "LengthMismatch",
        "LineNotUsed",
        "NotDivisible",
        "NotGC",
        "NotPoised",
        "ParallelLines",
        "ParseError",
        "RetryLimitExceeded",
        "TooManyCollinear",
        "ZeroPolynomial",
    ),
    "generators": (
        "DEFAULT_KINDS",
        "GeneratorSpec",
        "gen_principal",
        "generate",
        "generate_with_certificate",
    ),
    "geometry": (
        "Line",
        "NodeSet",
        "Point",
        "Scalar",
        "intersect",
        "is_incident",
        "to_scalar",
    ),
    "interpolation": (
        "FundamentalSolution",
        "all_fundamentals",
        "annihilator",
        "fundamental",
        "interpolate",
        "is_essentially_dependent",
        "is_independent",
        "is_poised",
        "vandermonde",
    ),
    "plotting": ("plot_svg",),
    "polynomials": (
        "MAX_DEGREE",
        "Poly",
        "dim_pi",
        "divide_by_line",
        "evaluate",
        "format_poly",
        "monomials",
        "multiply_line",
    ),
    "sequences": (
        "MDSequence",
        "MLineSequence",
        "enumerate_mdseqs",
        "fixed_first_mdseq",
        "greedy_mdseq",
        "greedy_sequence_for_lines",
        "primary_zero_divisibility",
        "verify_swap_property",
    ),
}

_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
