"""JSON interchange for node sets, certificates, reports and summaries.

Rationals travel as the exact strings ``"p"`` or ``"p/q"``; decimal floats
never appear anywhere in a schema, so a load/save round trip reproduces
every value bit for bit.  Dumps are canonical (sorted keys, two-space
indent, a single trailing newline, lists in node/canonical-line order),
which is what makes the byte-identical determinism guarantee testable.

The node-set codec and the canonical-JSON helpers live in
:mod:`gcnlab.nodefile`, which needs only :mod:`gcnlab.geometry` and
:mod:`gcnlab.errors`; this module re-exports its public names, so
``gcnlab.serialization.load_nodeset`` and the rest still resolve.  This
module holds the writers.  The loaders of certificates, reports, summaries
and polynomials (``load_*``, ``*_from_dict``) live in
:mod:`gcnlab._loaders`, and their names here are resolved on first access
(PEP 562).  A CLI command compiles every module it imports from source when
no bytecode is written or shipped (``PYTHONDONTWRITEBYTECODE``), so
``certify-gc``, ``verify-gm``, ``fundamental`` and ``search``, which only
write a document, compile the writers alone; ``check-cert`` compiles both.
Each loader imports the types it builds when it runs, so importing this
module pulls in no gcnlab module but ``nodefile``, ``geometry`` and
``errors``.  A certificate's constants are written from the integer pairs
its entries keep, as a node file's coordinates are, so writing one builds
no Fraction.

Schemas
-------
node set:     {"degree": n, "nodes": [["p/q", "p/q"], ...], "labels": [...]?}
certificate:  {"degree": n, "nodes": [...], "entries": [
                  {"node": k, "constant": "p/q", "lines": [[a, b, c], ...],
                   "witnesses": {"a,b,c": [j, ...]}}, ...]}
report:       {"degree": n, "satisfied": bool,
               "maximal_lines": [{"line": [a, b, c], "nodes": [j, ...]}, ...],
               "counterexample": certificate | null}
summary:      {"degree": n, "trials": T, "seed": s, "kinds": [...],
               "coordinate_bound": B, "certified": c, "gm_satisfied": g,
               "failures": [{"trial": i, "kind": ..., "seed": ...,
                             "reason": ..., "certificate": certificate | null}],
               "use_count_max": {"nodes-on-line": max-uses}}
polynomial:   {"degree": n, "coefficients": ["p/q", ...]}   (graded-lex order)

Every certificate a loader returns, a report's counterexample and a
summary's failure certificates included, is built by the constructor of
:class:`~gcnlab.certification.GCCertificate`, so it has passed
:func:`~gcnlab.certification.verify_certificate` once.  A report is
satisfied exactly when it lists a maximal line, and it carries a
counterexample, of its own degree, exactly when it is not satisfied.  A
summary has a nonnegative degree, at least one trial, one or more kinds
from ``generators.DEFAULT_KINDS``, a coordinate bound of at least 1,
``0 <= gm_satisfied <= certified <= trials``, one failure per trial that
is not GM-satisfied, each naming a distinct trial in ``range(trials)``
and its kind ``kinds[trial % len(kinds)]``, and a certificate of its own
degree on exactly the ``certified - gm_satisfied`` failures of certified
sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# The node-file codec lives in nodefile, which every command loads; its
# public names are this module's too.
from .nodefile import (
    _dumps,
    _format_ratio,
    _line_key,
    format_rational,
    load_nodeset,
    maximal_lines_to_list,
    nodeset_from_dict,
    nodeset_to_dict,
    parse_rational,
    save_nodeset,
)

if TYPE_CHECKING:
    from .analysis import GMReport, SearchSummary
    from .certification import GCCertificate
    from .polynomials import Poly

#: The loaders, defined in :mod:`gcnlab._loaders` and imported when one is first read.
_LOADERS = frozenset(
    (
        "certificate_from_dict", "load_certificate", "load_report", "load_summary",
        "poly_from_dict", "report_from_dict", "summary_from_dict",
    )
)

__all__ = sorted(
    _LOADERS | {
        "certificate_to_dict", "format_rational", "load_nodeset", "maximal_lines_to_list",
        "nodeset_from_dict", "nodeset_to_dict", "parse_rational", "poly_to_dict",
        "report_to_dict", "save_certificate", "save_nodeset", "save_report", "save_summary",
        "summary_to_dict",
    }
)


def __getattr__(name):
    if name not in _LOADERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _loaders

    return getattr(_loaders, name)


def __dir__():
    return sorted({*globals(), *_LOADERS})


# --- polynomials --------------------------------------------------------------

def poly_to_dict(p: Poly) -> dict:
    return {
        "degree": p.degree_bound,
        "coefficients": [format_rational(c) for c in p.coeffs],
    }


# --- certificates --------------------------------------------------------------

def certificate_to_dict(cert: GCCertificate) -> dict:
    entries = []
    for e in cert.entries:
        entries.append(
            {
                "node": e.node_index,
                "constant": _format_ratio(*e._ratio),
                "lines": [list(l.coefficients) for l in e.lines],
                "witnesses": {_line_key(l): list(w) for l, w in sorted(e.witnesses.items())},
            }
        )
    doc = nodeset_to_dict(cert.nodeset)
    doc["entries"] = entries
    return doc


def save_certificate(cert: GCCertificate) -> str:
    return _dumps(certificate_to_dict(cert))


# --- GM reports -----------------------------------------------------------------

def report_to_dict(report: GMReport) -> dict:
    return {
        "degree": report.degree,
        "satisfied": report.satisfied,
        "maximal_lines": maximal_lines_to_list(report.maximal_lines),
        "counterexample": None
        if report.counterexample is None
        else certificate_to_dict(report.counterexample),
    }


def save_report(report: GMReport) -> str:
    return _dumps(report_to_dict(report))


# --- search summaries -------------------------------------------------------------

def summary_to_dict(summary: SearchSummary) -> dict:
    return {
        "degree": summary.degree,
        "trials": summary.trials,
        "seed": summary.seed,
        "kinds": list(summary.kinds),
        "coordinate_bound": summary.coordinate_bound,
        "certified": summary.certified,
        "gm_satisfied": summary.gm_satisfied,
        "failures": [
            {
                "trial": f.trial,
                "kind": f.kind,
                "seed": f.seed,
                "reason": f.reason,
                "certificate": None if f.certificate is None else certificate_to_dict(f.certificate),
            }
            for f in summary.failures
        ],
        "use_count_max": {str(k): v for k, v in sorted(summary.use_count_max.items())},
    }


def save_summary(summary: SearchSummary) -> str:
    return _dumps(summary_to_dict(summary))


