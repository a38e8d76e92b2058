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
module reads and writes certificates, reports, summaries and polynomials.
Each reader imports the types it builds when it runs, so importing this
module pulls in no gcnlab module but ``nodefile``, ``geometry`` and
``errors``, and a CLI command that reads or writes no such document does
not load it.  A certificate is written from its cover table's integer
derivation of each node (``GCCertificate._derivations``: the constant as
an integer pair, the cover and the witness masks) and read back against
it: lines and witness keys parse as canonical triples, constants compare
as integer pairs (so an unreduced ``"3/6"`` loads), and a
:class:`~gcnlab.geometry.Line` or a ``"p/q"`` is built only to word a
mismatch, so neither direction loads :mod:`fractions`.

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

import re
from typing import TYPE_CHECKING, Any

from .errors import ParseError
from .geometry import Line, Triple, _bits, _canonical

# The node-file codec lives in nodefile, which every command loads; its
# public names are this module's too.
from .nodefile import (
    _dumps,
    _expect,
    _format_ratio,
    _is_int,
    _loads,
    _ratio,
    _too_long,
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

__all__ = [
    "certificate_from_dict", "certificate_to_dict", "format_rational", "load_certificate",
    "load_nodeset", "load_report", "load_summary", "maximal_lines_to_list",
    "nodeset_from_dict", "nodeset_to_dict", "parse_rational", "poly_from_dict",
    "poly_to_dict", "report_from_dict", "report_to_dict", "save_certificate",
    "save_nodeset", "save_report", "save_summary", "summary_from_dict", "summary_to_dict",
]

_INTEGER_RE = re.compile(r"-?[0-9]+")


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


# --- polynomials --------------------------------------------------------------

def poly_to_dict(p: Poly) -> dict:
    return {
        "degree": p.degree_bound,
        "coefficients": [format_rational(c) for c in p.coeffs],
    }


def poly_from_dict(doc: Any) -> Poly:
    from .polynomials import MAX_DEGREE, Poly, dim_pi

    _expect(isinstance(doc, dict), "polynomial document must be an object")
    degree = doc.get("degree")
    _expect(_is_int(degree) and degree >= 0, "field 'degree' must be a nonnegative integer")
    _expect(degree <= MAX_DEGREE, f"field 'degree' must be at most {MAX_DEGREE}")
    coeffs = doc.get("coefficients")
    _expect(isinstance(coeffs, list) and len(coeffs) == dim_pi(degree),
            f"field 'coefficients' must list {dim_pi(degree)} rationals")
    return Poly(degree, tuple(parse_rational(c) for c in coeffs))


# --- certificates --------------------------------------------------------------

def _line_key(triple: Triple) -> str:
    """A line's triple as the ``"a,b,c"`` key of a certificate's witnesses."""
    return "%d,%d,%d" % triple


def certificate_to_dict(cert: GCCertificate) -> dict:
    triples = cert.triples
    entries = []
    for k, (ratio, cover, witnesses) in enumerate(cert._derivations()):
        entries.append(
            {
                "node": k,
                "constant": _format_ratio(*ratio),
                "lines": [list(triples[f]) for f in cover],
                "witnesses": {_line_key(triples[f]): list(_bits(w)) for f, w in zip(cover, witnesses)},
            }
        )
    doc = nodeset_to_dict(cert.nodeset)
    doc["entries"] = entries
    return doc


def save_certificate(cert: GCCertificate) -> str:
    return _dumps(certificate_to_dict(cert))


def _triple(value: Any, context: str) -> Triple:
    """The canonical ``[a, b, c]`` triple ``value``, as a tuple; ParseError for any other spelling."""
    _expect(
        _is_int_list(value) and len(value) == 3,
        f"{context}: a line must be an [a, b, c] integer triple",
    )
    try:
        triple = _canonical(*value)
    except ValueError as exc:
        raise ParseError(f"{context}: {value} is not a line: {exc}") from None
    if list(triple) != value:
        raise ParseError(f"{context}: {value} is not canonical; {Line(*triple)} is {list(triple)}")
    return triple


def certificate_from_dict(doc: Any) -> GCCertificate:
    """Parse a certificate document and verify it.

    Raises ParseError when the document breaks its schema and
    InvalidCertificate when the certificate it holds breaks the rule of
    :func:`~gcnlab.certification.verify_certificate`.  The entries' lines,
    as canonical triples, become a cover table, which its constructor
    verifies; then each entry's constant, line order and witnesses must
    equal the table's derivation of them, compared in integers.
    """
    from .certification import GCCertificate, _invalid

    xs = nodeset_from_dict(doc)
    raw_entries = doc.get("entries")
    _expect(isinstance(raw_entries, list), "field 'entries' must be a list")
    entries = []
    for e in raw_entries:
        _expect(isinstance(e, dict), "certificate entries must be objects")
        _expect(_is_int(e.get("node")), "entry field 'node' must be an integer")
        raw_lines = e.get("lines")
        _expect(isinstance(raw_lines, list), "entry field 'lines' must be a list")
        lines = tuple(_triple(t, f"entry {e['node']}") for t in raw_lines)
        witnesses = {}
        raw_witnesses = e.get("witnesses")
        _expect(isinstance(raw_witnesses, dict), "entry field 'witnesses' must be an object")
        for key, ids in raw_witnesses.items():
            parts = key.split(",")
            _expect(len(parts) == 3, f"witness key {key!r} is not 'a,b,c'")
            try:
                triple = _canonical(int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError as exc:
                too_long = _too_long("witness key", parts)
                raise ParseError(too_long or f"witness key {key!r} is not a line: {exc}") from None
            if key != _line_key(triple):
                raise ParseError(f"witness key {key!r} is not canonical; "
                                 f"{Line(*triple)} is {_line_key(triple)!r}")
            _expect(_is_int_list(ids), f"witnesses of {key!r} must be a list of node indices")
            witnesses[triple] = tuple(ids)
        entries.append((e["node"], _ratio(e.get("constant")), lines, witnesses))
    if len(entries) == len(xs):  # otherwise the count check reports it
        for k, (node, *_) in enumerate(entries):
            if node != k:
                raise _invalid(k, "order", f"entry {k} is for node {node}")
    position: dict[Triple, int] = {}
    covers = [[position.setdefault(t, len(position)) for t in lines] for _, _, lines, _ in entries]
    cert = GCCertificate._of_triples(xs, list(position), covers)
    triples = cert.triples
    for k, (entry, (ratio, cover, masks)) in enumerate(zip(entries, cert._derivations())):
        _, (p, q), lines, witnesses = entry
        if p * ratio[1] != ratio[0] * q:
            raise _invalid(k, "constant", f"{_format_ratio(p, q)}, not {_format_ratio(*ratio)}")
        want = tuple(triples[f] for f in cover)
        if lines != want:
            given, want = (tuple(Line(*t) for t in w) for w in (lines, want))
            raise _invalid(k, "line order", f"{given}, not {want}")
        derived = {triples[f]: _bits(w) for f, w in zip(cover, masks)}
        if witnesses != derived:
            given, want = ({Line(*t): ids for t, ids in w.items()} for w in (witnesses, derived))
            raise _invalid(k, "witnesses", f"{given}, not {want}")
    return cert


def load_certificate(text: str) -> GCCertificate:
    return certificate_from_dict(_loads(text, "certificate"))


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


def report_from_dict(doc: Any) -> GMReport:
    from .analysis import GMReport

    _expect(isinstance(doc, dict), "report document must be an object")
    degree = doc.get("degree")
    _expect(_is_int(degree) and degree >= 0, "field 'degree' must be a nonnegative integer")
    satisfied = doc.get("satisfied")
    _expect(isinstance(satisfied, bool), "field 'satisfied' must be a boolean")
    raw = doc.get("maximal_lines")
    _expect(isinstance(raw, list), "field 'maximal_lines' must be a list")
    maximal = []
    for item in raw:
        _expect(isinstance(item, dict), "maximal line entries must be objects")
        line = Line(*_triple(item.get("line"), "maximal line"))
        ids = item.get("nodes")
        _expect(_is_int_list(ids), "maximal line 'nodes' must be a list of indices")
        maximal.append((line, tuple(ids)))
    _expect(satisfied == bool(maximal), "field 'satisfied' must say whether there is a maximal line")
    raw_cex = doc.get("counterexample")
    _expect((raw_cex is None) == satisfied,
            "field 'counterexample' must be present exactly when the report is not satisfied")
    cex = None if raw_cex is None else certificate_from_dict(raw_cex)
    _expect(cex is None or cex.degree == degree,
            "the counterexample's degree must be the report's degree")
    return GMReport(
        degree=degree,
        satisfied=satisfied,
        maximal_lines=tuple(maximal),
        counterexample=cex,
    )


def load_report(text: str) -> GMReport:
    return report_from_dict(_loads(text, "report"))


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


def summary_from_dict(doc: Any) -> SearchSummary:
    from .analysis import SearchSummary, TrialFailure
    from .generators import DEFAULT_KINDS

    _expect(isinstance(doc, dict), "summary document must be an object")
    for field_name in ("degree", "trials", "seed", "coordinate_bound", "certified", "gm_satisfied"):
        _expect(_is_int(doc.get(field_name)), f"field {field_name!r} must be an integer")
    degree, trials = doc["degree"], doc["trials"]
    _expect(degree >= 0, "field 'degree' must be a nonnegative integer")
    _expect(trials >= 1, "field 'trials' must be at least 1")
    _expect(doc["coordinate_bound"] >= 1, "field 'coordinate_bound' must be at least 1")
    kinds = doc.get("kinds")
    _expect(isinstance(kinds, list) and kinds and all(isinstance(k, str) for k in kinds),
            "field 'kinds' must be a nonempty list of strings")
    _expect(all(k in DEFAULT_KINDS for k in kinds),
            f"field 'kinds' must list generator kinds from {DEFAULT_KINDS}")
    raw_failures = doc.get("failures")
    _expect(isinstance(raw_failures, list), "field 'failures' must be a list")
    failures = []
    for f in raw_failures:
        _expect(isinstance(f, dict), "failures must be objects")
        _expect(_is_int(f.get("trial")) and _is_int(f.get("seed")),
                "failure fields 'trial' and 'seed' must be integers")
        _expect(isinstance(f.get("kind"), str) and isinstance(f.get("reason"), str),
                "failure fields 'kind' and 'reason' must be strings")
        cert = None if f.get("certificate") is None else certificate_from_dict(f["certificate"])
        failures.append(
            TrialFailure(
                trial=f["trial"], kind=f["kind"], seed=f["seed"], reason=f["reason"], certificate=cert
            )
        )
    certified, satisfied = doc["certified"], doc["gm_satisfied"]
    _expect(all(f.certificate is None or f.certificate.degree == degree for f in failures),
            "a failure's certificate must have the summary's degree")
    trial_ids = [f.trial for f in failures]
    _expect(all(0 <= t < trials for t in trial_ids) and len(set(trial_ids)) == len(trial_ids),
            "failure trials must be distinct indices in range(trials)")
    _expect(all(f.kind == kinds[f.trial % len(kinds)] for f in failures),
            "a failure's kind must be kinds[trial % len(kinds)]")
    _expect(0 <= satisfied <= certified <= trials,
            "fields 'gm_satisfied', 'certified' and 'trials' must satisfy "
            "0 <= gm_satisfied <= certified <= trials")
    _expect(len(failures) == trials - satisfied,
            "field 'failures' must hold one failure per trial that is not GM-satisfied")
    _expect(sum(f.certificate is not None for f in failures) == certified - satisfied,
            "exactly the certified trials that are not GM-satisfied carry a certificate")
    raw_counts = doc.get("use_count_max")
    _expect(isinstance(raw_counts, dict), "field 'use_count_max' must be an object")
    for k, v in raw_counts.items():
        _expect(_INTEGER_RE.fullmatch(k) is not None and _is_int(v),
                f"use_count_max entry {k!r}: {v!r} must map an integer key to an integer")
        try:
            count = int(k)
        except ValueError:
            raise ParseError(_too_long("use_count_max key", (k,))) from None
        _expect(str(count) == k, f"use_count_max key {k!r} is not canonical; write {str(count)!r}")
    return SearchSummary(
        degree=degree,
        trials=trials,
        seed=doc["seed"],
        kinds=tuple(kinds),
        coordinate_bound=doc["coordinate_bound"],
        certified=certified,
        gm_satisfied=satisfied,
        failures=tuple(failures),
        use_count_max={int(k): v for k, v in raw_counts.items()},
    )


def load_summary(text: str) -> SearchSummary:
    return summary_from_dict(_loads(text, "summary"))
