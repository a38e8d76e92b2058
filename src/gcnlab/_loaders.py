"""The readers of :mod:`gcnlab.serialization`: certificates, reports, summaries and polynomials.

:mod:`gcnlab.serialization` resolves these names on first access (PEP 562),
so a command that only writes a document, such as ``certify-gc`` or
``verify-gm``, never compiles them: with no bytecode written or shipped
(``PYTHONDONTWRITEBYTECODE``), every CLI command compiles each module it
imports from source.  The schemas and the rules every loaded document
meets are in :mod:`gcnlab.serialization`'s docstring.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any

from .errors import ParseError
from .geometry import Line
from .nodefile import _expect, _is_int, _line_key, _loads, nodeset_from_dict, parse_rational

if TYPE_CHECKING:
    from .analysis import GMReport, SearchSummary
    from .certification import GCCertificate
    from .polynomials import Poly

_INTEGER_RE = re.compile(r"-?[0-9]+")


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def poly_from_dict(doc: Any) -> Poly:
    from .polynomials import Poly, dim_pi

    _expect(isinstance(doc, dict), "polynomial document must be an object")
    degree = doc.get("degree")
    _expect(_is_int(degree) and degree >= 0, "field 'degree' must be a nonnegative integer")
    coeffs = doc.get("coefficients")
    _expect(isinstance(coeffs, list) and len(coeffs) == dim_pi(degree),
            f"field 'coefficients' must list {dim_pi(degree)} rationals")
    return Poly(degree, tuple(parse_rational(c) for c in coeffs))


def _line_from_triple(triple: Any, context: str) -> Line:
    """The line of a canonical ``[a, b, c]`` triple; ParseError for any other spelling."""
    _expect(
        _is_int_list(triple) and len(triple) == 3,
        f"{context}: a line must be an [a, b, c] integer triple",
    )
    try:
        line = Line(triple[0], triple[1], triple[2])
    except ValueError as exc:
        raise ParseError(f"{context}: {triple} is not a line: {exc}") from None
    _expect(list(line.coefficients) == triple,
            f"{context}: {triple} is not canonical; {line} is {list(line.coefficients)}")
    return line


def certificate_from_dict(doc: Any) -> GCCertificate:
    """Parse a certificate document and verify it.

    Raises ParseError when the document breaks its schema and
    InvalidCertificate when the certificate it holds breaks the rule of
    :func:`~gcnlab.certification.verify_certificate`.  The entries become a
    cover table, which its constructor verifies; then each entry's
    constant, line order and witnesses must equal the ones derived from
    the table.
    """
    from .certification import GCCertificate, NodeCertificate, _invalid

    xs = nodeset_from_dict(doc)
    raw_entries = doc.get("entries")
    _expect(isinstance(raw_entries, list), "field 'entries' must be a list")
    entries = []
    for e in raw_entries:
        _expect(isinstance(e, dict), "certificate entries must be objects")
        _expect(_is_int(e.get("node")), "entry field 'node' must be an integer")
        raw_lines = e.get("lines")
        _expect(isinstance(raw_lines, list), "entry field 'lines' must be a list")
        lines = tuple(_line_from_triple(t, f"entry {e['node']}") for t in raw_lines)
        witnesses = {}
        raw_witnesses = e.get("witnesses")
        _expect(isinstance(raw_witnesses, dict), "entry field 'witnesses' must be an object")
        for key, ids in raw_witnesses.items():
            parts = key.split(",")
            _expect(len(parts) == 3, f"witness key {key!r} is not 'a,b,c'")
            try:
                line = Line(int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise ParseError(f"witness key {key!r} is not a line: {exc}") from None
            _expect(key == _line_key(line),
                    f"witness key {key!r} is not canonical; {line} is {_line_key(line)!r}")
            _expect(_is_int_list(ids), f"witnesses of {key!r} must be a list of node indices")
            witnesses[line] = tuple(ids)
        entries.append(
            NodeCertificate(
                node_index=e["node"],
                constant=parse_rational(e.get("constant")),
                lines=lines,
                witnesses=witnesses,
            )
        )
    if len(entries) == len(xs):  # otherwise the count check reports it
        for k, entry in enumerate(entries):
            if entry.node_index != k:
                raise _invalid(k, "order", f"entry {k} is for node {entry.node_index}")
    position: dict[Line, int] = {}
    covers = [[position.setdefault(line, len(position)) for line in e.lines] for e in entries]
    cert = GCCertificate(xs, list(position), covers)
    for k, (entry, derived) in enumerate(zip(entries, cert.entries)):
        for reason, given, want in (
            ("constant", entry.constant, derived.constant),
            ("line order", entry.lines, derived.lines),
            ("witnesses", entry.witnesses, derived.witnesses),
        ):
            if given != want:
                raise _invalid(k, reason, f"{given}, not {want}")
    return cert


def load_certificate(text: str) -> GCCertificate:
    return certificate_from_dict(_loads(text, "certificate"))


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
        line = _line_from_triple(item.get("line"), "maximal line")
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
        _expect(str(int(k)) == k, f"use_count_max key {k!r} is not canonical; write {str(int(k))!r}")
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
