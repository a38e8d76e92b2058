"""Node files and canonical JSON: the part of the interchange every command uses.

Rationals travel as the exact strings ``"p"`` or ``"p/q"``, and a dump is
canonical (sorted keys, two-space indent, a single trailing newline).
This module reads and writes node sets, and lists maximal lines; it needs
only :mod:`gcnlab.geometry` and :mod:`gcnlab.errors`.  The certificate,
report, summary and polynomial codecs live in :mod:`gcnlab.serialization`,
which re-exports every public name defined here, so a command that only
reads a node file and prints canonical JSON does not compile them.

Schema::

    node set:  {"degree": n, "nodes": [["p/q", "p/q"], ...], "labels": [...]?}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Sequence

from .errors import BadRational, ParseError
from .geometry import Line, NodeSet, Point

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: Any) -> Fraction:
    """Parse an exact ``"p"`` or ``"p/q"`` string; anything else is BadRational."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise BadRational(f"not an exact rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise BadRational(f"zero denominator in {text!r}") from None


def _dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def nodeset_to_dict(xs: NodeSet) -> dict:
    doc: dict[str, Any] = {
        "degree": xs.degree,
        "nodes": [[format_rational(p.x), format_rational(p.y)] for p in xs.nodes],
    }
    if xs.labels is not None:
        doc["labels"] = list(xs.labels)
    return doc


def nodeset_from_dict(doc: Any) -> NodeSet:
    _expect(isinstance(doc, dict), "node set document must be an object")
    degree = doc.get("degree")
    _expect(_is_int(degree) and degree >= 0, "field 'degree' must be a nonnegative integer")
    raw_nodes = doc.get("nodes")
    _expect(isinstance(raw_nodes, list), "field 'nodes' must be a list")
    points = []
    for row, entry in enumerate(raw_nodes):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"node row {row} must be a [x, y] pair")
        points.append(Point(parse_rational(entry[0]), parse_rational(entry[1])))
    labels = doc.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                "field 'labels' must be a list of strings")
        labels = tuple(labels)
    return NodeSet(degree=degree, nodes=tuple(points), labels=labels)


def save_nodeset(xs: NodeSet) -> str:
    return _dumps(nodeset_to_dict(xs))


def load_nodeset(text: str) -> NodeSet:
    return nodeset_from_dict(_loads(text, "node set"))


def maximal_lines_to_list(maximal: Sequence[tuple[Line, Sequence[int]]]) -> list:
    """Each maximal line and its node indices as ``{"line": [a, b, c], "nodes": [j, ...]}``."""
    return [{"line": list(line.coefficients), "nodes": list(ids)} for line, ids in maximal]
