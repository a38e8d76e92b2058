"""Node files and canonical JSON: the part of the interchange every command uses.

Rationals travel as the exact strings ``"p"`` or ``"p/q"``, and a dump is
canonical (sorted keys, two-space indent, a single trailing newline).
This module reads and writes node sets, and writes maximal-line lists; it
needs only :mod:`gcnlab.geometry` and :mod:`gcnlab.errors`.  Every CLI
command loads it.  The readers and writers of certificates, reports,
summaries and polynomials live in :mod:`gcnlab.serialization`, which
re-exports every public name defined here.  With no bytecode written or
shipped (``PYTHONDONTWRITEBYTECODE``), a command compiles each module it
imports from source, so a command that only reads a node file and prints
canonical JSON (``plot``, ``mdseq``, ``maximal-lines``) does not compile
:mod:`gcnlab.serialization`.

A node file is read straight into the set's integer index: each ``"p/q"``
becomes the integer pair ``(p, q)``, the pairs are put over the lcm D of
their denominators, and ``NodeSet._scaled`` stores the integer nodes, so
no Fraction is built.  A set is written from its integer nodes X and D the
same way, each ``"p/q"`` being ``X/D`` in lowest terms, and so is a
certificate's constant, from the integer pair the table derives.  Only
:func:`parse_rational` and :func:`format_rational`, which the polynomial
codec uses, make Fractions, so only they import :mod:`fractions`, when
first called.

Schema::

    node set:  {"degree": n, "nodes": [["p/q", "p/q"], ...], "labels": [...]?}
"""

from __future__ import annotations

import json
import re
import sys
from math import gcd, lcm
from typing import TYPE_CHECKING, Any, Sequence

from .errors import BadRational, ParseError
from .geometry import Line, NodeSet, _fraction

if TYPE_CHECKING:
    from fractions import Fraction

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(text: Any) -> tuple[int, int]:
    """``(p, q)``, q > 0, of an exact ``"p"`` or ``"p/q"`` string; anything else is BadRational."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise BadRational(f"not an exact rational string: {text!r}")
    numerator, denominator = match.groups()
    try:
        p = int(numerator)
        q = 1 if denominator is None else int(denominator)
    except ValueError:
        raise BadRational(_too_long("rational", (numerator, denominator or ""))) from None
    if q == 0:
        raise BadRational(f"zero denominator in {text!r}")
    return p, q


def _too_long(what: str, texts: Sequence[str]) -> str | None:
    """Why ``int`` refused one of ``texts``, if it has too many digits; else None.

    The message reads "{what} with a N-digit integer exceeds the L-digit
    limit", for the longest decimal of N digits past L =
    ``sys.get_int_max_str_digits()``.  It echoes no digit, nor Python's
    advice to raise the limit.
    """
    # 0, no limit, on an interpreter without one (CPython before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    decimals = (t.strip().lstrip("+-") for t in texts)
    digits = max((len(t) for t in decimals if t.isdigit()), default=0)
    if 0 < limit < digits:
        return f"{what} with a {digits}-digit integer exceeds the {limit}-digit limit"
    return None


def _format_ratio(p: int, q: int) -> str:
    """``p/q``, q > 0, in lowest terms, written as ``str`` writes a Fraction."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def format_rational(value: Fraction) -> str:
    return str(_fraction()(value))


def parse_rational(text: Any) -> Fraction:
    """Parse an exact ``"p"`` or ``"p/q"`` string; anything else is BadRational."""
    return _fraction()(*_ratio(text))


def _dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:
        # an integer literal past sys.get_int_max_str_digits()
        raise ParseError(
            f"malformed {what} document: an integer exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        ) from None
    except RecursionError:
        raise ParseError(f"malformed {what} document: nested too deeply") from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def nodeset_to_dict(xs: NodeSet) -> dict:
    d = xs.scale
    doc: dict[str, Any] = {
        "degree": xs.degree,
        "nodes": [[_format_ratio(x, d), _format_ratio(y, d)] for x, y in xs.coords],
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
    ratios = []
    for row, entry in enumerate(raw_nodes):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"node row {row} must be a [x, y] pair")
        ratios.append((_ratio(entry[0]), _ratio(entry[1])))
    labels = doc.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                "field 'labels' must be a list of strings")
    # over any common denominator: _scaled divides out the gcd, as the constructor would
    d = lcm(*(q for pair in ratios for _, q in pair))
    coords = [(p * (d // q), r * (d // s)) for (p, q), (r, s) in ratios]
    return NodeSet._scaled(degree, d, coords, labels)


def save_nodeset(xs: NodeSet) -> str:
    return _dumps(nodeset_to_dict(xs))


def load_nodeset(text: str) -> NodeSet:
    return nodeset_from_dict(_loads(text, "node set"))


def maximal_lines_to_list(maximal: Sequence[tuple[Line, Sequence[int]]]) -> list:
    """Each maximal line and its node indices as ``{"line": [a, b, c], "nodes": [j, ...]}``."""
    return [{"line": list(line.coefficients), "nodes": list(ids)} for line, ids in maximal]
