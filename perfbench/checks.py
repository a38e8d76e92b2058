"""Output checks that share no code with the program they check.

Each checker takes what the program produced (canonical JSON text, SVG
text, an exit code, an outcome) plus the benchmark's own record of the
input, recomputes what it needs with plain ``fractions.Fraction``
arithmetic, and returns ``None`` when the output is right or a short reason
when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

from inputs import Point, line_through, on_line


def _value(line, p: Point) -> Fraction:
    return line[0] * p[0] + line[1] * p[1] + line[2]


def maximal_lines(degree: int, nodes: list[Point]) -> dict[tuple, tuple[int, ...]]:
    """Lines through exactly degree + 1 nodes, with their node indices."""
    acc: dict[tuple, set[int]] = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            acc.setdefault(line_through(nodes[i], nodes[j]), set()).update((i, j))
    return {l: tuple(sorted(ids)) for l, ids in acc.items() if len(ids) == degree + 1}


def summary(text: str, trials: int) -> str | None:
    doc = json.loads(text)
    if not doc["trials"] == doc["certified"] == doc["gm_satisfied"] == trials:
        return f"certified {doc['certified']}, gm_satisfied {doc['gm_satisfied']} of {trials} trials"
    if doc["failures"]:
        return f"{len(doc['failures'])} failures reported"
    return None


def certificate(text: str, degree: int, nodes: list[Point]) -> str | None:
    doc = json.loads(text)
    if doc["degree"] != degree or [[str(x), str(y)] for x, y in nodes] != doc["nodes"]:
        return "certificate is for another node set"
    if [e["node"] for e in doc["entries"]] != list(range(len(nodes))):
        return "certificate does not list every node once, in order"
    for e in doc["entries"]:
        k = e["node"]
        if len(e["lines"]) != degree:
            return f"node {k} has {len(e['lines'])} factor lines, not {degree}"
        constant = Fraction(e["constant"])
        for j, p in enumerate(nodes):
            if constant * prod(_value(l, p) for l in e["lines"]) != (1 if j == k else 0):
                return f"product of node {k} is not the Kronecker delta at node {j}"
    return None


def report(text: str, degree: int, nodes: list[Point], maximal: dict) -> str | None:
    doc = json.loads(text)
    if doc["satisfied"] is not True or doc["counterexample"] is not None:
        return "GM report is not satisfied"
    listed = {}
    for item in doc["maximal_lines"]:
        line = tuple(item["line"])
        on = tuple(j for j, p in enumerate(nodes) if on_line(line, p))
        if len(on) != degree + 1 or list(on) != item["nodes"]:
            return f"listed maximal line {line} holds nodes {on}"
        listed[line] = on
    if listed != maximal:
        return f"{len(listed)} maximal lines listed, {len(maximal)} exist"
    return None


def distributions(text: str, degree: int, n_nodes: int, chung_yao: bool) -> str | None:
    vectors = json.loads(text)["distributions"]
    if len(vectors) != 1:
        return f"{len(vectors)} count vectors, expected exactly one"
    (counts,) = vectors
    if len(counts) != degree or sum(counts) != n_nodes - 1:
        return f"count vector {counts} does not cover the other {n_nodes - 1} nodes with {degree} lines"
    if chung_yao and counts != list(range(degree + 1, 1, -1)):
        return f"count vector {counts} of a Chung-Yao set is not (n+1, ..., 2)"
    return None


def plot(text: str, n_nodes: int, n_maximal: int) -> str | None:
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        return "not an SVG document"
    if text.count("<circle ") != n_nodes or text.count("<line ") != n_maximal:
        return f"{text.count('<circle ')} nodes and {text.count('<line ')} lines drawn"
    return None


def exit_status(code: int, expected: int, stderr: str) -> str | None:
    if code != expected:
        return f"exit code {code}, expected {expected}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None


def cb_outcome(outcome: str, degenerate: bool) -> str | None:
    """``D`` (DegenerateIntersection) exactly on degenerate input, else ``T`` (returned True)."""
    expected = "D" if degenerate else "T"
    return None if outcome == expected else f"outcome {outcome!r}, expected {expected!r}"
