"""Deterministic SVG rendering of node/line configurations.

The viewport is the exact bounding box of the nodes padded by 10% per side
(one unit when the extent is zero) and scaled to 600 pixels on the longer
axis.  Geometry is clipped against the viewport with exact rational
arithmetic; floats appear only in the final coordinate formatting, at a
fixed precision, so identical input yields byte-identical SVG.  Node labels
are escaped, so any label gives well-formed XML.

Overlay styling: maximal lines are solid red, a node's used lines are
dashed blue, and a line-sequence overlay draws each sequence line in a
fixed palette color while filling every covered node with the color of the
position it is primary for (the sequence's own node is enlarged and drawn
with a black outline).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import IdenticalLines, ParallelLines
from .geometry import Line, NodeSet, Point, intersect

if TYPE_CHECKING:
    from .sequences import MLineSequence

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

def _fmt(v) -> str:
    return f"{float(v):.4f}"


def _escape(text: str) -> str:
    """``text`` as XML character data (no ``html`` import: plot's cold start stays small)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _viewport(xs: NodeSet) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if xs.nodes:
        min_x = min(p.x for p in xs.nodes)
        max_x = max(p.x for p in xs.nodes)
        min_y = min(p.y for p in xs.nodes)
        max_y = max(p.y for p in xs.nodes)
    else:
        min_x = max_x = min_y = max_y = Fraction(0)
    pad_x = (max_x - min_x) / 10 if max_x > min_x else Fraction(1)
    pad_y = (max_y - min_y) / 10 if max_y > min_y else Fraction(1)
    return (min_x - pad_x, max_x + pad_x, min_y - pad_y, max_y + pad_y)


def _clip_segment(
    line: Line, x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction
) -> tuple[Point, Point] | None:
    borders = (
        (Line.from_rationals(1, 0, -x0), Point(x0, y0), Point(x0, y1)),
        (Line.from_rationals(1, 0, -x1), Point(x1, y0), Point(x1, y1)),
        (Line.from_rationals(0, 1, -y0), Point(x0, y0), Point(x1, y0)),
        (Line.from_rationals(0, 1, -y1), Point(x0, y1), Point(x1, y1)),
    )
    hits: set[Point] = set()
    for border, start, end in borders:
        try:
            p = intersect(line, border)
        except IdenticalLines:
            hits.update((start, end))
            continue
        except ParallelLines:
            continue
        if x0 <= p.x <= x1 and y0 <= p.y <= y1:
            hits.add(p)
    if len(hits) < 2:
        return None
    ordered = sorted(hits)
    return ordered[0], ordered[-1]


def plot_svg(
    xs: NodeSet,
    maximal: Iterable[Line] = (),
    used: Iterable[Line] = (),
    sequence: MLineSequence | None = None,
) -> str:
    """Render the configuration with the requested overlays as SVG text."""
    x0, x1, y0, y1 = _viewport(xs)
    scale = Fraction(600) / max(x1 - x0, y1 - y0)
    width = float((x1 - x0) * scale)
    height = float((y1 - y0) * scale)

    def to_px(p: Point) -> tuple[float, float]:
        return (float((p.x - x0) * scale), float((y1 - p.y) * scale))

    radius = max(3.0, 0.008 * min(width, height))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    def emit_line(line: Line, style: str) -> None:
        segment = _clip_segment(line, x0, x1, y0, y1)
        if segment is None:
            return
        (ax, ay), (bx, by) = to_px(segment[0]), to_px(segment[1])
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" {style}/>'
        )

    for line in sorted(set(maximal)):
        emit_line(line, 'stroke="#d62728" stroke-width="2"')
    for line in sorted(set(used)):
        emit_line(line, 'stroke="#1f77b4" stroke-width="1.5" stroke-dasharray="6 4"')
    if sequence is not None:
        for pos, line in enumerate(sequence.lines):
            color = _PALETTE[pos % len(_PALETTE)]
            emit_line(line, f'stroke="{color}" stroke-width="1.5"')

    for j, node in enumerate(xs.nodes):
        px, py = to_px(node)
        fill = "#000000"
        extra = ""
        r = radius
        if sequence is not None:
            if j == sequence.node_index:
                fill = "#ffffff"
                extra = ' stroke="#000000" stroke-width="2"'
                r = radius * 1.6
            elif j in sequence.primary:
                fill = _PALETTE[sequence.primary[j] % len(_PALETTE)]
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" fill="{fill}"{extra}/>'
        )
        if xs.labels is not None:
            parts.append(
                f'<text x="{_fmt(px + radius + 2)}" y="{_fmt(py - radius - 2)}" '
                f'font-size="11" font-family="monospace">{_escape(xs.labels[j])}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
