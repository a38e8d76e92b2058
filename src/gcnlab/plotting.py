"""Deterministic SVG rendering of node/line configurations.

The viewport is the exact bounding box of the nodes padded by 10% per side
(one unit when the extent is zero) and scaled to 600 pixels on the longer
axis.  Everything up to the pixels is exact integer arithmetic on the
set's index: in units of 1/(10*D), with D the set's common denominator
``xs.scale``, a node ``(X/D, Y/D)`` is the integer point ``(10*X, 10*Y)``,
the viewport's sides and its padding are integers, and a line
``a*x + b*y + c = 0`` is ``a*u + b*v + 10*D*c = 0``, so its clipped ends
are integer points over one common denominator.  Each pixel coordinate is
then one int/int division, which is correctly rounded, so identical input
yields byte-identical SVG, and the same SVG as the float of the exact
rational.  Node labels are escaped, so any label gives well-formed XML.

Overlay styling: maximal lines are solid red, a node's used lines are
dashed blue, and a line-sequence overlay draws each sequence line in a
fixed palette color while filling every covered node with the color of the
position it is primary for (the sequence's own node is enlarged and drawn
with a black outline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .geometry import Line, NodeSet

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

def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _escape(text: str) -> str:
    """``text`` as XML character data (no ``html`` import: plot's cold start stays small)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _viewport(xs: NodeSet) -> tuple[int, int, int, int]:
    """The padded bounding box ``(u0, u1, v0, v1)`` of the nodes, in units of 1/(10*D)."""
    if xs.coords:
        us, vs = zip(*xs.coords)
    else:
        us = vs = (0,)
    # a tenth of the extent, (max - min)/(10*D), is max - min units; a zero extent pads 10*D
    pad_u = max(us) - min(us) or 10 * xs.scale
    pad_v = max(vs) - min(vs) or 10 * xs.scale
    return (10 * min(us) - pad_u, 10 * max(us) + pad_u, 10 * min(vs) - pad_v, 10 * max(vs) + pad_v)


def _clip_segment(
    a: int, b: int, c: int, u0: int, u1: int, v0: int, v1: int
) -> tuple[tuple[int, int], tuple[int, int], int] | None:
    """The ends of ``a*u + b*v + c = 0`` in the box, as integer points over a denominator q.

    Returns the lexicographically first and last points where the line
    meets the box's sides, and q, or None when it meets them in fewer than
    two points.  A line along a side meets it in that side's two corners.
    """
    q = (abs(a) or 1) * (abs(b) or 1)  # b divides q if b != 0, a divides q if a != 0
    hits: set[tuple[int, int]] = set()
    for u in (u0, u1):
        if b:
            v = -(a * u + c) * (q // b)
            if v0 * q <= v <= v1 * q:
                hits.add((u * q, v))
        elif a * u + c == 0:
            hits.update(((u * q, v0 * q), (u * q, v1 * q)))
    for v in (v0, v1):
        if a:
            u = -(b * v + c) * (q // a)
            if u0 * q <= u <= u1 * q:
                hits.add((u, v * q))
        elif b * v + c == 0:
            hits.update(((u0 * q, v * q), (u1 * q, v * q)))
    if len(hits) < 2:
        return None
    return min(hits), max(hits), q


def plot_svg(
    xs: NodeSet,
    maximal: Iterable[Line] = (),
    used: Iterable[Line] = (),
    sequence: MLineSequence | None = None,
) -> str:
    """Render the configuration with the requested overlays as SVG text."""
    u0, u1, v0, v1 = _viewport(xs)
    span = max(u1 - u0, v1 - v0)  # 600 pixels
    width = 600 * (u1 - u0) / span
    height = 600 * (v1 - v0) / span

    def to_px(u: int, v: int, q: int = 1) -> tuple[float, float]:
        """The pixel of the point ``(u/q, v/q)``."""
        return (600 * (u - u0 * q) / (span * q), 600 * (v1 * q - v) / (span * q))

    radius = max(3.0, 0.008 * min(width, height))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    def emit_line(line: Line, style: str) -> None:
        segment = _clip_segment(line.a, line.b, 10 * xs.scale * line.c, u0, u1, v0, v1)
        if segment is None:
            return
        start, end, q = segment
        (ax, ay), (bx, by) = to_px(*start, q), to_px(*end, q)
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

    for j, (x, y) in enumerate(xs.coords):
        px, py = to_px(10 * x, 10 * y)
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
