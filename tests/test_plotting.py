"""SVG rendering: determinism, overlays, clipping, well-formedness."""

import xml.etree.ElementTree as ET
from xml.dom import minidom

from gcnlab import Line, NodeSet, Point, certify_gc, greedy_mdseq, maximal_lines, plot_svg


def parse(svg_text):
    return ET.fromstring(svg_text)


def tags(svg_text, name):
    ns = "{http://www.w3.org/2000/svg}"
    return parse(svg_text).findall(f".//{ns}{name}")


class TestBasicRendering:
    def test_nodes_only(self, triangle):
        svg = plot_svg(triangle)
        assert len(tags(svg, "circle")) == 3
        assert len(tags(svg, "line")) == 0

    def test_byte_identical_for_identical_input(self, principal5):
        maximal = maximal_lines(principal5)
        assert plot_svg(principal5, maximal=maximal) == plot_svg(principal5, maximal=maximal)

    def test_well_formed_xml(self, principal5):
        parse(plot_svg(principal5))


class TestOverlays:
    def test_maximal_overlay_draws_three_lines(self, principal5):
        svg = plot_svg(principal5, maximal=maximal_lines(principal5))
        drawn = tags(svg, "line")
        assert len(drawn) == 3
        assert all(el.get("stroke") == "#d62728" for el in drawn)

    def test_used_overlay_dashed(self, triangle):
        cert = certify_gc(triangle)
        svg = plot_svg(triangle, used=cert.entries[0].lines)
        drawn = tags(svg, "line")
        assert len(drawn) == 1
        assert drawn[0].get("stroke-dasharray")

    def test_sequence_overlay_colors_primary_nodes(self, cy2, cy2_cert):
        seq = greedy_mdseq(cy2_cert, 0)
        svg = plot_svg(cy2, sequence=seq)
        circles = tags(svg, "circle")
        assert len(circles) == len(cy2)
        fills = {c.get("fill") for c in circles}
        assert "#ffffff" in fills  # the sequence's own node is hollow
        assert len(fills) >= 3  # at least two primary colors plus the center

    def test_line_outside_viewport_skipped(self, triangle):
        svg = plot_svg(triangle, maximal=[Line(1, 0, -50)])
        assert len(tags(svg, "line")) == 0


class TestLabels:
    def test_labels_rendered(self):
        xs = NodeSet(1, (Point(0, 0), Point(1, 0), Point(0, 1)), labels=("A", "B", "C"))
        svg = plot_svg(xs)
        assert [t.text for t in tags(svg, "text")] == ["A", "B", "C"]

    def test_markup_in_labels_is_escaped(self):
        labels = ("a<b", "R&D", "</svg><script>x</script>")
        xs = NodeSet(1, (Point(0, 0), Point(1, 0), Point(0, 1)), labels=labels)
        svg = plot_svg(xs)
        doc = minidom.parseString(svg)
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert texts == list(labels)
        assert doc.getElementsByTagName("script") == []
        assert "&lt;/svg&gt;&lt;script&gt;x&lt;/script&gt;" in svg
