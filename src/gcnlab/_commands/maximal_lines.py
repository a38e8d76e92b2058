"""``gcnlab maximal-lines FILE``: the lines through exactly degree + 1 nodes."""

from . import _emit_doc, _read_nodeset


def run(args) -> int:
    from ..nodefile import maximal_lines_to_list

    xs = _read_nodeset(args.file)
    doc = {"degree": xs.degree, "maximal_lines": maximal_lines_to_list(xs.maximal)}
    _emit_doc(doc, args.out)
    return 0
