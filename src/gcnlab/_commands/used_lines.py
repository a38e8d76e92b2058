"""``gcnlab used-lines FILE --node K``: the distinct factor lines of one node."""

from . import _emit_doc, _node_index, _read_nodeset


def run(args) -> int:
    from ..certification import certify_gc, used_lines_of

    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    cert = certify_gc(xs)
    lines = sorted(used_lines_of(cert, k))
    _emit_doc({"node": k, "lines": [list(l.coefficients) for l in lines]}, args.out)
    return 0
