"""``gcnlab fundamental FILE --node K``: the fundamental polynomial of one node."""

from . import _emit_doc, _node_index, _read_nodeset


def run(args) -> int:
    from ..interpolation import fundamental
    from ..polynomials import format_poly
    from ..serialization import poly_to_dict

    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    sol = fundamental(xs, k)
    doc = poly_to_dict(sol.poly)
    doc["node"] = k
    doc["text"] = format_poly(sol.poly)
    _emit_doc(doc, args.out)
    return 0
