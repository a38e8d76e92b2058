"""``gcnlab check-poised FILE``: decide unique solvability of a node file."""

from . import _PROPERTY_FAILED, _emit_doc, _read_nodeset


def run(args) -> int:
    from ..interpolation import is_poised

    xs = _read_nodeset(args.file)
    poised = is_poised(xs)
    _emit_doc({"degree": xs.degree, "node_count": len(xs), "poised": poised}, args.out)
    return 0 if poised else _PROPERTY_FAILED
