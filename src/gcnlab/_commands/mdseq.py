"""``gcnlab mdseq FILE --node K``: the greedy line sequence and count vector of one node."""

from . import _InputError, _emit_doc, _node_index, _parse_line_option, _read_nodeset


def run(args) -> int:
    from ..certification import certify_gc
    from ..sequences import enumerate_mdseqs, fixed_first_mdseq, greedy_mdseq

    if args.all and args.fix_line is not None:
        raise _InputError("--fix-line cannot be combined with --all, which lists every ordering")
    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    first = None if args.fix_line is None else _parse_line_option(args.fix_line)
    cert = certify_gc(xs)
    if args.all:
        seqs = sorted(s.counts for s in enumerate_mdseqs(cert, k))
        _emit_doc({"node": k, "distributions": [list(c) for c in seqs]}, args.out)
        return 0
    if first is not None:
        seq = fixed_first_mdseq(cert, k, first)
    else:
        seq = greedy_mdseq(cert, k)
    doc = {
        "node": k,
        "lines": [list(l.coefficients) for l in seq.lines],
        "counts": list(seq.counts),
        "primary": {str(j): pos for j, pos in sorted(seq.primary.items())},
    }
    if seq.fixed_first is not None:
        doc["fixed_first"] = list(seq.fixed_first.coefficients)
    _emit_doc(doc, args.out)
    return 0
