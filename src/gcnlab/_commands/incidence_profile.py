"""``gcnlab incidence-profile FILE --node K``: per-line target counts through a center."""

from . import _InputError, _emit_doc, _node_index, _read_nodeset


def run(args) -> int:
    from ..analysis import incidence_profile

    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    target = None
    if args.target is not None:
        try:
            target = tuple(int(t) for t in args.target.split(","))
        except ValueError:
            raise _InputError(f"--target expects comma-separated indices, got {args.target!r}")
        for t in target:
            _node_index(xs, t)
    profile = incidence_profile(xs, k, target)
    doc = {
        "center": profile.center,
        "target_size": len(profile.target),
        "counts": {str(c): n for c, n in sorted(profile.counts.items())},
    }
    _emit_doc(doc, args.out)
    return 0
