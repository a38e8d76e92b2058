"""``gcnlab plot FILE``: render nodes and overlays as SVG."""

from . import _InputError, _emit, _node_index, _read_nodeset


def run(args) -> int:
    from ..plotting import plot_svg

    xs = _read_nodeset(args.file)
    overlays = []
    for overlay in args.overlay or ():
        if overlay == "maximal":
            overlays.append((overlay, None))
        elif overlay.startswith(("used:", "primary:")):
            kind, k = overlay.split(":", 1)
            if any(kind == seen for seen, _ in overlays):
                raise _InputError(f"overlay {overlay!r}: plot draws at most one {kind}:K overlay")
            try:
                k = int(k)
            except ValueError:
                raise _InputError(f"overlay {overlay!r}: {kind}:K needs a node index K") from None
            overlays.append((kind, _node_index(xs, k)))
        else:
            raise _InputError(
                f"unknown overlay {overlay!r}; use 'maximal', 'used:K' or 'primary:K'"
            )
    maximal = ()
    used = ()
    sequence = None
    cert = None
    for kind, k in overlays:
        if kind == "maximal":
            maximal = {line for line, _ in xs.maximal}
            continue
        from ..certification import certify_gc, used_lines_of

        if cert is None:
            cert = certify_gc(xs)  # after every overlay is checked
        if kind == "used":
            used = used_lines_of(cert, k)
        else:
            from ..sequences import greedy_mdseq

            sequence = greedy_mdseq(cert, k)
    _emit(plot_svg(xs, maximal=maximal, used=used, sequence=sequence), args.out)
    return 0
