"""``gcnlab certify-gc FILE``: factor every fundamental polynomial into lines."""

from . import _emit, _read_nodeset


def run(args) -> int:
    from ..certification import certify_gc

    xs = _read_nodeset(args.file)
    cert = certify_gc(xs)
    from ..serialization import save_certificate  # a set that fails never loads the writer

    _emit(save_certificate(cert), args.out)
    return 0
