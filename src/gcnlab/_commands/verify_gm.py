"""``gcnlab verify-gm FILE``: certify, then check for a maximal line."""

from . import _PROPERTY_FAILED, _emit, _read_nodeset


def run(args) -> int:
    from ..analysis import verify_gm

    xs = _read_nodeset(args.file)
    report = verify_gm(xs)
    from ..serialization import save_report  # a set that fails never loads the writer

    _emit(save_report(report), args.out)
    return 0 if report.satisfied else _PROPERTY_FAILED
