"""``gcnlab check-cert FILE``: verify a saved certificate without searching."""

import sys

from . import _PROPERTY_FAILED, _emit_doc, _read


def run(args) -> int:
    from ..errors import InvalidCertificate
    from ..serialization import load_certificate

    text = _read(args.file)
    try:
        cert = load_certificate(text)  # verifies every entry
    except InvalidCertificate as exc:
        print(f"gcnlab: invalid certificate: {exc}", file=sys.stderr)
        return _PROPERTY_FAILED
    _emit_doc({"degree": cert.degree, "node_count": len(cert.nodeset), "valid": True}, args.out)
    return 0
