"""The CLI's command handlers, one module each, and the helpers they share.

Each module of this package runs one command of :mod:`gcnlab.cli` through
its ``run(args) -> int``, where ``args`` is the parsed namespace, and
:func:`gcnlab.cli.main` imports only the module of the command it runs.
A CLI command is a fresh process, and with no bytecode written or shipped
(``PYTHONDONTWRITEBYTECODE``) it compiles every module it imports from
source, so no command compiles the twelve handlers it does not run.

No module here imports :mod:`gcnlab.cli`: under ``python -m gcnlab.cli``
the running module is ``__main__``, so that import would compile and run a
second copy of it.  What the handlers and ``main`` share (the exit codes,
the input error that ``main`` reports, reading node files and writing
output) lives here instead.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..geometry import Line, NodeSet

_PROPERTY_FAILED = 1
_BAD_INPUT = 2


class _InputError(Exception):
    """Invalid user input discovered after argument parsing."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None


def _read_nodeset(path: str) -> NodeSet:
    from ..nodefile import load_nodeset

    return load_nodeset(_read(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again as it exits; let that go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise _InputError(f"cannot write stdout: {exc}") from None
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}") from None


def _emit_doc(doc, out: str | None) -> None:
    """Emit ``doc`` as canonical JSON, written as every saved document is."""
    from ..nodefile import _dumps

    _emit(_dumps(doc), out)


def _node_index(xs: NodeSet, k: int) -> int:
    if not 0 <= k < len(xs):
        raise _InputError(f"node index {k} out of range [0, {len(xs) - 1}]")
    return k


def _parse_line_option(text: str) -> Line:
    from ..geometry import Line

    parts = text.split(",")
    if len(parts) != 3:
        raise _InputError(f"--fix-line expects 'a,b,c', got {text!r}")
    try:
        return Line(int(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad line coefficients {text!r}: {exc}") from None
