"""The CLI's command table, its command handlers, and the helpers they share.

``_COMMANDS`` maps each command to its help line and its arguments.  Both
parse routes read it: :func:`gcnlab.cli._plain_parse` for a plainly
well-formed argv, :func:`gcnlab._cliparser.build_parser` for the rest.
Command ``c`` runs in the module of this package named ``c`` with ``-``
replaced by ``_``, through its ``run(args) -> int``, where ``args`` is the
parsed namespace; :func:`gcnlab.cli.main` imports only that module, so a
command compiles none of the other handlers when no bytecode is written
(``PYTHONDONTWRITEBYTECODE``).

No module here imports :mod:`gcnlab.cli`: under ``python -m gcnlab.cli``
the running module is ``__main__``, so that import would compile and run a
second copy of it.  What the parsers, the handlers and ``main`` share (the
table, the exit codes, the input error that ``main`` reports, reading node
files and writing output) lives here instead.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..geometry import NodeSet

_PROPERTY_FAILED = 1
_BAD_INPUT = 2

_OUT = (("--out",), {"help": "write output to this file instead of stdout"})
_FILE = (("file",), {})
_NODE = (("--node",), {"type": int, "required": True})
_SEED = (("--seed",), {"type": int, "default": 0})
_BOUND = (("--bound",), {"type": int, "default": 8})

#: Each command's help line and its arguments, as the positional and
#: keyword arguments of ``add_argument``.
_COMMANDS = {
    "check-poised": ("decide unique solvability of a node file", [_OUT, _FILE]),
    "fundamental": ("fundamental polynomial of one node", [_OUT, _FILE, _NODE]),
    "certify-gc": ("factor every fundamental polynomial into lines", [_OUT, _FILE]),
    "check-cert": ("verify a saved certificate without searching", [_OUT, _FILE]),
    "used-lines": ("distinct factor lines of one node", [_OUT, _FILE, _NODE]),
    "mdseq": (
        "greedy line sequence and count vector of one node",
        [
            _OUT,
            _FILE,
            _NODE,
            (("--fix-line",), {"help": "force 'a,b,c' as the first line"}),
            (("--all",), {"action": "store_true",
                          "help": "enumerate all achievable count vectors"}),
        ],
    ),
    "maximal-lines": ("lines through exactly degree+1 nodes", [_OUT, _FILE]),
    "verify-gm": ("certify, then check for a maximal line", [_OUT, _FILE]),
    "incidence-profile": (
        "per-line target counts through a center",
        [
            _OUT,
            _FILE,
            _NODE,
            (("--target",), {"help": "comma-separated node indices (default: all others)"}),
        ],
    ),
    "cayley-bacharach": (
        "dependence of a random line-product grid",
        [
            _OUT,
            (("--m",), {"type": int, "required": True}),
            (("--n",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "generate": (
        "emit a certified node set",
        [
            _OUT,
            (("--kind",), {"required": True}),
            (("--degree",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "search": (
        "generate many sets and hunt for a GM violation",
        [
            _OUT,
            (("--degree",), {"type": int, "required": True}),
            (("--trials",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "plot": (
        "render nodes and overlays as SVG",
        [
            _OUT,
            _FILE,
            (("--overlay",), {"action": "append",
                              "help": "repeatable: 'maximal', 'used:K' or 'primary:K'"}),
        ],
    ),
}


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
    if not len(xs):
        raise _InputError(f"node index {k}: the set has no nodes")
    if not 0 <= k < len(xs):
        raise _InputError(f"node index {k} out of range [0, {len(xs) - 1}]")
    return k
