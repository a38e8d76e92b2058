"""Command-line interface.

Exit codes: 0 when the requested property holds (or the command simply
succeeded), 1 when the property fails (not poised, not GC, GM violated,
dependence check false, retry budget exhausted, a certificate that
``check-cert`` finds invalid), 2 for input or usage errors, an unwritable
stdout or ``--out``, a ``--bound`` of 2**63 or more (a random draw in
[-bound, bound] must span at most 2**64 integers) and a document nested
too deeply to parse included.  All structured output is canonical JSON on
stdout (or ``--out``); diagnostics go to stderr.

A command checks its arguments (node indices, ``--fix-line`` and that it
does not come with ``--all``, overlays and that no ``used:K`` or
``primary:K`` repeats) before it certifies or analyses the set, so a usage
error exits 2 on any set, GC or not, without paying for a certification.

Each command is a fresh process, so a command line parses by one of two
routes, both read off the table ``_COMMANDS`` in :mod:`gcnlab._commands`.
:func:`_plain_parse` reads a plainly well-formed argv into the namespace
argparse would give, and never imports :mod:`argparse` (nor the
:mod:`gettext` and :mod:`locale` it loads).  What it declines (help, a
usage error, an abbreviated option, ``--opt=value``, a negative number) goes
to argparse's whole tree, :func:`build_parser` in :mod:`gcnlab._cliparser`,
which alone writes help and usage errors.

With no bytecode written or shipped (``PYTHONDONTWRITEBYTECODE``, a fresh
checkout), a command compiles every gcnlab module it imports from source,
so each imports only what it runs: ``cli``, ``_commands`` (the table and
the helpers the handlers share) and the module of ``_commands`` named after
the command, never the other twelve handlers.  With bytecode compiled and
reused there is nothing to save, and the two modules a command imports
beyond ``cli`` cost up to about half a millisecond of start-up
(``BENCH_single_set_cli.json``).  Each handler imports the
modules it runs when it runs.  Every command reads node files and writes
canonical JSON through :mod:`gcnlab.nodefile`; only the commands that read
or write a certificate, report, summary or polynomial load
:mod:`gcnlab.serialization`.  So ``certify-gc`` compiles the certifier and
the document codecs, not the generators, sequences, plotting or exact
algebra, and ``plot --overlay maximal`` loads neither the certifier nor the
serializer.  A node file is read into the set's integer index, and a
certificate is written and read back in integers, so only a command that
computes a rational (a solve) loads :mod:`fractions`; ``check-cert`` does
not.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ._commands import _BAD_INPUT, _COMMANDS, _PROPERTY_FAILED, _InputError
from .errors import (
    DegenerateIntersection,
    GCNLabError,
    LineNotUsed,
    NotGC,
    NotPoised,
    ParseError,
    RetryLimitExceeded,
    TooManyCollinear,
)

if TYPE_CHECKING:
    import argparse


def _plain_parse(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a plainly well-formed ``argv``, else None.

    Plainly well formed means: a command name, then only that command's
    exact option names, each but a ``store_true`` followed by a value that
    does not start with ``-``, every ``type`` that converts its value, a
    ``--kind`` among the generator kinds, every required option, and as many
    other tokens as the command has positionals.  Read off ``_COMMANDS``
    like that, the argv means the same to argparse, so the namespace holds
    the same attributes and values, defaults included.  Everything else
    (help, ``--``, ``-``, ``--opt=value``, an abbreviated option, a
    negative number, any usage error) is declined and left to argparse,
    which alone writes help and usage errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0]}
    options = {}
    positionals = []
    for (flag,), spec in arguments:
        if not flag.startswith("-"):
            positionals.append(flag)
            continue
        dest = flag[2:].replace("-", "_")
        options[flag] = dest, spec
        values[dest] = spec.get("default", False if spec.get("action") == "store_true" else None)
    given = []
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options:
            return None
        dest, spec = options[token]
        seen.add(dest)
        action = spec.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if dest == "kind":
            from .generators import DEFAULT_KINDS

            if value not in DEFAULT_KINDS:
                return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    if len(given) != len(positionals):
        return None
    if any(spec.get("required") and dest not in seen for dest, spec in options.values()):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives; argparse parses only what the plain parse declines."""
    args = _plain_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: ``gcnlab`` and one subparser per command."""
    from . import _cliparser

    return _cliparser.build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        handler = args.command.replace("-", "_")
        return import_module(f"{__package__}._commands.{handler}").run(args)
    except (_InputError, ParseError, ValueError) as exc:
        print(f"gcnlab: {exc}", file=sys.stderr)
        return _BAD_INPUT
    except (
        NotPoised,
        NotGC,
        TooManyCollinear,
        LineNotUsed,
        DegenerateIntersection,
        RetryLimitExceeded,
    ) as exc:
        print(f"gcnlab: {exc}", file=sys.stderr)
        return _PROPERTY_FAILED
    except GCNLabError as exc:
        print(f"gcnlab: {exc}", file=sys.stderr)
        return _BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
