"""The argparse tree of the CLI, built from the command table.

:func:`gcnlab.cli.main` parses a plainly well-formed command line itself and
gives only what it declines to :func:`build_parser`'s tree: help, usage
errors and argv that only argparse reads, such as an abbreviated option,
``--opt=value``, ``--`` or a negative number.  A command that runs therefore
neither imports :mod:`argparse` (with :mod:`gettext`, and :mod:`locale`,
which gettext loads the first time a parser translates a string) nor
compiles this module.  The table and the output writer come from
:mod:`gcnlab._commands`, never from :mod:`gcnlab.cli`, which under
``python -m gcnlab.cli`` is ``__main__`` and would be compiled and run a
second time.
"""

from __future__ import annotations

import argparse

from ._commands import _COMMANDS, _emit


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, like every output, exits 2 when stdout cannot take it.

    ``ArgumentParser`` writes help through ``_print_message``, which drops
    an OSError, so ``--help`` to a closed pipe would print nothing and
    exit 0.  The subparsers of the tree are of this class too, and write
    help through the CLI's writer, which turns that OSError into a usage
    error.
    """

    def print_help(self, file=None):
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


class _GeneratorKinds:
    """``generators.DEFAULT_KINDS`` as ``--kind`` choices, imported when first read.

    Once the argument exists, argparse reads its choices only to test a
    parsed ``--kind`` and to print help or a usage error, so other commands
    never load the generators.  ``add_argument`` itself formats the choices,
    so they are attached to the action after it is added.
    """

    def __iter__(self):
        from .generators import DEFAULT_KINDS

        return iter(DEFAULT_KINDS)

    def __contains__(self, kind) -> bool:
        return kind in tuple(self)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: ``gcnlab`` and one subparser per command."""
    parser = _Parser(
        prog="gcnlab",
        description="Exact geometry of GC interpolation sets: poisedness, line-factor "
        "certificates, distribution sequences, maximal-line analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            action = command.add_argument(*flags, **options)
            if action.dest == "kind":
                action.choices = _GeneratorKinds()
    return parser
