"""The argparse form of the CLI's command table.

:func:`gcnlab.cli.main` parses a plainly well-formed command line itself and
comes here only for what it declines: help, usage errors and argv that only
argparse reads, such as an abbreviated option, ``--opt=value``, ``--`` or a
negative number.  A command that runs therefore neither imports
:mod:`argparse` (with :mod:`gettext`, and :mod:`locale`, which gettext
loads the first time a parser translates a string) nor compiles this module.

The command table and the function that writes help are passed in rather
than imported: under ``python -m gcnlab.cli`` the running module is
``__main__``, and importing ``gcnlab.cli`` here would compile and run a
second copy of it.
"""

from __future__ import annotations

import argparse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, like every output, exits 2 when stdout cannot take it.

    ``ArgumentParser`` writes help through ``_print_message``, which drops
    an OSError, so ``--help`` to a closed pipe would print nothing and
    exit 0.  The subparsers of the tree are of this class too; ``emit`` is
    the CLI's writer, which turns that OSError into a usage error.
    """

    def __init__(self, *, emit, **kwargs):
        super().__init__(**kwargs)
        self.emit = emit

    def print_help(self, file=None):
        if file is None:
            self.emit(self.format_help(), None)
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


def _add_arguments(parser: argparse.ArgumentParser, handler, arguments) -> argparse.ArgumentParser:
    parser.set_defaults(handler=handler)
    for flags, options in arguments:
        action = parser.add_argument(*flags, **options)
        if action.dest == "kind":
            action.choices = _GeneratorKinds()
    return parser


def build_parser(commands: dict, emit) -> argparse.ArgumentParser:
    """The whole command tree: ``gcnlab`` and one subparser per command of ``commands``."""
    parser = _Parser(
        emit=emit,
        prog="gcnlab",
        description="Exact geometry of GC interpolation sets: poisedness, line-factor "
        "certificates, distribution sequences, maximal-line analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in commands.items():
        _add_arguments(sub.add_parser(name, help=help_text, emit=emit), handler, arguments)
    return parser


def _command_parser(name: str, commands: dict, emit) -> argparse.ArgumentParser:
    """The parser of one command, as it stands in :func:`build_parser`'s tree."""
    handler, _, arguments = commands[name]
    return _add_arguments(_Parser(emit=emit, prog=f"gcnlab {name}"), handler, arguments)


def parse(argv: list[str], commands: dict, emit) -> argparse.Namespace:
    """What ``build_parser(commands, emit).parse_args(argv)`` gives, building one parser when it can.

    The tree hands every argument after the command name to that command's
    parser, so parsing them with the same parser alone gives the same
    namespace, help and errors.  The tree itself is built only when no
    command is named or arguments are left over, which it reports with its
    own usage.
    """
    name = argv[0] if argv else None
    if name in commands:
        parser = _command_parser(name, commands, emit)
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extra:
            return args
    return build_parser(commands, emit).parse_args(argv)
