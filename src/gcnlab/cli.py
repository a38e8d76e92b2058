"""Command-line interface.

Exit codes: 0 when the requested property holds (or the command simply
succeeded), 1 when the property fails (not poised, not GC, GM violated,
dependence check false, retry budget exhausted, a certificate that
``check-cert`` finds invalid), 2 for input or usage errors, an unwritable
stdout or ``--out`` included.  All structured output is canonical JSON on
stdout (or ``--out``); diagnostics go to stderr.

A command checks its arguments (node indices, ``--fix-line`` and that it
does not come with ``--all``, overlays and that no ``used:K`` or
``primary:K`` repeats) before it certifies or analyses the set, so a usage
error exits 2 on any set, GC or not, without paying for a certification.

Each command is a fresh process, so :func:`main` builds only the parser of
the command that ``argv[0]`` names.  The whole tree of :func:`build_parser`
comes from the same ``_COMMANDS`` table and is built only to report no
command, an unknown command or arguments left over.  Each handler imports
the modules it runs when it runs.  Every command reads node files and
writes canonical JSON through :mod:`gcnlab.nodefile`; only the commands
that read or write a certificate, report, summary or polynomial load
:mod:`gcnlab.serialization`.  So ``certify-gc`` loads the certifier and
the serializer, not the generators, sequences, plotting or exact algebra,
and ``plot --overlay maximal`` loads neither the certifier nor the
serializer.  A node file is read into the set's integer index, so only a
command that computes a rational (a certificate's constants, a solve)
loads :mod:`fractions`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

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
    from .geometry import Line, NodeSet

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
    from .nodefile import load_nodeset

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
    from .nodefile import _dumps

    _emit(_dumps(doc), out)


def _node_index(xs: NodeSet, k: int) -> int:
    if not 0 <= k < len(xs):
        raise _InputError(f"node index {k} out of range [0, {len(xs) - 1}]")
    return k


def _parse_line_option(text: str) -> Line:
    from .geometry import Line

    parts = text.split(",")
    if len(parts) != 3:
        raise _InputError(f"--fix-line expects 'a,b,c', got {text!r}")
    try:
        return Line(int(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad line coefficients {text!r}: {exc}") from None


# --- subcommand handlers -------------------------------------------------------

def _cmd_check_poised(args) -> int:
    from .interpolation import is_poised

    xs = _read_nodeset(args.file)
    poised = is_poised(xs)
    _emit_doc({"degree": xs.degree, "node_count": len(xs), "poised": poised}, args.out)
    return 0 if poised else _PROPERTY_FAILED


def _cmd_fundamental(args) -> int:
    from .interpolation import fundamental
    from .polynomials import format_poly
    from .serialization import poly_to_dict

    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    sol = fundamental(xs, k)
    doc = poly_to_dict(sol.poly)
    doc["node"] = k
    doc["text"] = format_poly(sol.poly)
    _emit_doc(doc, args.out)
    return 0


def _cmd_certify_gc(args) -> int:
    from .certification import certify_gc

    xs = _read_nodeset(args.file)
    cert = certify_gc(xs)
    from .serialization import save_certificate  # a set that fails never loads the writer

    _emit(save_certificate(cert), args.out)
    return 0


def _cmd_check_cert(args) -> int:
    from .errors import InvalidCertificate
    from .serialization import load_certificate

    text = _read(args.file)
    try:
        cert = load_certificate(text)  # verifies every entry
    except InvalidCertificate as exc:
        print(f"gcnlab: invalid certificate: {exc}", file=sys.stderr)
        return _PROPERTY_FAILED
    _emit_doc({"degree": cert.degree, "node_count": len(cert.nodeset), "valid": True}, args.out)
    return 0


def _cmd_used_lines(args) -> int:
    from .certification import certify_gc, used_lines_of

    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    cert = certify_gc(xs)
    lines = sorted(used_lines_of(cert, k))
    _emit_doc({"node": k, "lines": [list(l.coefficients) for l in lines]}, args.out)
    return 0


def _cmd_mdseq(args) -> int:
    from .certification import certify_gc
    from .sequences import enumerate_mdseqs, fixed_first_mdseq, greedy_mdseq

    if args.all and args.fix_line is not None:
        raise _InputError("--fix-line cannot be combined with --all, which lists every ordering")
    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    first = None if args.fix_line is None else _parse_line_option(args.fix_line)
    cert = certify_gc(xs)
    if args.all:
        seqs = sorted(s.counts for s in enumerate_mdseqs(cert, k))
        _emit_doc({"node": k, "distributions": [list(c) for c in seqs]}, args.out)
        return 0
    if first is not None:
        seq = fixed_first_mdseq(cert, k, first)
    else:
        seq = greedy_mdseq(cert, k)
    doc = {
        "node": k,
        "lines": [list(l.coefficients) for l in seq.lines],
        "counts": list(seq.counts),
        "primary": {str(j): pos for j, pos in sorted(seq.primary.items())},
    }
    if seq.fixed_first is not None:
        doc["fixed_first"] = list(seq.fixed_first.coefficients)
    _emit_doc(doc, args.out)
    return 0


def _cmd_maximal_lines(args) -> int:
    from .nodefile import maximal_lines_to_list

    xs = _read_nodeset(args.file)
    doc = {"degree": xs.degree, "maximal_lines": maximal_lines_to_list(xs.maximal)}
    _emit_doc(doc, args.out)
    return 0


def _cmd_verify_gm(args) -> int:
    from .analysis import verify_gm

    xs = _read_nodeset(args.file)
    report = verify_gm(xs)
    from .serialization import save_report  # a set that fails never loads the writer

    _emit(save_report(report), args.out)
    return 0 if report.satisfied else _PROPERTY_FAILED


def _cmd_incidence_profile(args) -> int:
    from .analysis import incidence_profile

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


def _cmd_cayley_bacharach(args) -> int:
    from .analysis import cayley_bacharach_check
    from .geometry import Line
    from .rng import RETRY_LIMIT, SplitMix64

    if args.m < 1 or args.n < 1 or args.m + args.n < 3:
        raise _InputError("need --m >= 1 and --n >= 1 with m + n >= 3")
    if args.bound < 1:
        raise _InputError("need --bound >= 1")
    rng = SplitMix64(args.seed)
    bound = args.bound
    for _ in range(RETRY_LIMIT):
        lines_m = []
        lines_n = []
        seen = set()
        rejected = 0  # draws that are no line or repeat one; small bounds have few lines
        for group, count in ((lines_m, args.m), (lines_n, args.n)):
            while len(group) < count:
                a, b, c = (rng.randint(-bound, bound) for _ in range(3))
                line = Line(a, b, c) if (a, b) != (0, 0) else None
                if line is None or line in seen:
                    rejected += 1
                    if rejected > RETRY_LIMIT:
                        raise RetryLimitExceeded(
                            f"no {args.m + args.n} distinct lines within {RETRY_LIMIT} "
                            f"rejected draws at coordinate bound {bound}"
                        )
                    continue
                seen.add(line)
                group.append(line)
        try:
            dependent = cayley_bacharach_check(lines_m, lines_n)
        except DegenerateIntersection:
            continue
        doc = {
            "m": args.m,
            "n": args.n,
            "seed": args.seed,
            "lines_m": [list(l.coefficients) for l in lines_m],
            "lines_n": [list(l.coefficients) for l in lines_n],
            "dependence_degree": args.m + args.n - 3,
            "dependent": dependent,
        }
        _emit_doc(doc, args.out)
        return 0 if dependent else _PROPERTY_FAILED
    raise RetryLimitExceeded(f"no transversal line configuration within {RETRY_LIMIT} draws")


def _cmd_generate(args) -> int:
    from .generators import GeneratorSpec, generate
    from .nodefile import save_nodeset

    spec = GeneratorSpec(
        kind=args.kind, degree=args.degree, seed=args.seed, coordinate_bound=args.bound
    )
    xs = generate(spec)
    _emit(save_nodeset(xs), args.out)
    return 0


def _cmd_search(args) -> int:
    from .analysis import search_counterexample
    from .serialization import save_summary

    summary = search_counterexample(
        degree=args.degree, trials=args.trials, seed=args.seed, coordinate_bound=args.bound
    )
    _emit(save_summary(summary), args.out)
    return 0 if summary.all_satisfied else _PROPERTY_FAILED


def _cmd_plot(args) -> int:
    from .plotting import plot_svg

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
        from .certification import certify_gc, used_lines_of

        if cert is None:
            cert = certify_gc(xs)  # after every overlay is checked
        if kind == "used":
            used = used_lines_of(cert, k)
        else:
            from .sequences import greedy_mdseq

            sequence = greedy_mdseq(cert, k)
    _emit(plot_svg(xs, maximal=maximal, used=used, sequence=sequence), args.out)
    return 0


# --- parser -----------------------------------------------------------------------

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


_FILE = (("file",), {})
_NODE = (("--node",), {"type": int, "required": True})
_SEED = (("--seed",), {"type": int, "default": 0})
_BOUND = (("--bound",), {"type": int, "default": 8})

#: Each command's handler, its help line and its arguments after ``--out``,
#: as the positional and keyword arguments of ``add_argument``.
_COMMANDS = {
    "check-poised": (_cmd_check_poised, "decide unique solvability of a node file", [_FILE]),
    "fundamental": (_cmd_fundamental, "fundamental polynomial of one node", [_FILE, _NODE]),
    "certify-gc": (_cmd_certify_gc, "factor every fundamental polynomial into lines", [_FILE]),
    "check-cert": (_cmd_check_cert, "verify a saved certificate without searching", [_FILE]),
    "used-lines": (_cmd_used_lines, "distinct factor lines of one node", [_FILE, _NODE]),
    "mdseq": (
        _cmd_mdseq,
        "greedy line sequence and count vector of one node",
        [
            _FILE,
            _NODE,
            (("--fix-line",), {"help": "force 'a,b,c' as the first line"}),
            (("--all",), {"action": "store_true",
                          "help": "enumerate all achievable count vectors"}),
        ],
    ),
    "maximal-lines": (_cmd_maximal_lines, "lines through exactly degree+1 nodes", [_FILE]),
    "verify-gm": (_cmd_verify_gm, "certify, then check for a maximal line", [_FILE]),
    "incidence-profile": (
        _cmd_incidence_profile,
        "per-line target counts through a center",
        [
            _FILE,
            _NODE,
            (("--target",), {"help": "comma-separated node indices (default: all others)"}),
        ],
    ),
    "cayley-bacharach": (
        _cmd_cayley_bacharach,
        "dependence of a random line-product grid",
        [
            (("--m",), {"type": int, "required": True}),
            (("--n",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "generate": (
        _cmd_generate,
        "emit a certified node set",
        [
            (("--kind",), {"required": True}),
            (("--degree",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "search": (
        _cmd_search,
        "generate many sets and hunt for a GM violation",
        [
            (("--degree",), {"type": int, "required": True}),
            (("--trials",), {"type": int, "required": True}),
            _SEED,
            _BOUND,
        ],
    ),
    "plot": (
        _cmd_plot,
        "render nodes and overlays as SVG",
        [
            _FILE,
            (("--overlay",), {"action": "append",
                              "help": "repeatable: 'maximal', 'used:K' or 'primary:K'"}),
        ],
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, like every output, exits 2 when stdout cannot take it.

    ``ArgumentParser`` writes help through ``_print_message``, which drops
    an OSError, so ``--help`` to a closed pipe would print nothing and
    exit 0.  The subparsers of the tree are of this class too.
    """

    def print_help(self, file=None):
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    handler, _, arguments = _COMMANDS[name]
    parser.set_defaults(handler=handler)
    parser.add_argument("--out", help="write output to this file instead of stdout")
    for flags, options in arguments:
        action = parser.add_argument(*flags, **options)
        if action.dest == "kind":
            action.choices = _GeneratorKinds()
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: ``gcnlab`` and one subparser per command."""
    parser = _Parser(
        prog="gcnlab",
        description="Exact geometry of GC interpolation sets: poisedness, line-factor "
        "certificates, distribution sequences, maximal-line analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as it stands in :func:`build_parser`'s tree."""
    return _add_arguments(_Parser(prog=f"gcnlab {name}"), name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, building one parser when it can.

    The tree hands every argument after the command name to that command's
    parser, so parsing them with the same parser alone gives the same
    namespace, help and errors.  The tree itself is built only when no
    command is named or arguments are left over, which it reports with its
    own usage.
    """
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = _command_parser(name)
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
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
