"""Command-line interface.

Exit codes: 0 when the requested property holds (or the command simply
succeeded), 1 when the property fails (not poised, not GC, GM violated,
dependence check false, retry budget exhausted), 2 for input or usage
errors.  All structured output is canonical JSON on stdout (or ``--out``);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialization as ser
from .analysis import (
    cayley_bacharach_check,
    incidence_profile,
    search_counterexample,
    verify_gm,
)
from .certification import Incidence, certify_gc, used_lines_of
from .errors import (
    DegenerateIntersection,
    GCNLabError,
    LineNotUsed,
    MultiplicityPresent,
    NotGC,
    NotPoised,
    ParseError,
    RetryLimitExceeded,
    TooManyCollinear,
)
from .generators import DEFAULT_KINDS, GeneratorSpec, generate
from .geometry import Line
from .interpolation import NodeSet, fundamental, is_poised
from .plotting import plot_svg
from .polynomials import format_poly
from .rng import SplitMix64
from .sequences import enumerate_mdseqs, fixed_first_mdseq, greedy_mdseq

_PROPERTY_FAILED = 1
_BAD_INPUT = 2


class _InputError(Exception):
    """Invalid user input discovered after argument parsing."""


def _read_nodeset(path: str) -> NodeSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    return ser.load_nodeset(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _node_index(xs: NodeSet, k: int) -> int:
    if not 0 <= k < len(xs):
        raise _InputError(f"node index {k} out of range [0, {len(xs) - 1}]")
    return k


def _parse_line_option(text: str) -> Line:
    parts = text.split(",")
    if len(parts) != 3:
        raise _InputError(f"--fix-line expects 'a,b,c', got {text!r}")
    try:
        return Line(int(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad line coefficients {text!r}: {exc}") from None


def _json_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --- subcommand handlers -------------------------------------------------------

def _cmd_check_poised(args) -> int:
    xs = _read_nodeset(args.file)
    poised = is_poised(xs)
    _emit(
        _json_dump({"degree": xs.degree, "node_count": len(xs), "poised": poised}),
        args.out,
    )
    return 0 if poised else _PROPERTY_FAILED


def _cmd_fundamental(args) -> int:
    xs = _read_nodeset(args.file)
    k = _node_index(xs, args.node)
    sol = fundamental(xs, k)
    doc = ser.poly_to_dict(sol.poly)
    doc["node"] = k
    doc["text"] = format_poly(sol.poly)
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_certify_gc(args) -> int:
    xs = _read_nodeset(args.file)
    cert = certify_gc(xs)
    _emit(ser.save_certificate(cert), args.out)
    return 0


def _cmd_used_lines(args) -> int:
    xs = _read_nodeset(args.file)
    cert = certify_gc(xs)
    k = _node_index(xs, args.node)
    lines = sorted(used_lines_of(cert, k))
    _emit(_json_dump({"node": k, "lines": [list(l.coefficients) for l in lines]}), args.out)
    return 0


def _cmd_mdseq(args) -> int:
    xs = _read_nodeset(args.file)
    cert = certify_gc(xs)
    k = _node_index(xs, args.node)
    if args.all:
        seqs = sorted(s.counts for s in enumerate_mdseqs(cert, k))
        _emit(_json_dump({"node": k, "distributions": [list(c) for c in seqs]}), args.out)
        return 0
    if args.fix_line is not None:
        seq = fixed_first_mdseq(cert, k, _parse_line_option(args.fix_line))
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
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_maximal_lines(args) -> int:
    xs = _read_nodeset(args.file)
    doc = {
        "degree": xs.degree,
        "maximal_lines": [
            {"line": list(l.coefficients), "nodes": list(nodes)}
            for l, nodes in Incidence.of(xs).maximal
        ],
    }
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_verify_gm(args) -> int:
    xs = _read_nodeset(args.file)
    report = verify_gm(xs)
    _emit(ser.save_report(report), args.out)
    return 0 if report.satisfied else _PROPERTY_FAILED


def _cmd_incidence_profile(args) -> int:
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
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_cayley_bacharach(args) -> int:
    if args.m < 1 or args.n < 1 or args.m + args.n < 3:
        raise _InputError("need --m >= 1 and --n >= 1 with m + n >= 3")
    rng = SplitMix64(args.seed)
    bound = args.bound
    for _ in range(512):
        lines_m = []
        lines_n = []
        seen = set()
        for group, count in ((lines_m, args.m), (lines_n, args.n)):
            while len(group) < count:
                a, b, c = (rng.randint(-bound, bound) for _ in range(3))
                if (a, b) == (0, 0):
                    continue
                line = Line(a, b, c)
                if line in seen:
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
        _emit(_json_dump(doc), args.out)
        return 0 if dependent else _PROPERTY_FAILED
    raise RetryLimitExceeded("no transversal line configuration within 512 draws")


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind, degree=args.degree, seed=args.seed, coordinate_bound=args.bound
    )
    xs = generate(spec)
    _emit(ser.save_nodeset(xs), args.out)
    return 0


def _cmd_search(args) -> int:
    summary = search_counterexample(
        degree=args.degree, trials=args.trials, seed=args.seed, coordinate_bound=args.bound
    )
    _emit(ser.save_summary(summary), args.out)
    return 0 if summary.all_satisfied else _PROPERTY_FAILED


def _cmd_plot(args) -> int:
    xs = _read_nodeset(args.file)
    overlays = args.overlay or ()
    maximal = ()
    used = ()
    sequence = None
    cert = failure = None
    if any(o.startswith(("used:", "primary:")) for o in overlays):
        # Certify up front so that `maximal` reads the certificate's index;
        # a failure is raised where the first overlay that needs it stands.
        try:
            cert = certify_gc(xs)
        except (GCNLabError, ValueError) as exc:
            failure = exc
    for overlay in overlays:
        if overlay == "maximal":
            index = Incidence.of(xs) if cert is None else cert.incidence
            maximal = {line for line, _ in index.maximal}
        elif overlay.startswith(("used:", "primary:")):
            if failure is not None:
                raise failure
            k = _node_index(xs, int(overlay.split(":", 1)[1]))
            if overlay.startswith("used:"):
                used = used_lines_of(cert, k)
            else:
                sequence = greedy_mdseq(cert, k)
        else:
            raise _InputError(
                f"unknown overlay {overlay!r}; use 'maximal', 'used:K' or 'primary:K'"
            )
    _emit(plot_svg(xs, maximal=maximal, used=used, sequence=sequence), args.out)
    return 0


# --- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnlab",
        description="Exact geometry of GC interpolation sets: poisedness, line-factor "
        "certificates, distribution sequences, maximal-line analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("check-poised", _cmd_check_poised, "decide unique solvability of a node file")
    p.add_argument("file")

    p = add("fundamental", _cmd_fundamental, "fundamental polynomial of one node")
    p.add_argument("file")
    p.add_argument("--node", type=int, required=True)

    p = add("certify-gc", _cmd_certify_gc, "factor every fundamental polynomial into lines")
    p.add_argument("file")

    p = add("used-lines", _cmd_used_lines, "distinct factor lines of one node")
    p.add_argument("file")
    p.add_argument("--node", type=int, required=True)

    p = add("mdseq", _cmd_mdseq, "greedy line sequence and count vector of one node")
    p.add_argument("file")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--fix-line", help="force 'a,b,c' as the first line")
    p.add_argument("--all", action="store_true", help="enumerate all achievable count vectors")

    p = add("maximal-lines", _cmd_maximal_lines, "lines through exactly degree+1 nodes")
    p.add_argument("file")

    p = add("verify-gm", _cmd_verify_gm, "certify, then check for a maximal line")
    p.add_argument("file")

    p = add("incidence-profile", _cmd_incidence_profile, "per-line target counts through a center")
    p.add_argument("file")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--target", help="comma-separated node indices (default: all others)")

    p = add("cayley-bacharach", _cmd_cayley_bacharach, "dependence of a random line-product grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)

    p = add("generate", _cmd_generate, "emit a certified node set")
    p.add_argument("--kind", choices=DEFAULT_KINDS, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)

    p = add("search", _cmd_search, "generate many sets and hunt for a GM violation")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)

    p = add("plot", _cmd_plot, "render nodes and overlays as SVG")
    p.add_argument("file")
    p.add_argument(
        "--overlay",
        action="append",
        help="repeatable: 'maximal', 'used:K' or 'primary:K'",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_InputError, ParseError, ValueError) as exc:
        print(f"gcnlab: {exc}", file=sys.stderr)
        return _BAD_INPUT
    except (
        NotPoised,
        NotGC,
        TooManyCollinear,
        MultiplicityPresent,
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
