"""``gcnlab cayley-bacharach --m M --n N``: dependence of a random line-product grid.

The m + n distinct lines come from ``SplitMix64.line``, the first m forming
the first group; the draw budget counts only repeated lines, since a small
bound has few lines.
"""

from ..errors import DegenerateIntersection, RetryLimitExceeded
from . import _PROPERTY_FAILED, _InputError, _emit_doc


def run(args) -> int:
    from ..analysis import cayley_bacharach_check
    from ..geometry import Line
    from ..rng import RETRY_LIMIT, SplitMix64

    if args.m < 1 or args.n < 1 or args.m + args.n < 3:
        raise _InputError("need --m >= 1 and --n >= 1 with m + n >= 3")
    if args.bound < 1:
        raise _InputError("need --bound >= 1")
    rng = SplitMix64(args.seed)
    count = args.m + args.n
    for _ in range(RETRY_LIMIT):
        lines = []
        seen = set()
        repeats = 0
        while len(lines) < count:
            line = Line(*rng.line(args.bound))
            if line in seen:
                repeats += 1
                if repeats > RETRY_LIMIT:
                    raise RetryLimitExceeded(
                        f"no {count} distinct lines within {RETRY_LIMIT} "
                        f"rejected draws at coordinate bound {args.bound}"
                    )
                continue
            seen.add(line)
            lines.append(line)
        lines_m, lines_n = lines[: args.m], lines[args.m :]
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
