"""``gcnlab cayley-bacharach --m M --n N``: dependence of a random line-product grid."""

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
