"""``gcnlab search --degree N --trials T``: generate many sets and hunt for a GM violation."""

from . import _PROPERTY_FAILED, _emit


def run(args) -> int:
    from ..analysis import search_counterexample
    from ..serialization import save_summary

    summary = search_counterexample(
        degree=args.degree, trials=args.trials, seed=args.seed, coordinate_bound=args.bound
    )
    _emit(save_summary(summary), args.out)
    return 0 if summary.all_satisfied else _PROPERTY_FAILED
