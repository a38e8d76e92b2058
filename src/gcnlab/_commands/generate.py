"""``gcnlab generate --kind KIND --degree N``: emit a certified node set."""

from . import _emit


def run(args) -> int:
    from ..generators import GeneratorSpec, generate
    from ..nodefile import save_nodeset

    spec = GeneratorSpec(
        kind=args.kind, degree=args.degree, seed=args.seed, coordinate_bound=args.bound
    )
    xs = generate(spec)
    _emit(save_nodeset(xs), args.out)
    return 0
