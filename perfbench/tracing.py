"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions of every ``gcnlab`` module and
rebinds each wrapper under every name that refers to the original, in every
``gcnlab`` module, so calls made through imported names (``line_incidence``
inside ``analysis``, ``is_poised`` inside ``certification``) and through
module attributes (``linalg.rank``) are both seen.  ``Line.at`` is wrapped on
its class.

A timed wrapper is a span: its duration is charged to the function and to
its caller's child time, and self time is duration minus child time.  Spans
are folded into totals as they end, per function and per operation id (a
trial round, a CLI session, a CB instance), because the sweep makes around
10^5 layer calls a second and storing each span would cost more memory than
the program itself.  Hot geometry helpers only count calls: timing them
would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = (
    "analysis",
    "certification",
    "cli",
    "generators",
    "geometry",
    "interpolation",
    "linalg",
    "plotting",
    "polynomials",
    "sequences",
    "serialization",
)

#: Called so often that only a count is kept.
COUNT_ONLY = {
    "geometry.line_through",
    "geometry.intersect",
    "geometry.is_incident",
    "geometry.general_position",
    "geometry.Line.at",
}

#: Conversion helpers below any layer boundary; not wrapped at all.
SKIP = {"geometry.to_scalar", "polynomials.dim_pi"}


#: linalg functions that run one elimination of their argument matrix.
ELIMINATING = {"linalg.rank", "linalg.is_consistent", "linalg.unit_consistency", "linalg.solve_square", "linalg.nullspace_basis"}


def _cells(name, args):
    """Rows x columns of the matrix a linalg entry point eliminates."""
    rows = args[0]
    if not rows:
        return 0
    cols = len(rows[0])
    if name == "linalg.solve_square":
        cols += len(args[1])
    elif name == "linalg.unit_consistency":
        cols += len(rows)
    elif name == "linalg.is_consistent":
        cols += 1
    return len(rows) * cols


class Tracer:
    """Span totals per function name, overall and per operation id."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, s, self_s, raised, true]
        self.by_op: dict[int, dict[str, list]] = {}
        self.counters = {"linalg.cells": 0, "serialization.bytes_out": 0}
        self.node_sets: list = []
        self.op = 0
        self._stack: list[list[float]] = []

    def _record(self, name, calls, dt, self_dt, raised, true):
        for table in (self.totals, self.by_op.setdefault(self.op, {})):
            row = table.setdefault(name, [0, 0.0, 0.0, 0, 0])
            row[0] += calls
            row[1] += dt
            row[2] += self_dt
            row[3] += raised
            row[4] += true

    def timed(self, name, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in ELIMINATING:
                self.counters["linalg.cells"] += _cells(name, args)
            frame = [0.0]
            stack.append(frame)
            raised = 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self._record(name, 1, dt, dt - frame[0], raised, 0)
            if name.startswith("serialization.save_"):
                self.counters["serialization.bytes_out"] += len(result)
            elif name == "generators.generate_with_certificate":
                self.node_sets.append(result[0].nodes)
            return result

        return span

    def counted(self, name, fn):
        @functools.wraps(fn)
        def count(*args, **kwargs):
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._record(name, 1, 0.0, 0.0, 0, result is True)

        return count

    def merge(self, doc: dict, op: int) -> None:
        """Add the totals a traced child process wrote (see :meth:`dump`)."""
        self.op = op
        for name, row in doc["totals"].items():
            self._record(name, *row)
        for key, value in doc["counters"].items():
            self.counters[key] += value

    def dump(self) -> dict:
        return {"totals": self.totals, "counters": self.counters}


def install(tracer: Tracer) -> None:
    """Wrap every public gcnlab function and rebind it everywhere it is named."""
    import gcnlab

    modules = [importlib.import_module(f"gcnlab.{m}") for m in MODULES]
    replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrap = tracer.counted if name in COUNT_ONLY else tracer.timed
            replace[id(fn)] = (fn, wrap(name, fn))
    for mod in modules + [gcnlab]:
        for attr, value in list(vars(mod).items()):
            original, wrapper = replace.get(id(value), (None, None))
            if original is value:
                setattr(mod, attr, wrapper)
    line_cls = sys.modules["gcnlab.geometry"].Line
    line_cls.at = tracer.counted("geometry.Line.at", line_cls.at)
