"""gcnlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gm_sweep --seed 2024 --seconds 25 --trace 0

Workloads (closed loop, one client, one request at a time):

* ``gm_sweep``: rounds of ``search_counterexample`` at degrees 2, 3, 4
  and 5, three trials each (``DEFAULT_KINDS`` round robin, coordinate
  bound 8), each round with its own master seed drawn from ``--seed``.
* ``single_set_cli``: sessions of four ``python -m gcnlab.cli`` commands
  (``certify-gc --out``, ``verify-gm``, ``mdseq --node 0 --all``,
  ``plot --overlay maximal``) on each of seven node files; see
  :data:`inputs.CLI_FILES`.  Runs only whole passes over the files.
* ``cb_sweep``: ``cayley_bacharach_check`` on seeded pairs of line groups.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half of ``--seconds``, replays the same requests
with every public gcnlab function wrapped (:mod:`tracing`), and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is
the JSON result; the lines before it are the same figures for people.
Exit code 0 means the run finished, whether or not every check passed
(``correct`` says that); any other code means no result.

Times are in nominal seconds. Shared machines swing in speed by up to
1.7x within a second (a fixed Fraction loop takes 8 to 16 ms on a shared
2-CPU virtual machine), so the benchmark measures how slow the host is
right now (:func:`loop_slowness` for work done in this process,
:func:`start_slowness` for work done in child processes) before the
first request and again once at least :data:`CALIBRATION_WINDOW` has
passed, and divides the wall time of the requests in between by the mean
of the two readings. A faster program still shows in full; a slow or
fast spell of the host mostly cancels. The raw wall-clock figures are
printed too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT = 170

GM_DEGREES = (2, 3, 4, 5)
GM_TRIALS = 3  # one trial of each default kind per degree and round
CB_BLOCK = 256  # instances per pinned digest
CLI_COMMANDS = ("certificate", "report", "mdseq", "plot")
SETUP_PROBES = 11
PLOT_REPEATS = 2  # extra cold-start samples per session
CALIBRATION_WINDOW = 0.25  # seconds of requests between two slowness readings


def loop_slowness() -> float:
    """Wall time of a fixed small-Fraction loop, collector off, over its nominal 10 ms."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(3000):
        if i % 50 == 0:
            acc = Fraction(0)
        acc += Fraction(i * 7919 % 1009 - 500, i % 97 + 1)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed / 0.010


def start_slowness() -> float:
    """Wall time of a bare interpreter start and exit, over its nominal 50 ms.

    Child processes follow the host's speed in process start-up more than
    in this process's arithmetic, so their timings are scaled by this.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=CHILD_ENV, check=True)
    return (time.perf_counter() - t0) / 0.050


class Request:
    """What one closed-loop request did: time, work, checks, output digests."""

    def __init__(self, label: str):
        self.label = label
        self.busy = 0.0  # seconds spent inside the program
        self.raw_busy = 0.0  # the same before calibration
        self.ops = 0  # units of throughput (trials, sessions, non-degenerate instances)
        self.attempted = 0  # checked operations
        self.failed = 0
        self.latency: list[float] = []  # samples for latency_s.p50
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}  # canonical output key -> SHA-256

    def check(self, weight: int, error: str | None) -> None:
        self.attempted += weight
        if error is not None:
            self.failed += weight
            self.errors.append(error)

    def calibrate(self, factor: float) -> None:
        self.raw_busy = self.busy
        self.busy *= factor
        self.latency = [x * factor for x in self.latency]


class GMSweep:
    pass_len = 1
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def request(self, i: int) -> Request:
        req = Request(f"round {i}")
        master = inputs.gm_round_seed(self.seed, i)
        digest = hashlib.sha256()
        for degree in GM_DEGREES:
            t0 = time.perf_counter()
            summary = gcnlab.search_counterexample(degree, GM_TRIALS, master, coordinate_bound=8)
            req.busy += time.perf_counter() - t0
            text = gcnlab.serialization.save_summary(summary)
            digest.update(text.encode())
            req.ops += GM_TRIALS
            req.check(GM_TRIALS, checks.summary(text, GM_TRIALS))
        req.latency.append(req.busy)
        req.digests[f"round{i}"] = digest.hexdigest()
        return req


class SingleSetCLI:
    """One request per command; four consecutive commands are one file's session."""

    pass_len = len(inputs.CLI_FILES) * len(CLI_COMMANDS)
    slowness = staticmethod(start_slowness)

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.tracer = None  # set to trace the commands through cli_entry.py
        self.files = []
        for label, degree, nodes in inputs.cli_nodesets(seed):
            path = tmp / f"{label}.json"
            path.write_text(inputs.nodeset_json(degree, nodes), encoding="utf-8")
            self.files.append((label, degree, nodes, path))
        self.maximal: dict[str, dict] = {}  # filled on first use, outside the timed region

    def request(self, i: int) -> Request:
        session, step = divmod(i, len(CLI_COMMANDS))
        label, degree, nodes, path = self.files[session % len(self.files)]
        name = CLI_COMMANDS[step]
        negative = label.startswith("moved")
        cert_path = self.tmp / "certificate.json"
        argv = {
            "certificate": ["certify-gc", path.name, "--out", cert_path.name],
            "report": ["verify-gm", path.name],
            "mdseq": ["mdseq", path.name, "--node", "0", "--all"],
            "plot": ["plot", path.name, "--overlay", "maximal"],
        }[name]
        if self.tracer is not None:
            cmd = [sys.executable, str(HERE / "cli_entry.py"), str(self.tmp / "trace.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "gcnlab.cli", *argv]
        cert_path.unlink(missing_ok=True)
        req = Request(label)
        req.busy, proc = self._run(cmd, session)
        if label not in self.maximal:
            self.maximal[label] = checks.maximal_lines(degree, nodes)
        maximal = self.maximal[label]
        error = checks.exit_status(proc.returncode, 1 if negative and name != "plot" else 0, proc.stderr)
        if error is None and (name == "plot" or not negative):
            text = cert_path.read_text(encoding="utf-8") if name == "certificate" else proc.stdout
            req.digests[f"{label}/{name}"] = hashlib.sha256(text.encode()).hexdigest()
            if name == "certificate":
                error = checks.certificate(text, degree, nodes)
            elif name == "report":
                error = checks.report(text, degree, nodes, maximal)
            elif name == "mdseq":
                error = checks.distributions(text, degree, len(nodes), label.startswith("chung_yao"))
            else:
                error = checks.plot(text, len(nodes), len(maximal))
        req.check(1, None if error is None else f"{argv[0]}: {error}")
        if name == "plot":
            req.ops = 1  # the session is complete
            req.latency.append(req.busy)
            # Cold start is short and noisy: repeat the plot for more samples.
            # The repeats are not part of the session, and the traced replay skips them.
            for _ in range(0 if self.tracer else PLOT_REPEATS):
                elapsed, again = self._run(cmd, session)
                req.latency.append(elapsed)
                same = again.returncode == proc.returncode and again.stdout == proc.stdout
                req.check(1, None if same else "plot: a repeated run gave another result")
        return req

    def _run(self, cmd: list[str], session: int) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=self.tmp, timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.merge(json.loads((self.tmp / "trace.json").read_text(encoding="utf-8")), session)
        return elapsed, proc


class CBSweep:
    pass_len = 1
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed: int, tmp: Path):
        self.source = inputs.cb_instances(seed)
        self.instances = []
        self.outcomes: list[str] = []
        self._draw(1)

    def _draw(self, count: int) -> None:
        while len(self.instances) < count:
            group_m, group_n, degenerate = next(self.source)
            self.instances.append(([gcnlab.Line(*t) for t in group_m], [gcnlab.Line(*t) for t in group_n], degenerate))

    def request(self, i: int) -> Request:
        self._draw(i + 1)
        lines_m, lines_n, degenerate = self.instances[i]
        req = Request(f"instance {i}")
        t0 = time.perf_counter()
        try:
            outcome = "T" if gcnlab.cayley_bacharach_check(lines_m, lines_n) is True else "F"
        except gcnlab.DegenerateIntersection:
            outcome = "D"
        req.busy = time.perf_counter() - t0
        if outcome == "T":  # a dependence check that reached the linear algebra
            req.ops = 1
            req.latency.append(req.busy)
        req.check(1, checks.cb_outcome(outcome, degenerate))
        if i == len(self.outcomes):
            self.outcomes.append(outcome)
        elif outcome != self.outcomes[i]:
            req.check(0, f"outcome {outcome} on replay, {self.outcomes[i]} before")
            req.failed = req.attempted
        block, offset = divmod(i + 1, CB_BLOCK)
        if offset == 0:
            text = "".join(self.outcomes[i + 1 - CB_BLOCK : i + 1])
            req.digests[f"block{block - 1}"] = hashlib.sha256(text.encode()).hexdigest()
        return req


WORKLOADS = {"gm_sweep": GMSweep, "single_set_cli": SingleSetCLI, "cb_sweep": CBSweep}


def load_pinned(workload: str, seed: int) -> dict[str, str]:
    """Digests pinned for this workload, if ``seed`` is the one they were recorded at."""
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload]
    return pinned["digests"] if seed == pinned["seed"] else {}


def measure(
    workload, seconds: float | None, pinned: dict, tracer=None, count: int | None = None
) -> list[Request]:
    """Closed loop: run whole passes of requests for ``seconds``, or ``count`` requests.

    A pass is not started when, taking as long as the previous one, it would
    end after ``seconds``; the first pass always runs.

    A request whose output digest differs from a pinned one counts as
    failed in every operation it checked.  Request times are calibrated
    window by window (see the module docstring).
    """
    done: list[Request] = []
    pending: list[Request] = []
    slowness = workload.slowness()
    start = window = pass_start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            stop = i >= count
        elif i % workload.pass_len == 0 and i > 0:
            now = time.perf_counter()  # stop before a pass that would end after ``seconds``
            stop = now - start + (now - pass_start) > seconds
            pass_start = now
        else:
            stop = False
        if pending and (stop or time.perf_counter() - window >= CALIBRATION_WINDOW):
            after = workload.slowness()
            for req in pending:
                req.calibrate(2 / (slowness + after))
            pending, slowness, window = [], after, time.perf_counter()
        if stop:
            return done
        if tracer is not None:
            tracer.op = i
        try:
            req = workload.request(i)
        except Exception as exc:  # a crash of the program is a failed request, not a lost run
            req = Request(f"request {i}")
            req.check(1, f"raised {type(exc).__name__}: {exc}")
        for key, digest in req.digests.items():
            if pinned.get(key, digest) != digest:
                req.errors.append(f"{key}: output differs from the pinned digest")
                req.failed = req.attempted
        done.append(req)
        pending.append(req)
        i += 1


def child_seconds(argv: list[str], until_line: bool) -> float:
    """Median calibrated wall time of fresh processes, one after another.

    With ``until_line`` the clock stops when the child prints its first line
    (the set-up probe says ``ready`` there), otherwise when it exits.
    """
    samples = []
    before = start_slowness()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=ROOT) as proc:
            line = proc.stdout.readline() if until_line else ""
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=CHILD_TIMEOUT) != 0 or (until_line and line.strip() != "ready"):
                raise RuntimeError(f"child {argv} failed")
        if not until_line:
            elapsed = time.perf_counter() - t0
        after = start_slowness()
        samples.append(elapsed * 2 / (before + after))
        before = after
    return statistics.median(samples)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` with n=100, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def totals(done: list[Request]) -> tuple[float, int, int, int, list[float], list[str]]:
    busy = sum(r.busy for r in done)
    ops = sum(r.ops for r in done)
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    latency = [x for r in done for x in r.latency]
    errors = [f"{r.label}: {e}" for r in done for e in r.errors]
    return busy, ops, attempted, failed, latency, errors


def end_to_end(args, workload, pinned) -> tuple[dict, list[Request]]:
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setup = child_seconds(probe + ["--setup-probe"], until_line=True)
    done = measure(workload, args.seconds, pinned)
    busy, ops, _, _, latency, _ = totals(done)
    raw_busy = sum(r.raw_busy for r in done)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (ops / busy, "1/s"),
        "latency_s.p50": (statistics.median(latency), "s"),
    }
    print(f"setup_s = {setup:.4f} s (median of {SETUP_PROBES} fresh processes)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB (own peak + largest child peak)")
    print(f"busy {busy:.2f} s calibrated, {raw_busy:.2f} s wall clock (host speed factor {busy / raw_busy:.3f})")
    if args.workload == "gm_sweep":
        print(f"trials_per_s = {ops / busy:.3f} 1/s ({ops} trials in {len(done)} rounds)")
        print(f"round_s.p50 = {statistics.median(latency):.4f} s ({len(latency)} rounds)")
        print("ops_per_s is trials_per_s; latency_s.p50 is round_s.p50")
    elif args.workload == "single_set_cli":
        print(f"sessions_per_min = {60 * ops / busy:.3f} 1/min ({ops} sessions)")
        print(f"cli_start_s.p50 = {statistics.median(latency):.4f} s ({len(latency)} plot commands)")
        print("ops_per_s is sessions_per_min / 60; latency_s.p50 is cli_start_s.p50")
        for label, *_ in workload.files:
            print(f"  session {label}: {sum(r.busy for r in done if r.label == label):.3f} s")
    else:
        calls = [r.busy for r in done]
        print(f"instances_per_s = {len(done) / busy:.3f} 1/s ({len(done)} instances)")
        print(f"dependent_checks_per_s = {ops / busy:.3f} 1/s ({ops} non-degenerate instances)")
        print(f"check_s.p50 = {quantile(calls, 50):.6f} s, check_s.p90 = {quantile(calls, 90):.6f} s "
              f"({len(calls)} calls, {len(calls) - int(0.9 * len(calls))} beyond p90)")
        print(f"dependent_check_s.p50 = {statistics.median(latency):.6f} s, p90 = {quantile(latency, 90):.6f} s "
              f"({len(latency)} non-degenerate calls)")
        print(f"degenerate_ratio = {workload.outcomes.count('D') / len(workload.outcomes):.4f} (input property)")
        print("ops_per_s is dependent_checks_per_s; latency_s.p50 is dependent_check_s.p50")
    return metrics, done


#: Per-layer metrics: <module>.<function>.<field> with field calls, s or
#: self_s, all per operation of the traced replay.
SPAN_METRICS = (
    "certification.certify_gc.calls",
    "certification.certify_gc.s",
    "certification.certify_gc.self_s",
    "certification.line_incidence.calls",
    "certification.line_incidence.s",
    "interpolation.is_poised.calls",
    "interpolation.is_poised.s",
    "interpolation.all_fundamentals.s",
    "interpolation.is_essentially_dependent.s",
    "linalg.rank.s",
    "linalg.solve_square.s",
    "linalg.unit_consistency.s",
    "polynomials.divide_by_line.calls",
    "polynomials.divide_by_line.s",
    "geometry.line_through.calls",
    "geometry.intersect.calls",
    "geometry.Line.at.calls",
    "generators.generate_with_certificate.self_s",
    "analysis.search_counterexample.self_s",
    "analysis.gm_report_from_certificate.s",
    "analysis.cayley_bacharach_check.self_s",
    "sequences.enumerate_mdseqs.s",
    "serialization.save_certificate.s",
    "serialization.save_report.s",
    "serialization.load_nodeset.s",
    "plotting.plot_svg.s",
    "cli.main.self_s",
)


def per_layer(args, workload, pinned) -> tuple[dict, list[Request]]:
    from tracing import Tracer, install

    import_s = (
        child_seconds([sys.executable, "-c", "import gcnlab.cli"], until_line=False)
        - child_seconds([sys.executable, "-c", "pass"], until_line=False)
    )
    untraced = measure(workload, args.seconds / 2, pinned)
    tracer = Tracer()
    if isinstance(workload, SingleSetCLI):
        workload.tracer = tracer
    else:
        install(tracer)
    traced = measure(workload, None, pinned, tracer, count=len(untraced))
    overhead = totals(traced)[0] / totals(untraced)[0]
    ops = totals(traced)[1]
    t = tracer.totals

    def row(name):
        return t.get(name, [0, 0.0, 0.0, 0, 0])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_METRICS:
        function, field = name.rsplit(".", 1)
        calls, s, self_s, _, _ = row(function)
        value = {"calls": calls, "s": s, "self_s": self_s}[field] / ops
        metrics[name] = (value, "count/op" if field == "calls" else "s/op")
    draws = row("geometry.general_position")
    divisions = row("polynomials.divide_by_line")
    cb = row("analysis.cayley_bacharach_check")
    metrics.update(
        {
            "linalg.cells": (tracer.counters["linalg.cells"] / ops, "cells/op"),
            "polynomials.divide_by_line.useful_ratio": (ratio(divisions[0] - divisions[3], divisions[0]), "ratio"),
            "generators.draws": (draws[0] / ops, "count/op"),
            "generators.accept_ratio": (ratio(draws[4], draws[0]), "ratio"),
            "generators.distinct_ratio": (ratio(len(set(tracer.node_sets)), len(tracer.node_sets)), "ratio"),
            "analysis.degenerate_ratio": (ratio(cb[3], cb[0]), "ratio"),
            "serialization.bytes_out": (tracer.counters["serialization.bytes_out"] / ops, "B/op"),
            "cli.import_s": (import_s, "s"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )
    print(f"traced replay of {len(traced)} requests ({ops} ops); tracing overhead "
          f"{overhead:.3f} (traced / untraced calibrated busy time of the same requests)")
    print("span times below are wall clock, not calibrated")
    print(f"{'function':48} {'calls/op':>12} {'s/op':>12} {'self_s/op':>12}")
    for name, (calls, s, self_s, _, _) in sorted(t.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:48} {calls / ops:12.3f} {s / ops:12.6f} {self_s / ops:12.6f}")
    out = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps({"totals": t, "by_op": tracer.by_op, "counters": tracer.counters}), encoding="utf-8")
    print(f"span totals per operation id written to {out.relative_to(ROOT)}")
    return metrics, untraced + traced


def load_program() -> str | None:
    """Import gcnlab from this checkout's sources; return why not, if it fails."""
    global gcnlab
    if not (SRC / "gcnlab" / "__init__.py").is_file():
        return f"no gcnlab sources under {SRC}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import gcnlab  # part of set-up time; tracing.install rebinds names in it
    import gcnlab.serialization

    if Path(gcnlab.__file__).resolve().parent != SRC / "gcnlab":
        return f"imported gcnlab from {gcnlab.__file__}, not from {SRC}"
    SCRATCH.mkdir(exist_ok=True)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    error = load_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print(f"gcnlab benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        print(f"environment: Python {platform.python_version()}, nproc {os.cpu_count()}, "
              f"{len(os.sched_getaffinity(0))} CPUs usable; no machine setting is changed")
        run = per_layer if args.trace else end_to_end
        metrics, done = run(args, workload, load_pinned(args.workload, args.seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _, _, attempted, failed, _, errors = totals(done)
    print(f"failed_ratio = {failed / attempted:.4f} ({failed} failed of {attempted} checked operations)")
    for error in errors[:20]:
        print(f"FAILED {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
