"""Show that no output check of the benchmark is vacuous.

    python3 perfbench/selftest.py

For each checker, a real output of the program must pass and a corrupted
copy must be rejected; a pinned digest that does not match must fail the
request.  Exits 0 when every case behaves, 1 otherwise.
"""

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import inputs
import run


def main() -> int:
    error = run.load_program()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    from gcnlab import NodeSet, Point, certify_gc, search_counterexample, verify_gm
    from gcnlab.serialization import save_certificate, save_report, save_summary

    degree = 3
    nodes = inputs.chung_yao(inputs.stream(0, "selftest"), degree)
    xs = NodeSet(degree, tuple(Point(x, y) for x, y in nodes))
    maximal = checks.maximal_lines(degree, nodes)

    cert = json.loads(save_certificate(certify_gc(xs)))
    bad_cert = json.loads(json.dumps(cert))
    bad_cert["entries"][0]["constant"] = str(2 * Fraction(cert["entries"][0]["constant"]))

    report = json.loads(save_report(verify_gm(xs)))
    bad_report = dict(report, maximal_lines=report["maximal_lines"][1:])

    summary = json.loads(save_summary(search_counterexample(2, 3, 1)))
    bad_summary = dict(summary, failures=[{"trial": 0, "kind": "principal", "seed": 1, "reason": "no maximal line", "certificate": None}])

    counts = {"distributions": [list(range(degree + 1, 1, -1))]}
    svg = "<svg>\n" + "<circle />\n" * len(nodes) + "<line />\n" * len(maximal) + "</svg>\n"

    cases = [
        ("certificate", checks.certificate(json.dumps(cert), degree, nodes), checks.certificate(json.dumps(bad_cert), degree, nodes)),
        ("GM report", checks.report(json.dumps(report), degree, nodes, maximal), checks.report(json.dumps(bad_report), degree, nodes, maximal)),
        ("summary", checks.summary(json.dumps(summary), 3), checks.summary(json.dumps(bad_summary), 3)),
        ("count vectors", checks.distributions(json.dumps(counts), degree, len(nodes), True),
         checks.distributions(json.dumps({"distributions": counts["distributions"] * 2}), degree, len(nodes), True)),
        ("plot", checks.plot(svg, len(nodes), len(maximal)), checks.plot(svg.replace("<circle />\n", "", 1), len(nodes), len(maximal))),
        ("CB outcome", checks.cb_outcome("T", False), checks.cb_outcome("F", False)),
        ("CB degeneracy", checks.cb_outcome("D", True), checks.cb_outcome("T", True)),
        ("exit code", checks.exit_status(1, 1, "gcnlab: not GC\n"), checks.exit_status(0, 1, "")),
        ("traceback", checks.exit_status(0, 0, ""), checks.exit_status(0, 0, "Traceback (most recent call last):\n")),
    ]
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        workload = run.WORKLOADS["gm_sweep"](1, Path(tmp))
        good = run.measure(workload, None, {}, count=1)[0]
        bad = run.measure(workload, None, {"round0": "0" * 64}, count=1)[0]
    rejected = f"{bad.failed} of {bad.attempted} operations failed" if bad.failed == bad.attempted > 0 else None
    cases.append(("pinned digest", None if good.failed == 0 else "the round failed", rejected))

    ok = True
    for name, on_good, on_bad in cases:
        passed = on_good is None and on_bad is not None
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: good output {'accepted' if on_good is None else 'rejected: ' + on_good}; "
              f"corrupted output {'rejected: ' + on_bad if on_bad else 'accepted'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
