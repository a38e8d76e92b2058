"""Record the SHA-256 digests of every canonical output at the default seeds.

    python3 perfbench/pin_digests.py

Runs each workload untimed for a fixed number of requests and rewrites
digests.json.  Run it only when the program's canonical output is meant to
change; a faster path must reproduce the pinned bytes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

#: workload -> (default seed, requests pinned); a run at that seed checks
#: every pinned request it reaches.
PINS = {
    "gm_sweep": (2024, 128),  # rounds
    "single_set_cli": (7, run.SingleSetCLI.pass_len),  # commands, one pass
    "cb_sweep": (4242, 32 * run.CB_BLOCK),  # instances, 32 blocks
}


def main() -> int:
    error = run.load_program()
    if error:
        print(f"pin_digests: {error}", file=sys.stderr)
        return 2
    doc = {}
    for name, (seed, count) in PINS.items():
        tmp = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.SCRATCH))
        try:
            done = run.measure(run.WORKLOADS[name](seed, tmp), None, {}, count=count)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        _, _, attempted, failed, _, errors = run.totals(done)
        if failed:
            print(f"pin_digests: {name}: {failed} of {attempted} checks failed: {errors[:3]}", file=sys.stderr)
            return 1
        digests = {key: d for req in done for key, d in req.digests.items()}
        doc[name] = {"seed": seed, "digests": digests}
        print(f"{name}: {len(digests)} digests at seed {seed}")
    (run.HERE / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
