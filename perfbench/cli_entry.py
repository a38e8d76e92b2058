"""Run one gcnlab CLI command with every layer traced.

    python3 perfbench/cli_entry.py STATS_JSON gcnlab-arguments...

Installs the wrappers of :mod:`tracing`, calls ``gcnlab.cli.main`` with
the remaining arguments, writes the span totals to STATS_JSON and exits
with the command's own exit code.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer, install

tracer = Tracer()
install(tracer)
import gcnlab.cli  # noqa: E402  (main is wrapped by now)

code = 2
try:
    code = gcnlab.cli.main(sys.argv[2:])
finally:
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
sys.exit(code)
