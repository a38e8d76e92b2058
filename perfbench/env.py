"""Print the environment block recorded in design.json.

    python3 perfbench/env.py

Reads, and never writes, /proc/self/cgroup and the CPU quota file of the
cgroup it names (cgroup v2 ``cpu.max`` or v1 ``cpu.cfs_quota_us`` and
``cpu.cfs_period_us``).  The benchmark itself reads nothing outside its
checkout, drops no caches, pins no CPUs and changes no machine setting.
"""

import json
import os
import platform
from pathlib import Path


def cpu_quota() -> dict:
    for line in Path("/proc/self/cgroup").read_text().splitlines():
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            quota_file = Path("/sys/fs/cgroup") / path.lstrip("/") / "cpu.max"
            if quota_file.is_file():
                return {"cgroup": line, "file": str(quota_file), "value": quota_file.read_text().strip()}
        elif "cpu" in controllers.split(","):
            base = Path("/sys/fs/cgroup/cpu") / path.lstrip("/")
            files = [base / "cpu.cfs_quota_us", base / "cpu.cfs_period_us"]
            if all(f.is_file() for f in files):
                return {"cgroup": line, "file": str(files[0]), "value": " ".join(f.read_text().strip() for f in files)}
    return {"value": "no CPU quota file found"}


if __name__ == "__main__":
    print(json.dumps({"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_quota": cpu_quota()}, indent=1))
