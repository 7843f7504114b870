"""Time one cold set-up: import blowdown and build a workload's inputs.

    python3 bench/setup_child.py <workload> <seed>

Run by run.py in fresh processes; prints one JSON line with the raw set-up
time and the reference kernel times just before and after it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import normalize  # noqa: E402  (imports nothing from the package)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    normalize.timed_reference()  # first run pays interpreter warm-up
    before = normalize.timed_reference()
    t0 = time.perf_counter_ns()
    import blowdown.cli  # noqa: F401  (the package import being timed)
    t1 = time.perf_counter_ns()
    import workloads  # benchmark code, not timed
    t2 = time.perf_counter_ns()
    workloads.WORKLOADS[workload](seed)
    t3 = time.perf_counter_ns()
    after = normalize.timed_reference()
    print(json.dumps({"setup_ns": (t1 - t0) + (t3 - t2), "ref_before_ns": before, "ref_after_ns": after}))


if __name__ == "__main__":
    main()
