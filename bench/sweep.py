"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads corpus,ledgers --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out summary.json]

Runs bench/run.py once per (workload, seed), one process at a time, and
prints per workload and metric the median, the quartiles and the spread
(interquartile range as a share of the median).  With --out it also writes
the summary and every run's result as JSON.  Compare two commits by
sweeping each with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main() -> int:
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs.append(res)
            ok = ok and res["correct"]
        names = runs[0]["metrics"]
        metrics = {
            name: dict(summarize([r["metrics"][name]["value"] for r in runs]),
                       unit=names[name]["unit"])
            for name in names
        }
        report["workloads"][wl] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
        for name, m in metrics.items():
            print(f"{wl:8} {name:28} median {m['median']:12.4f} {m['unit']:10} spread {m['spread']:7.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
