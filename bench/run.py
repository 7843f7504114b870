"""blowdown benchmark: one workload, one closed-loop client, host-normalized.

    python3 bench/run.py --workload {corpus,ledgers,chains,words} \
        --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from ./src next to this
directory, never from an installed copy.  With --trace 0 the workload runs
for S seconds and the end-to-end metrics are reported; with --trace 1 a
fixed number of operations (proportional to S) runs untraced and then
traced, and the per-layer metrics are reported.  The last line of standard
output is the JSON result; raw timings go to .bench_out/ as diagnostics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import normalize  # noqa: E402  (imports nothing from the package)

WARMUP_OPS = 2

# Per-workload settings, sized from what a 25 s run completes on a 2-core
# x86 sandbox: 66-110 operations of corpus or ledgers, 850-1600 of chains,
# 620-1100 of words.  The count of operations follows the host's speed, so
# nothing reported may depend on it.

# Traced operations per requested second: the untraced and traced passes of
# a --trace 1 run together last about --seconds.  The count depends only on
# --seconds, so counts repeat exactly per seed.
TRACE_OPS_PER_S = {"corpus": 1.0, "ledgers": 1.0, "chains": 20.0, "words": 12.0}
# Peak RSS is read after this many measured operations, about half of a run.
# Each fresh chain grows the package's unbounded discriminant cache, so a
# figure read at the end would grow with the host's speed.
RSS_AFTER_OPS = {"corpus": 30, "ledgers": 30, "chains": 400, "words": 300}
# Tail latency percentile: the highest that leaves at least 10 samples beyond
# it with margin in every run.  Fixed, because a percentile picked from each
# run's own count moved with the host (p99.0 to p99.3 on chains) and moved
# the figure by up to 20%.
TAIL_PERCENTILE = {"corpus": 75, "ledgers": 75, "chains": 97, "words": 95}

UNITS = {
    "ops_per_s": "ops/norm_s",
    "latency_ms.p50": "norm_ms",
    "latency_ms.tail": "norm_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    try:
        import blowdown
    except ImportError as exc:
        _fail(f"cannot import blowdown from {ROOT / 'src'}: {exc}")
    if Path(blowdown.__file__).resolve().parent != (ROOT / "src" / "blowdown").resolve():
        _fail(f"imported blowdown from {blowdown.__file__}, not from this checkout")


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload, bracketer):
        self.wl = workload
        self.bracketer = bracketer
        self.attempted = 0
        self.failed = 0

    def attempt(self, after_measure=None):
        """Run, time and check the next operation; returns its Sample."""
        op = self.wl.next_op()
        out, op_ns, before, after = self.bracketer.measure(lambda: self.wl.execute(op))
        ok = not isinstance(out, Exception)
        sample = normalize.Sample(op_ns, before, after, ok)
        try:
            if after_measure is not None:
                after_measure(sample)
            if ok:
                self.wl.check(op, out)
        except Exception as exc:  # any check failure or malformed output fails the op
            out, ok = exc, False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"bench: operation {self.attempted} failed: {op!r}", file=sys.stderr)
                traceback.print_exception(out, file=sys.stderr)
        return dataclasses.replace(sample, ok=ok)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_end_to_end(runner, seconds: float, setup, rss_after: int,
                       tail_pct: float) -> tuple[dict, dict]:
    samples = []
    rss_ops = rss_mb = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(runner.attempt())
        if len(samples) == rss_after:
            rss_ops, rss_mb = rss_after, _peak_rss_mb()
    if rss_mb is None:  # a slow host did not reach rss_after operations
        rss_ops, rss_mb = len(samples), _peak_rss_mb()
    norm = [s.norm_ms for s in samples]
    tail_ms, tail_pct = normalize.tail(norm, tail_pct)
    correct_ops = sum(s.ok for s in samples)
    setup_s, setup_raw, setup_refs = setup
    metrics = {
        "ops_per_s": correct_ops / (sum(norm) / 1000),
        "latency_ms.p50": statistics.median(norm),
        "latency_ms.tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    diag = {
        "samples": len(samples),
        "tail_percentile": tail_pct,
        "rss_ops": rss_ops,
        "raw_op_ms": [s.op_ns / 1e6 for s in samples],
        "raw_ref_ms": [(s.ref_before_ns + s.ref_after_ns) / 2e6 for s in samples],
        "norm_op_ms": norm,
        "setup_raw_s": setup_raw,
        "setup_ref_ms": setup_refs,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, diag


def measure_per_layer(runner, ops: int, spans_path: Path) -> tuple[dict, dict]:
    import tracing
    untraced = [runner.attempt() for _ in range(ops)]
    tracer = tracing.Tracer()
    records = []
    traced = []

    def aggregate(sample):
        records.append(tracer.end_op(len(traced), sample.op_ns, sample.scale))

    tracer.install()
    try:
        for _ in range(ops):
            tracer.begin_op()
            traced.append(runner.attempt(aggregate))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = {}
    for key in records[0] if records else ():
        unit = "count" if key in tracing.COUNT_METRICS else "norm_ms"
        if key == "swledger.survivor_ratio":
            unit = "ratio"
        metrics[key] = {"value": statistics.median(r[key] for r in records), "unit": unit}
    untraced_ms = statistics.median(s.norm_ms for s in untraced)
    traced_ms = statistics.median(s.norm_ms for s in traced)
    metrics["trace.overhead_pct"] = {"value": (traced_ms / untraced_ms - 1) * 100, "unit": "%"}
    diag = {
        "ops": ops,
        "untraced_norm_ms": [s.norm_ms for s in untraced],
        "traced_norm_ms": [s.norm_ms for s in traced],
        "raw_traced_ms": [s.op_ns / 1e6 for s in traced],
        "raw_ref_ms": [(s.ref_before_ns + s.ref_after_ns) / 2e6 for s in traced],
        "per_op": records,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS_PER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _load_package()
    import workloads

    setup = None
    if not args.trace:
        setup = normalize.run_setup_children(BENCH, args.workload, args.seed)
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed), normalize.Bracketer())
    for _ in range(WARMUP_OPS):
        runner.attempt()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ops = max(3, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
        # spans are large: keep only the latest traced run of each workload
        metrics, diag = measure_per_layer(runner, ops, OUT / f"{args.workload}-spans.tsv.gz")
    else:
        metrics, diag = measure_end_to_end(runner, args.seconds, setup, RSS_AFTER_OPS[args.workload],
                                           TAIL_PERCENTILE[args.workload])
    diag.update(workload=args.workload, seed=args.seed, ref_nominal_ms=normalize.REF_NOMINAL_MS)
    (OUT / f"{stem}.json").write_text(json.dumps(diag) + "\n")
    summary = {k: diag[k] for k in ("samples", "tail_percentile", "rss_ops", "ops") if k in diag}
    print(f"# diagnostics: {json.dumps(summary)} in {OUT.name}/{stem}.json")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
