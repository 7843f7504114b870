"""Host-speed normalization: every timed sample is bracketed by a reference kernel.

The shared host changes speed by up to 2x in phases of 1-5 s, and CPU time
tracks wall time, so raw timings move with the host rather than the program.
Each sample is therefore reported as

    op_time / ref_time * REF_NOMINAL_MS

where ref_time is the mean of the reference kernel run just before and just
after the operation.  The kernel is pure Python in the style of the package,
runs with the garbage collector paused, and touches no package state, so
nothing the program allocates or retains can change its time.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Normalized milliseconds are "milliseconds on a host where the reference
# kernel takes REF_NOMINAL_MS".  Fixed once; changing it rescales every figure.
REF_NOMINAL_MS = 10.0

# Setup is timed in this many fresh child processes; the median is reported.
SETUP_CHILDREN = 9

# The kernel mixes three kinds of work, one per instruction mix the
# workloads have (small-integer sums and dict stores; integer row reduction
# diagonalization of a chain Gram matrix; run-length merging of letter lists with 2x2
# products), because host phases slow different code by different amounts.
# Together they cost about 12 ms on a 2-core x86 sandbox: long enough that
# timer and scheduling jitter stay small, short against host phases.
_VECS = tuple(tuple((i * 7 + j * 3) % 11 - 5 for j in range(12)) for i in range(16))
_CHAIN = (-3, -4, -2, -6, -2, -2, -3, -5, -2, -2, -4, -2, -3, -2, -7, -2, -2, -3,
          -2, -5, -2, -2, -4, -3, -2, -2, -6, -2, -3, -2, -2, -4, -2, -5, -2, -3)
_LETTERS = tuple(("ab"[i % 2], i % 5 - 2) for i in range(600))


def _dot(v, w) -> int:
    return sum(x * y for x, y in zip(v, w))


def _sums(rounds: int = 120) -> int:
    acc = 0
    table = {}
    for r in range(rounds):
        for i in range(16):
            s = _dot(_VECS[i], _VECS[(i + r) % 16])
            table[(i, s & 7)] = (s, r)
            acc = (acc * 31 + s) % 1000003
    return acc + len(table)


def _diagonalize(rounds: int = 2) -> int:
    """Full-pivot integer diagonalization of the tridiagonal Gram of _CHAIN."""
    k = len(_CHAIN)
    total = 0
    for _ in range(rounds):
        a = [[_CHAIN[i] if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
        for t in range(k):
            while True:
                piv = min(((abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, k) if a[i][j]))
                _, pi, pj = piv
                a[t], a[pi] = a[pi], a[t]
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
                done = True
                for i in range(t + 1, k):
                    if a[i][t]:
                        c = a[i][t] // a[t][t]
                        a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                        done = done and a[i][t] == 0
                for j in range(t + 1, k):
                    if a[t][j]:
                        c = a[t][j] // a[t][t]
                        for row in a:
                            row[j] -= c * row[t]
                        done = done and a[t][j] == 0
                if done:
                    break
        total += abs(a[-1][-1])
    return total


def _merge_letters(rounds: int = 80) -> int:
    total = 0
    for _ in range(rounds):
        out = []
        for tag, e in _LETTERS:
            if e == 0:
                continue
            if out and out[-1][0] == tag:
                merged = out.pop()[1] + e
                if merged:
                    out.append((tag, merged))
            else:
                out.append((tag, e))
        m = ((1, 0), (0, 1))
        for tag, e in out:
            n = ((1, e), (0, 1)) if tag == "a" else ((1, 0), (-e, 1))
            m = ((m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
                 (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]))
        total += len(out) + m[0][1] % 7
    return total


def reference_kernel() -> int:
    """Fixed pure-Python work; returns a checksum so the work cannot be skipped."""
    return _sums() + _diagonalize() + _merge_letters()


def timed_reference(clock=time.perf_counter_ns, kernel=reference_kernel) -> int:
    """Run the kernel once with gc paused; return its duration in clock units."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


def normalized_ms(op_ns: float, ref_before_ns: float, ref_after_ns: float) -> float:
    return op_ns / ((ref_before_ns + ref_after_ns) / 2) * REF_NOMINAL_MS


@dataclass(frozen=True)
class Sample:
    op_ns: int
    ref_before_ns: int
    ref_after_ns: int
    ok: bool

    @property
    def norm_ms(self) -> float:
        return normalized_ms(self.op_ns, self.ref_before_ns, self.ref_after_ns)

    @property
    def scale(self) -> float:
        """Factor turning raw nanoseconds of this sample into normalized ms."""
        return REF_NOMINAL_MS / ((self.ref_before_ns + self.ref_after_ns) / 2)


class Bracketer:
    """Times operations back to back, with the reference kernel between them.

    The kernel run after operation i is also the one before operation i+1.
    """

    def __init__(self, clock=time.perf_counter_ns, kernel=reference_kernel):
        self.clock = clock
        self.kernel = kernel
        self.last_ref = timed_reference(clock, kernel)

    def measure(self, fn):
        """Call fn() once; return (its result or the exception raised, op_ns, ref_before, ref_after)."""
        before = self.last_ref
        t0 = self.clock()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        op_ns = self.clock() - t0
        self.last_ref = timed_reference(self.clock, self.kernel)
        return out, op_ns, before, self.last_ref


def tail(values, percentile: float):
    """Nearest-rank value at `percentile`: (value, percentile used).

    If fewer than 10 samples would lie beyond it, falls back to the highest
    percentile that leaves 10 beyond (the maximum below 11 samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = math.ceil(percentile / 100 * n) - 1
    if n - 1 - idx >= 10:
        return ordered[idx], percentile
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_setup_children(bench_dir: Path, workload: str, seed: int, count: int = SETUP_CHILDREN):
    """Time import + input construction in fresh processes.

    Returns (median normalized seconds, raw seconds list, ref ms list).
    """
    norm, raw, refs = [], [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(bench_dir / "setup_child.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        norm.append(normalized_ms(rec["setup_ns"], rec["ref_before_ns"], rec["ref_after_ns"]) / 1000)
        raw.append(rec["setup_ns"] / 1e9)
        refs.append((rec["ref_before_ns"] + rec["ref_after_ns"]) / 2e6)
    return statistics.median(norm), raw, refs
