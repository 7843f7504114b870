"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

They take about a minute: the last group runs bench/run.py end to end.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import normalize  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blowdown import hirzebruch, scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


# --- normalizer -------------------------------------------------------------------


class FakeHost:
    """A clock that advances only when fake work runs, at a settable speed."""

    def __init__(self, slowdown: float):
        self.now = 0
        self.slowdown = slowdown

    def clock(self) -> int:
        return self.now

    def work(self, units: int) -> None:
        self.now += round(units * self.slowdown)

    def kernel(self) -> None:
        self.work(10_000)


def test_doubling_host_time_leaves_normalized_results_unchanged():
    results = {}
    for slowdown in (1, 2):
        host = FakeHost(slowdown)
        br = normalize.Bracketer(clock=host.clock, kernel=host.kernel)
        samples = []
        for units in (30_000, 45_000, 12_000):
            _, op_ns, before, after = br.measure(lambda u=units: host.work(u))
            samples.append(normalize.normalized_ms(op_ns, before, after))
        results[slowdown] = samples
    assert results[1] == results[2] == [30.0, 45.0, 12.0]


def test_a_host_phase_change_is_averaged_across_the_brackets():
    host = FakeHost(1)
    br = normalize.Bracketer(clock=host.clock, kernel=host.kernel)

    def op():
        host.work(10_000)
        host.slowdown = 3  # the host slows down mid-operation
        host.work(10_000)

    _, op_ns, before, after = br.measure(op)
    assert (op_ns, before, after) == (40_000, 10_000, 30_000)
    assert normalize.normalized_ms(op_ns, before, after) == 20.0


def test_reference_kernel_runs_no_collection_with_a_large_live_heap():
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    heap = [{"k": (i, str(i))} for i in range(300_000)]
    old = gc.get_threshold()
    gc.set_threshold(10)  # would collect constantly if the kernel let it
    gc.callbacks.append(on_gc)
    try:
        normalize.timed_reference()
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*old)
    assert len(heap) == 300_000 and collections == []
    assert gc.isenabled()


def test_reference_kernel_time_does_not_depend_on_live_heap_size():
    # alternate short blocks with and without a large object graph, so that
    # both conditions see the same host phases
    times = {False: [], True: []}
    for block in range(8):
        hold = block % 2 == 1
        heap = [{"k": (i, [i])} for i in range(400_000)] if hold else None
        for _ in range(5):
            times[hold].append(normalize.timed_reference())
        del heap
    ratio = statistics.median(times[True]) / statistics.median(times[False])
    assert 0.75 < ratio < 1.33, ratio


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert normalize.tail(values, 75) == (75, 75)
    assert normalize.tail(values, 95) == (90, 90.0)  # only 5 beyond p95
    assert normalize.tail(values[:40], 75) == (30, 75)
    assert normalize.tail(values[:30], 75) == (20, 100 * 20 / 30)
    assert normalize.tail([5, 3, 9], 75) == (9, 100.0)


# --- oracles ----------------------------------------------------------------------


def _gauss_inverse_times(chain, v):
    """G^{-1} v by plain Fraction Gaussian elimination (slow, obviously right)."""
    k = len(chain)
    a = [[Fraction(chain[i] if i == j else int(abs(i - j) == 1)) for j in range(k)] + [Fraction(v[i])]
         for i in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        for r in range(k):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][k] / a[i][i] for i in range(k)]


@pytest.mark.parametrize("pq", [(2, 1), (5, 2), (7, 1), (19, 7), (71, 8)])
def test_chain_oracle_matches_elimination(pq):
    chain = oracles.hj_chain(*pq)
    assert abs(oracles.det(chain)) == pq[0] ** 2
    v = tuple(w + 2 for w in chain)
    x = _gauss_inverse_times(chain, v)
    d = oracles.det(chain)
    assert [Fraction(n, d) for n in oracles.adjugate_image(chain, v)] == x
    assert Fraction(*oracles.inverse_form(chain, v)) == sum(a * b for a, b in zip(v, x)) == -len(chain)
    assert oracles.extends(chain, v) == all((pq[0] * xi).denominator == 1 for xi in x)


def test_word_oracle_closed_forms():
    a, b = oracles.letter("a", 1), oracles.letter("b", 1)
    assert oracles.mat_pow(oracles.mat_mul(a, b), 6) == oracles.IDENTITY
    assert oracles.mat_pow(oracles.mat_mul(oracles.mat_pow(a, 3), b), 3) == oracles.IDENTITY
    assert oracles.eval_letters([("a", 5), ("b", 7)]) == ((1 - 35, 5), (-7, 1))
    assert oracles.parse_printed_word("a^3 B a") == [("a", 3), ("b", -1), ("a", 1)]


# --- workloads --------------------------------------------------------------------


def _ops(name, seed, count=4):
    wl = workloads.WORKLOADS[name](seed)
    return [wl.next_op() for _ in range(count)]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_operations_other_seed_other_operations(name):
    assert _ops(name, 3) == _ops(name, 3)
    assert _ops(name, 3) != _ops(name, 4)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_operations_pass_their_checks(name):
    wl = workloads.WORKLOADS[name](11)
    for _ in range(2):
        op = wl.next_op()
        wl.check(op, wl.execute(op))


def test_corpus_seeds_change_execution_order_not_output(monkeypatch):
    order = []
    real = scenario.parse_scenario

    def recording(text, name="scenario"):
        order.append(name)
        return real(text, name=name)

    monkeypatch.setattr(scenario, "parse_scenario", recording)
    orders = []
    for seed in (1, 2):
        wl = workloads.Corpus(seed)
        op = wl.next_op()
        order.clear()
        wl.check(op, wl.execute(op))
        orders.append(list(order))
    assert sorted(orders[0]) == sorted(orders[1]) and len(orders[0]) == 10
    assert orders[0] != orders[1]


def test_chains_never_repeat_within_a_process():
    wl = workloads.Chains(5)
    chains = [wl.next_op().chain for _ in range(300)]
    assert len(set(chains)) == 300
    assert all(40 <= len(c) <= 60 for c in chains)


def _corrupt(name, out):
    if name == "corpus":
        return out[0], out[1].replace("PASS", "FAIL", 1)
    if name == "ledgers":
        (size, result, concrete, minimal), xn = out
        return (size, result, concrete, not minimal), xn
    if name == "chains":
        return (out[0], None) + out[2:]
    mats, fibrations = out
    return (mats[0], mats[1], oracles.IDENTITY), fibrations


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_wrong_output_fails_the_operation(name):
    wl = workloads.WORKLOADS[name](12)
    op = wl.next_op()
    with pytest.raises(workloads.CheckFailed):
        wl.check(op, _corrupt(name, wl.execute(op)))


def test_traced_layer_times_add_up_and_wrappers_come_off():
    original = hirzebruch.discriminant
    wl = workloads.Chains(13)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hirzebruch.discriminant is not original
        tracer.begin_op()
        op = wl.next_op()
        out = wl.execute(op)
        rec = tracer.end_op(0, op_ns=10**12, scale=1.0)
    finally:
        tracer.uninstall()
    assert hirzebruch.discriminant is original
    wl.check(op, out)
    assert rec["hirzebruch.extends_calls"] == 2
    assert rec["hirzebruch.chain_len_max"] == len(op.chain)
    layers = sum(v for k, v in rec.items() if k.endswith("self_ms") or k in (
        "scenario.parse_ms", "scenario.report_ms"))
    assert math.isclose(layers + rec["unattributed_ms"], 10**12)


# --- end to end -------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_result_lists_every_metric_and_counts_repeat(name):
    proc = _run("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())

    counts = []
    for _ in range(2):
        proc = _run("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.splitlines()[-1])
        assert res["correct"], proc.stderr
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        counts.append({k: res["metrics"][k]["value"] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
