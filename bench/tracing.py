"""Per-layer spans for the traced run, recorded from outside the package.

Each layer module's public functions are replaced, at their module
attributes, by wrappers that record a span (function, start, end, parent,
operation) and bump counters at the same boundary.  The package looks up
both its own and its neighbours' functions through module globals, so the
wrappers see intra- and cross-layer calls alike.  Spans stay in memory and
are written out once the run ends.

A layer's self time is its spans' time minus the part their child spans
cover; time inside the operation but outside every span is unattributed.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import Counter

from blowdown import cli, hirzebruch, homcalc, mcg, scenario, swledger

LAYER_MODULES = (cli, scenario, homcalc, hirzebruch, mcg, swledger)

# Leaf helpers called per letter or per entry from inside their own layer:
# wrapping them would change no attribution and only add overhead.
UNWRAPPED = {"mcg.sl2_mul"}

# Scenario self time is split by the scenario entry point it runs under.
SCENARIO_PHASES = {
    "scenario.parse_scenario": "parse",
    "scenario.run_scenario": "exec",
    "scenario.Report.to_text": "report",
    "scenario.Report.to_json_obj": "report",
}

# Inclusive-time metrics: time inside the outermost call of these functions.
INCLUSIVE = {
    "swledger.blowup_ms": {"swledger.blow_up_ledger"},
    "swledger.filter_ms": {"swledger.rational_blowdown_ledger", "swledger.chambered_blowdown_ledger"},
    "hirzebruch.discriminant_ms": {"hirzebruch.discriminant"},
    "mcg.parse_ms": {"mcg.parse_word"},
}

LAYERS = tuple(mod.__name__.rsplit(".", 1)[-1] for mod in LAYER_MODULES)


def _count_pairing(c, args, result):
    c["homcalc.pairings"] += 1
    c["homcalc.rank_max"] = max(c["homcalc.rank_max"], len(args[1]))


def _count_chain_arg(c, args, result):
    c["hirzebruch.chain_len_max"] = max(c["hirzebruch.chain_len_max"], len(args[0]))


def _count_extends(c, args, result):
    c["hirzebruch.extends_calls"] += 1
    _count_chain_arg(c, args, result)


def _count_chain_result(c, args, result):
    c["hirzebruch.chain_len_max"] = max(c["hirzebruch.chain_len_max"], len(result))


def _count_blowup(c, args, result):
    c["swledger.entries_built"] += len(result.entries)


def _count_blowdown(c, args, result):
    c["swledger.entries_tested"] += len(args[0].entries)
    c["swledger.survivors"] += len(result.ledger.entries)


def _count_eval(c, args, result):
    c["mcg.letters_evaluated"] += len(args[0])


def _count_parse(c, args, result):
    c["scenario.directives"] += len(result.directives)


COUNTERS = {
    "homcalc.pair_vectors": _count_pairing,
    "hirzebruch.chain_for_cpq": _count_chain_result,
    "hirzebruch.identify_cpq": _count_chain_arg,
    "hirzebruch.discriminant": _count_chain_arg,
    "hirzebruch.extends_over_ball": _count_extends,
    "swledger.blow_up_ledger": _count_blowup,
    "swledger.rational_blowdown_ledger": _count_blowdown,
    "swledger.chambered_blowdown_ledger": _count_blowdown,
    "mcg.eval_word": _count_eval,
    "scenario.parse_scenario": _count_parse,
}

COUNT_METRICS = (
    "swledger.entries_built", "swledger.entries_tested", "swledger.survivors",
    "homcalc.pairings", "homcalc.rank_max",
    "hirzebruch.extends_calls", "hirzebruch.chain_len_max",
    "mcg.letters_evaluated", "scenario.directives",
)


def _targets():
    """(owner, attribute, qualified name) for every function to wrap."""
    out = []
    for layer, mod in zip(LAYERS, LAYER_MODULES):
        for attr, fn in vars(mod).items():
            qual = f"{layer}.{attr}"
            if (attr.startswith("_") or qual in UNWRAPPED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            out.append((mod, attr, qual))
    out.append((scenario.Report, "to_text", "scenario.Report.to_text"))
    out.append((scenario.Report, "to_json_obj", "scenario.Report.to_json_obj"))
    return out


class Tracer:
    """Wraps the layer functions while installed; one span list per operation."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent index) for the current op
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.saved = []
        self.kept = []  # (op id, spans) of every finished operation

    def _wrap(self, qual: str, fn):
        idx = len(self.names)
        self.names.append(qual)
        counter = COUNTERS.get(qual)
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, qual in _targets():
            fn = vars(owner)[attr]
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(qual, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def begin_op(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def end_op(self, op_id: int, op_ns: int, scale: float) -> dict:
        """Aggregate the finished operation into per-layer figures.

        Times are converted to normalized ms with the operation's `scale`.
        Raises ValueError if the spans do not nest inside the operation.
        """
        spans = list(self.spans)
        self.kept.append((op_id, spans))
        n = len(spans)
        child = [0] * n
        phase = [None] * n
        in_group = [frozenset()] * n  # INCLUSIVE metrics with an ancestor-or-self call
        self_ns = dict.fromkeys(LAYERS, 0)
        phase_ns = {"parse": 0, "exec": 0, "report": 0}
        incl_ns = dict.fromkeys(INCLUSIVE, 0)
        root_ns = 0
        for i, (fi, start, end, parent) in enumerate(spans):
            name = self.names[fi]
            groups = in_group[parent] if parent >= 0 else frozenset()
            phase[i] = SCENARIO_PHASES.get(name, phase[parent] if parent >= 0 else None)
            for metric, fns in INCLUSIVE.items():
                if name in fns and metric not in groups:
                    incl_ns[metric] += end - start
                    groups = groups | {metric}
            in_group[i] = groups
            if parent >= 0:
                child[parent] += end - start
            else:
                root_ns += end - start
        for i, (fi, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            if own < 0:
                raise ValueError(f"span {self.names[fi]} is shorter than its children")
            layer = self.names[fi].split(".", 1)[0]
            self_ns[layer] += own
            if layer == "scenario":
                phase_ns[phase[i] or "exec"] += own
        unattributed = op_ns - root_ns
        if unattributed < 0 or sum(self_ns.values()) + unattributed != op_ns:
            raise ValueError("layer self times do not add up to the operation time")
        rec = {f"{layer}.self_ms": ns * scale for layer, ns in self_ns.items() if layer != "scenario"}
        rec["scenario.parse_ms"] = phase_ns["parse"] * scale
        rec["scenario.exec_self_ms"] = phase_ns["exec"] * scale
        rec["scenario.report_ms"] = phase_ns["report"] * scale
        rec.update({metric: ns * scale for metric, ns in incl_ns.items()})
        rec["unattributed_ms"] = unattributed * scale
        for metric in COUNT_METRICS:
            rec[metric] = self.counts[metric]
        tested = self.counts["swledger.entries_tested"]
        rec["swledger.survivor_ratio"] = self.counts["swledger.survivors"] / tested if tested else 0.0
        return rec

    def write(self, path) -> None:
        """Write every kept span as a gzipped tab-separated line:

        op, function, start_ns, end_ns, parent (index within the op, -1 at the root).
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tfunction\tstart_ns\tend_ns\tparent\n")
            for op_id, spans in self.kept:
                for fi, start, end, parent in spans:
                    fh.write(f"{op_id}\t{self.names[fi]}\t{start}\t{end}\t{parent}\n")
