"""Capture the reference outputs in bench/data from the package as it stands.

    python3 bench/capture.py

Writes the `corpus` goldens (text and --json reports) and the expected
survivor sets of the `ledgers` pipelines in canonical basis order, with
symbolic values.  Run it only when a documented defect fix changes the
reports; a capture taken to make a failing benchmark pass hides the defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from blowdown import cli  # noqa: E402

import workloads  # noqa: E402


def corpus_report(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"blowdown {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def ledger_expectation(style: str, names) -> dict:
    op = workloads.LedgerOp(style, tuple(names), knot=None, n=1)
    blown_size, result, _concrete, minimal = workloads.run_pipeline(op)
    led = result.ledger
    return {
        "basis": list(led.basis),
        "blown_entries": blown_size,
        "e": led.e,
        "sigma": led.sigma,
        "minimal": minimal,
        "survivors": [[list(e.cls), e.value.c0, e.value.c1] for e in led.entries],
    }


def dump_expected(expected: dict) -> str:
    """JSON with one survivor per line, so the file reads and diffs by class."""
    parts = []
    for style in sorted(expected):
        head = {k: v for k, v in expected[style].items() if k != "survivors"}
        rows = ",\n  ".join(json.dumps(s) for s in expected[style]["survivors"])
        parts.append(f' "{style}": {json.dumps(head, sort_keys=True)[:-1]}, "survivors": [\n  {rows}\n ]}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    data = workloads.DATA
    data.mkdir(exist_ok=True)
    (data / "corpus.txt").write_text(corpus_report(["corpus"]))
    (data / "corpus.json").write_text(corpus_report(["--json", "corpus"]))
    expected = {
        "qn": ledger_expectation("qn", ["E1", "E2"] + [f"Z{i}" for i in range(1, 9)]),
        "xn": ledger_expectation("xn", [f"E{i}" for i in range(1, 12)]),
    }
    (data / "ledgers.json").write_text(dump_expected(expected))

if __name__ == "__main__":
    main()
