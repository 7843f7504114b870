"""Command-line front end.

Subcommands, each a subparser that carries its handler as `run`:
    verify <file>...   run scenario files and report their assertions
    corpus             run every bundled scenario
    hj <p> <q>         print the linear plumbing chain for C_{p,q}
    identify <chain>   name the C_{p,q} a chain belongs to, or `none`
    mcg-suite          check the torus mapping-class-group identity suite

Exit codes: 0 all checks passed, 1 assertion failures, 2 usage errors,
3 scenario parse/step errors.  `--json` switches to JSON with the same
content; `--seed` shuffles corpus execution order (output is unaffected:
reports are aggregated in name order).  The parser is built on the first
`main` call and kept; every handler prints through `_emit`, whose `_json` writes
the bytes of `json.dumps(..., sort_keys=True)` without json's Python encoder.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import hirzebruch, mcg, scenario


@cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blowdown",
        description="verification tools for rational blow-down constructions",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle corpus execution order (results are order-independent)")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run scenario files")
    v.add_argument("files", nargs="+", metavar="file")
    v.set_defaults(run=_cmd_verify)

    # `_corpus_items` is looked up per call, so a test can replace it
    sub.add_parser("corpus", help="run every bundled scenario").set_defaults(
        run=lambda args: _run_scenarios(_corpus_items(), args))

    h = sub.add_parser("hj", help="Hirzebruch-Jung chain for C_{p,q}")
    h.add_argument("p", type=int)
    h.add_argument("q", type=int)
    h.set_defaults(run=_cmd_hj)

    i = sub.add_parser("identify", help="identify a chain as some C_{p,q}")
    i.add_argument("chain", help='weights, e.g. "(-4)" or "(-9,-2,-2,-2,-2,-2)"')
    i.set_defaults(run=_cmd_identify)

    sub.add_parser("mcg-suite", help="run the mapping-class-group identity suite").set_defaults(
        run=_cmd_mcg_suite)
    return p


def _emit(args, payload, lines, indent=None) -> None:
    """Print `_json(payload(), indent)` under --json, else `lines()`; only one is built."""
    print(_json(payload(), indent) if args.json else "\n".join(lines()))


def _json(obj, indent=None) -> str:
    """`json.dumps(obj, indent=indent, sort_keys=True)` for the types payloads hold: dicts
    with str keys, lists, str, bool and int.  Any other type is a TypeError."""
    from json.encoder import encode_basestring_ascii as quote  # the C escaper json uses
    step = " " * (indent or 0)
    def put(o, pad):
        t = type(o)
        if t is str:
            return quote(o)
        if t is bool or t is int:
            return ("false", "true")[o] if t is bool else repr(o)
        inner = pad + step
        if t is dict:
            parts, ends = [quote(k) + ": " + put(o[k], inner) for k in sorted(o)], "{}"
        elif t is list:
            parts, ends = [put(v, inner) for v in o], "[]"
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        return ends[0] + inner + ("," + (inner or " ")).join(parts) + pad + ends[1] if parts else ends
    return put(obj, "" if indent is None else "\n")


def _corpus_items() -> list[tuple[str, str]]:
    root = Path(__file__).with_name("corpus")
    return sorted((path.stem, path.read_text(encoding="utf-8")) for path in root.glob("*.plm"))


def _run_scenarios(named_texts, args) -> int:
    order = list(range(len(named_texts)))
    if args.seed is not None:
        import random
        random.Random(args.seed).shuffle(order)
    reports = [None] * len(named_texts)
    for idx in order:
        source, text = named_texts[idx]
        try:
            s = scenario.parse_scenario(text, name=Path(source).stem)
            reports[idx] = scenario.run_scenario(s)
        except scenario.ScenarioError as exc:
            raise scenario.ScenarioError(f"{source}: {exc}") from None
    total = sum(r.total for r in reports)
    passed = sum(r.passed for r in reports)
    _emit(args, lambda: {"scenarios": [r.to_json_obj() for r in reports],
                         "passed": passed, "total": total},
          lambda: [*(r.to_text() for r in reports),
                   f"total: {passed}/{total} assertions passed in {len(reports)} scenario(s)"],
          indent=2)
    return 0 if passed == total else 1


def _cmd_verify(args) -> int:
    named_texts = []
    for f in args.files:
        try:
            named_texts.append((f, Path(f).read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {f}: {exc}", file=sys.stderr)
            return 2
    return _run_scenarios(named_texts, args)


def _cmd_hj(args) -> int:
    try:
        chain = hirzebruch.chain_to_str(hirzebruch.chain_for_cpq(args.p, args.q))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, lambda: {"p": args.p, "q": args.q, "chain": chain}, lambda: [chain])
    return 0


def _cmd_identify(args) -> int:
    try:
        chain = hirzebruch.parse_chain(args.chain)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    got = hirzebruch.identify_cpq(chain)
    result = f"C_{{{got[0]},{got[1]}}}" if got else "none"
    _emit(args, lambda: {"chain": hirzebruch.chain_to_str(chain), "result": result},
          lambda: [result])
    return 0


def _cmd_mcg_suite(args) -> int:
    results = mcg.relation_suite()
    passed = sum(1 for _name, flag in results if flag)
    _emit(args, lambda: {"identities": [{"name": name, "pass": flag} for name, flag in results],
                         "passed": passed, "total": len(results)},
          lambda: [*(f"{'PASS' if flag else 'FAIL'} {name}" for name, flag in results),
                   f"summary: {passed}/{len(results)} identities hold"], indent=2)
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
