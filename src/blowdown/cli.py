"""Command-line front end.

Subcommands:
    verify <file>...   run scenario files and report their assertions
    corpus             run every bundled scenario
    hj <p> <q>         print the linear plumbing chain for C_{p,q}
    identify <chain>   name the C_{p,q} a chain belongs to, or `none`
    mcg-suite          check the torus mapping-class-group identity suite

Exit codes: 0 all checks passed, 1 assertion failures, 2 usage errors,
3 scenario parse/step errors.  `--json` switches to JSON with the same
content; `--seed` shuffles corpus execution order (output is unaffected:
reports are aggregated in name order).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import hirzebruch, mcg, scenario


def _build_parser() -> argparse.ArgumentParser:
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

    sub.add_parser("corpus", help="run every bundled scenario")

    h = sub.add_parser("hj", help="Hirzebruch-Jung chain for C_{p,q}")
    h.add_argument("p", type=int)
    h.add_argument("q", type=int)

    i = sub.add_parser("identify", help="identify a chain as some C_{p,q}")
    i.add_argument("chain", help='weights, e.g. "(-4)" or "(-9,-2,-2,-2,-2,-2)"')

    sub.add_parser("mcg-suite", help="run the mapping-class-group identity suite")
    return p


def _corpus_items() -> list[tuple[str, str]]:
    root = Path(__file__).with_name("corpus")
    return sorted((path.stem, path.read_text(encoding="utf-8")) for path in root.glob("*.plm"))


def _run_scenarios(named_texts, as_json: bool, seed: int | None) -> int:
    order = list(range(len(named_texts)))
    if seed is not None:
        import random
        random.Random(seed).shuffle(order)
    reports = {}
    for idx in order:
        source, text = named_texts[idx]
        try:
            s = scenario.parse_scenario(text, name=Path(source).stem)
            reports[idx] = scenario.run_scenario(s)
        except scenario.ScenarioError as exc:
            raise scenario.ScenarioError(f"{source}: {exc}") from None
    ordered = [reports[i] for i in range(len(named_texts))]
    total = sum(r.total for r in ordered)
    passed = sum(r.passed for r in ordered)
    if as_json:
        import json
        payload = {
            "scenarios": [r.to_json_obj() for r in ordered],
            "passed": passed,
            "total": total,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in ordered:
            print(r.to_text())
        print(f"total: {passed}/{total} assertions passed in {len(ordered)} scenario(s)")
    return 0 if passed == total else 1


def _cmd_verify(args) -> int:
    named_texts = []
    for f in args.files:
        path = Path(f)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {f}: {exc}", file=sys.stderr)
            return 2
        named_texts.append((f, text))
    return _run_scenarios(named_texts, args.json, args.seed)


def _cmd_corpus(args) -> int:
    return _run_scenarios(_corpus_items(), args.json, args.seed)


def _cmd_hj(args) -> int:
    try:
        chain = hirzebruch.chain_for_cpq(args.p, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps({"p": args.p, "q": args.q, "chain": hirzebruch.chain_to_str(chain)},
                         sort_keys=True))
    else:
        print(hirzebruch.chain_to_str(chain))
    return 0


def _cmd_identify(args) -> int:
    try:
        chain = hirzebruch.parse_chain(args.chain)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    got = hirzebruch.identify_cpq(chain)
    result = f"C_{{{got[0]},{got[1]}}}" if got else "none"
    if args.json:
        import json
        print(json.dumps({"chain": hirzebruch.chain_to_str(chain), "result": result}, sort_keys=True))
    else:
        print(result)
    return 0


def _cmd_mcg_suite(args) -> int:
    results = mcg.relation_suite()
    ok = all(flag for _name, flag in results)
    if args.json:
        import json
        payload = {
            "identities": [{"name": name, "pass": flag} for name, flag in results],
            "passed": sum(1 for _n, f in results if f),
            "total": len(results),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, flag in results:
            print(f"{'PASS' if flag else 'FAIL'} {name}")
        print(f"summary: {sum(1 for _n, f in results if f)}/{len(results)} identities hold")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handlers = {
        "verify": _cmd_verify,
        "corpus": _cmd_corpus,
        "hj": _cmd_hj,
        "identify": _cmd_identify,
        "mcg-suite": _cmd_mcg_suite,
    }
    try:
        return handlers[args.command](args)
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
