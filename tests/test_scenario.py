import inspect
import json
import os
import random
import re
import shlex
import string
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from blowdown import cli, hirzebruch, homcalc, mcg, scenario, swledger
from blowdown.scenario import ScenarioError, parse_scenario, print_scenario, run_scenario


def corpus_texts() -> dict[str, str]:
    root = resources.files("blowdown") / "corpus"
    out = {}
    for entry in root.iterdir():
        if entry.name.endswith(".plm"):
            out[entry.name[:-4]] = entry.read_text()
    return out


CORPUS = corpus_texts()
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "data"

MINIMAL = """\
ambient X e 4 sigma 0 basis S
pair S S -4
curve c class S
chain C = c
assert chain C (-4)
assert identify C 2 1
assert euler 4
"""

# MINIMAL blown down, up to and including the `blowdown` line (line 5)
BLOWN = "ambient X e 4 sigma 0 basis S\npair S S -4\ncurve c class S\nchain C = c\nblowdown C\n"
# a ledger `l` declared on line 2
LEDGER = "ambient X e 4 sigma 0 basis S\nsw ledger l e 4 sigma 0 fiber S knots none\n"


def test_corpus_inventory():
    assert set(CORPUS) == {
        "qn", "xn", "r",
        "c44", "c79", "c89", "c169", "c212", "c301", "c540",
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_scenarios_pass(name):
    s = parse_scenario(CORPUS[name], name=name)
    report = run_scenario(s)
    failing = [r.description for r in report.records if not r.passed]
    assert report.all_passed, failing


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parse_print_parse_fixed_point(name):
    first = parse_scenario(CORPUS[name], name=name)
    printed = print_scenario(first)
    second = parse_scenario(printed, name=name)
    assert second.directives == first.directives
    # the printer is canonical: printing again reproduces the same text
    assert print_scenario(second) == printed


# Q_n with one line of every kind it lacks, each value following from Q_n:
# T4.T5 = 1 in its Gram, so smoothing a T4 curve into a T5 curve gives a
# (-2) sphere; `mcg-pass i6` says the word is the identity; and a chambered
# blow-down keeps the exact survivors, widening each value v to v-1, v, v+1.
EVERY_KIND = (
    CORPUS["qn"]
    .replace("assert mcg-pass i6\n", "assert mcg-pass i6\nassert mcg-word-equal i6 1\n")
    .replace("blowup E1 ", "curve u class T4\ncurve w class T5\nassert pairing u w 1\n"
             "smooth v u w\nassert square v -2\nblowup E1 ")
    .replace("assert sw-minimal final 2\n", "assert sw-minimal final 2\n"
             "assert sw-value-set final 3*T+E1+E2 n\n"
             "sw chambered-blowdown wide blown C\n"
             "assert sw-value-set wide 3*T+E1+E2 n-1,n,n+1\n")
)


def test_every_kind_round_trips_and_runs():
    first = parse_scenario(EVERY_KIND, name="every")
    assert {step.kind for step in first.directives} == set(scenario._KINDS)
    printed = print_scenario(first)
    assert parse_scenario(printed).directives == first.directives
    assert print_scenario(parse_scenario(printed)) == printed
    report = run_scenario(first)
    assert report.all_passed, [r for r in report.records if not r.passed]
    assert report.total == 25 + 5


def directive_kind(line: str) -> str:
    """The kind a directive line in the docs names: its first word, or two for `sw`."""
    words = line.split()
    return " ".join(words[:2]) if words[0] == "sw" else words[0]


def test_docs_name_exactly_the_kinds_in_the_table():
    """README's directive block and assertion table, and the module docstring's
    directive list, name each kind of `_KINDS` once and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n```\nambient ", 1)[1].split("```", 1)[0]
    table = readme.split("| kind | checks |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = scenario.__doc__.split("Directives:\n\n", 1)[1].split("\n\n", 1)[0]
    # a row names one kind, or two as "`euler <int>` / `signature <int>`"
    asserted = ["assert " + re.match(r"\s*`(\S+)", part)[1]
                for row in table.splitlines() for part in row.split("|")[1].split(" / ")]
    for lines in (("ambient " + block).splitlines(), listed.splitlines()):
        kinds = [directive_kind(line) for line in lines if line.strip()]
        assert kinds.pop() == "assert"  # `assert <kind> <args>...` closes each list
        assert sorted(kinds + asserted) == sorted(scenario._KINDS)


def test_xn_scenario_is_substantial():
    s = parse_scenario(CORPUS["xn"], name="xn")
    assert len(s.directives) >= 30


def test_corpus_mcg_lines_are_the_standard_factorizations():
    # `blowdown corpus` and `blowdown mcg-suite` certify the same three words
    standard = mcg.standard_factorizations()
    for name, fibre in (("qn", "I6"), ("xn", "I7"), ("c44", "I8")):
        [step] = [s for s in parse_scenario(CORPUS[name], name=name).directives if s.kind == "mcg"]
        assert step.args[2] == standard[fibre], name


def test_minimal_scenario_passes():
    report = run_scenario(parse_scenario(MINIMAL, name="m"))
    assert report.all_passed and report.total == 3


def test_a_name_that_is_a_generator_and_a_curve_means_the_generator_in_a_class():
    # blowing up E2 on the curve E1 makes its class E1 - E2; the generator E1 stays
    text = ("ambient X e 3 sigma 1 basis H\npair H H 1\nblowup E1\nblowup E2 at E1:1\n"
            "curve d class E1\nassert square E1 -2\nassert square-class E1 -1\n"
            "assert square d -1\nassert square-class E1-E2 -2\n")
    report = run_scenario(parse_scenario(text, name="names"))
    assert [(r.description, r.actual, r.passed) for r in report.records] == [
        ("square of E1", "-2", True), ("square of class E1", "-1", True),
        ("square of d", "-1", True), ("square of class E1-E2", "-2", True)]


def test_report_text_format():
    text = MINIMAL.replace("assert chain C (-4)", "assert chain C (-5)")
    report = run_scenario(parse_scenario(text, name="demo"))
    assert report.to_text() == (
        "scenario demo\n"
        "  [ 1] FAIL chain C weights | expected (-5) | actual (-4)\n"
        "  [ 2] PASS chain C identified | expected C_{2,1} | actual C_{2,1}\n"
        "  [ 3] PASS euler characteristic | expected 4 | actual 4\n"
        "  summary: 2/3 assertions passed"
    )
    obj = report.to_json_obj()
    assert obj["passed"] == 2 and obj["total"] == 3
    assert obj["assertions"][0]["pass"] is False
    assert obj["assertions"][0]["expected"] == "(-5)"


@pytest.mark.parametrize("text,message", [
    ("", "no ambient declared"),
    ("curve c class S\n", "line 1: no ambient declared"),
    ("ambient X e 4 sigma 0 basis S\n", "line 1: scenario must end with at least one assertion"),
    ("ambient X e 4 sigma 0 basis S\nblowdwn C label Y\n",
     "line 2: unknown directive 'blowdwn'"),
    ("ambient X e 4 sigma 0 basis S\nambient Y e 4 sigma 0 basis T\n",
     "line 2: duplicate ambient declaration"),
    ("ambient X e 4 sigma 0 basis S\npair S U 1\n",
     "line 2: unknown generator 'U'"),
    # each name is checked as it is read, before the line runs out
    ("ambient X e 4 sigma 0 basis S\npair U\n", "line 2: unknown generator 'U'"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\nsmooth v Z\n",
     "line 3: unknown curve 'Z'"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S+Q\n",
     "line 2: unknown class 'Q'"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\ncurve c class S\n",
     "line 3: curve 'c' already declared"),
    ("ambient X e 4 sigma 0 basis S\nchain C = c\n",
     "line 2: unknown curve 'c'"),
    ("ambient X e 4 sigma 0 basis S S\n",
     "line 1: duplicate basis generator"),
    ("ambient X e four sigma 0 basis S\n",
     "line 1: expected Euler characteristic, got 'four'"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S extra\n",
     "line 2: unexpected trailing token 'extra'"),
    ("ambient X e 4 sigma 0 basis S\nassert euler 4\nsw blowups b l E1\n",
     "line 3: unknown ledger 'l'"),
    ('ambient X e 4 sigma 0 basis S\ncurve "c d" class S\n',
     "line 2: bad curve name 'c d' (no whitespace, quotes, backslash, '#', ',' or ':')"),
    ("ambient X e 4 sigma 0 flags basis basis S\n",
     "line 1: 'basis' is reserved and cannot name a generator"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\nchain C = c\nblowup E at c:1\n",
     "line 4: blowup must precede every chain"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\ncurve d class S\nchain C = c\n"
     "smooth f c d\n",
     "line 5: smooth must precede every chain"),
    pytest.param("ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists a\n"
                 "assert mcg-word-equal m " + "(" * 1000 + "a" + ")" * 1000 + "\n",
                 "line 3: parentheses nested deeper than 32 at position 32", id="deep-word"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\npair S S -4\n",
     "line 3: pair must precede construction steps"),
    (BLOWN + "curve d class S\n", "line 6: curve data was dropped by the blow-down"),
    # placement is checked before the curve list is read, so the dropped
    # curve 'c' is not what the line reports
    (BLOWN + "chain D = c\n", "line 6: curve data was dropped by the blow-down"),
    (BLOWN + "surgery Y\n", "line 6: cannot relabel after the blow-down"),
    (BLOWN + "blowdown C\n", "line 6: already blown down"),
    (BLOWN + "blowup E\n", "line 6: cannot blow up after the blow-down"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\nchain C = c\nchain C = c\n",
     "line 4: chain 'C' already declared"),
    ("ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists a\nmcg m expected 1 twists a\n",
     "line 3: mcg report 'm' already declared"),
    (LEDGER + "sw ledger l e 4 sigma 0 fiber S knots none\n",
     "line 3: ledger 'l' already declared"),
    ("ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists\n",
     "line 2: mcg directive needs at least one twist"),
    ("ambient X e 4 sigma 0 basis S\nmcg m expected 0 twists a*0\n",
     "line 2: twist multiplicity must be >= 1"),
    (LEDGER + "sw blowups m l\n", "line 3: sw blowups needs at least one exceptional class"),
    ("ambient X e 4 sigma 0 basis S\nassert frob\n", "line 2: unknown assertion kind 'frob'"),
    (LEDGER + "assert sw-minimal l 1\n", "line 3: ledger 'l' is not a blow-down result"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\nblowup E at c\n",
     "line 3: bad incidence 'c' (use curve:mult)"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S\nblowup E at c:x\n",
     "line 3: bad multiplicity in 'c:x'"),
    ("ambient X e 4 sigma 0 basis S\ncurve c class S genus -1\n",
     "line 2: genus must be >= 0"),
    ("ambient X e 4 sigma 0 basis S\npair S S 0\ncurve c class S\nchain C = c\n"
     "sw ledger l e 4 sigma 0 fiber S knots none\n"
     "sw blowdown m l C vanishing vanishing-background\n",
     "line 6: expected 'vanishing-r', got 'vanishing'"),
    ("ambient X e 4 sigma 0 basis S\nassert\n", "line 2: expected assertion kind at end of line"),
    ("ambient X e 4 sigma 0 basis S\nsw\n", "line 2: expected sw directive at end of line"),
    # `blowdown` drops the generators with the curves, so nothing after it
    # can pair in the old lattice
    (BLOWN + "sw ledger l e 4 sigma 0 fiber S knots none\n", "line 6: unknown class 'S'"),
    (BLOWN + "assert square-class S 0\n", "line 6: unknown class 'S'"),
    (LEDGER + "pair S S -4\ncurve c class S\nchain C = c\nblowdown C\nsw blowups m l S\n",
     "line 7: unknown generator 'S'"),
    (LEDGER + "pair S S -4\ncurve c class S\nchain C = c\nblowdown C\n"
     "sw blowdown m l C vanishing-r vanishing-background\n",
     "line 7: curve data was dropped by the blow-down"),
    (LEDGER + "pair S S -4\ncurve c class S\nchain C = c\nblowdown C\n"
     "sw chambered-blowdown m l C\n", "line 7: curve data was dropped by the blow-down"),
])
def test_parse_errors(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


AMBIENT = "ambient X e 4 sigma 0 basis S\n"
# a well-formed line of each kind that a placement rule stops
PLACED_LINE = {
    "ambient": "ambient Y e 4 sigma 0 basis T", "pair": "pair S S -4",
    "curve": "curve d class S", "blowup": "blowup E", "smooth": "smooth f c d",
    "surgery": "surgery Y", "chain": "chain D = c", "blowdown": "blowdown C",
    "sw blowdown": "sw blowdown m l C vanishing-r vanishing-background",
    "sw chambered-blowdown": "sw chambered-blowdown m l C",
}
# (kind, message) -> the texts before a line of that kind that break the rule
PLACEMENT_CASES = {
    ("ambient", "duplicate ambient declaration"): [AMBIENT],
    ("pair", "pair must precede construction steps"): [
        AMBIENT + "curve c class S\n", AMBIENT + "blowup E\n",
        AMBIENT + "curve c class S\ncurve d class S\nsmooth f c d\n", AMBIENT + "surgery Y\n"],
    ("curve", "curve data was dropped by the blow-down"): [BLOWN],
    ("blowup", "cannot blow up after the blow-down"): [BLOWN],
    ("blowup", "blowup must precede every chain"): [AMBIENT + "curve c class S\nchain C = c\n"],
    ("smooth", "cannot smooth after the blow-down"): [BLOWN],
    ("smooth", "smooth must precede every chain"): [
        AMBIENT + "curve c class S\ncurve d class S\nchain C = c\n"],
    ("surgery", "cannot relabel after the blow-down"): [BLOWN],
    ("chain", "curve data was dropped by the blow-down"): [BLOWN],
    ("blowdown", "already blown down"): [BLOWN],
    ("sw blowdown", "curve data was dropped by the blow-down"): [LEDGER + BLOWN[len(AMBIENT):]],
    ("sw chambered-blowdown", "curve data was dropped by the blow-down"): [
        LEDGER + BLOWN[len(AMBIENT):]],
}


PLACEMENT_RULES = [(kind, message)
                   for kind, entry in scenario._KINDS.items() for _kinds, message in entry.place]


@pytest.mark.parametrize("kind,message", PLACEMENT_RULES)
def test_every_placement_rule_stops_its_line(kind, message):
    for before in PLACEMENT_CASES[kind, message]:
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(before + PLACED_LINE[kind] + "\nassert euler 4\n")
        lineno = before.count("\n") + 1
        assert str(exc.value) == f"line {lineno}: {message}"


def test_every_placement_rule_has_its_cases():
    assert sorted(PLACEMENT_CASES) == sorted(PLACEMENT_RULES)


@pytest.mark.parametrize("kind", sorted(set(scenario._KINDS) - {"ambient"}))
def test_a_first_line_of_any_kind_but_ambient_has_no_ambient(kind):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(f"# comment\n\n{kind}\n")
    assert str(exc.value) == "line 3: no ambient declared"


@pytest.mark.parametrize("text,terms", [
    ("S", ((1, "S"),)),
    ("-S", ((-1, "S"),)),
    ("+S", ((1, "S"),)),
    ("2*S+T", ((2, "S"), (1, "T"))),
    ("2S-3*T", ((2, "S"), (-3, "T"))),
    ("S + T", ((1, "S"), (1, "T"))),
    ("_a1-E2", ((1, "_a1"), (-1, "E2"))),
    ("0*S", ((0, "S"),)),
])
def test_parse_lincomb(text, terms):
    assert scenario.parse_lincomb(text) == terms


@pytest.mark.parametrize("text,message", [
    ("", "empty class expression"),
    ("S+", "bad term '+' in class expression 'S+'"),
    ("2*", "bad term '2*' in class expression '2*'"),
    ("S*2", "bad term 'S*2' in class expression 'S*2'"),
    ("S--T", "bad term '-' in class expression 'S--T'"),
    ("1", "bad term '1' in class expression '1'"),
    ("S+-T", "bad term '+' in class expression 'S+-T'"),
    ("2**S", "bad term '2**S' in class expression '2**S'"),
])
def test_parse_lincomb_rejects(text, message):
    with pytest.raises(ValueError) as exc:
        scenario.parse_lincomb(text)
    assert str(exc.value) == message


def reference_lincomb(text: str):
    """parse_lincomb's grammar, read term by term with string methods only."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty class expression")
    cuts = [0] + [i for i in range(1, len(s)) if s[i] in "+-"] + [len(s)]
    word = string.ascii_letters + "_"
    out = []
    for start, stop in zip(cuts, cuts[1:]):
        term = s[start:stop]
        rest = term[1:] if term[0] in "+-" else term
        digits = 0
        while digits < len(rest) and rest[digits].isdecimal():
            digits += 1
        coef, name = (int(rest[:digits]), rest[digits:]) if digits else (1, rest)
        if digits and name.startswith("*"):
            name = name[1:]
        if not name or name[0] not in word or any(ch not in word + string.digits for ch in name):
            raise ValueError(f"bad term {term!r} in class expression {text!r}")
        out.append((-coef if term[0] == "-" else coef, name))
    return tuple(out)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_lincomb_matches_a_term_by_term_reference():
    # \d reads \u0663 (ARABIC-INDIC DIGIT THREE) as a coefficient digit, and
    # str.isidentifier takes \u00e9, which no name in a class may hold
    pieces = ("S", "T1", "_a", "x9", "E", "\u00e9", "\u0663", "2", "10", "0", "*", "+", "-", " ", "\t")
    rng = random.Random(3141)
    seen = {"one name": 0, "several terms": 0, "non-ASCII": 0, "rejected": 0}
    for _ in range(20_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 7)))
        want = outcome(reference_lincomb, text)
        assert outcome(scenario.parse_lincomb, text) == want, repr(text)
        if isinstance(want, str):
            seen["rejected"] += 1
        else:
            seen["one name" if len(want) == 1 else "several terms"] += 1
            seen["non-ASCII"] += not text.isascii()
    assert min(seen.values()) >= 100, seen


def test_parse_error_unbalanced_quote():
    with pytest.raises(ScenarioError, match=r"^line 1: "):
        parse_scenario('ambient "X e 4 sigma 0 basis S\n')


def test_runtime_errors_carry_line_numbers():
    text = (
        "ambient E e 12 sigma -8 basis S T\n"
        "pair S S -1\n"
        "pair S T 1\n"
        "sw ledger L e 12 sigma -8 fiber S knots twist(1)\n"
        "assert euler 12\n"
    )
    with pytest.raises(ScenarioError,
                       match=r"^line 4: fiber class squares to -1, expected 0$"):
        run_scenario(parse_scenario(text))


def qn_with(old: str, new: str) -> tuple[str, int]:
    """`qn` with its one line `old` replaced by `new`, and the line number of
    its `sw blowdown`."""
    assert CORPUS["qn"].count(old) == 1
    text = CORPUS["qn"].replace(old, new)
    lines = text.splitlines()
    return text, next(i for i, line in enumerate(lines, 1) if line.startswith("sw blowdown"))


def lattice_before(text: str, lineno: int) -> scenario._Runner:
    """A runner that has run every line of `text` before line `lineno`."""
    run = scenario._Runner(parse_scenario(text))
    for step in run.scenario.directives:
        if step.lineno == lineno:
            return run
        scenario._KINDS[step.kind].run(run, *step.args)
    raise AssertionError(f"no line {lineno}")


def test_sw_blowdown_needs_the_ledger_e_and_sigma_of_the_configuration():
    # two blow-ups take the ledger from (8, -8) to (10, -10); qn's own
    # assertions put the configuration at (14, -10)
    text, lineno = qn_with("sw ledger base e 12 sigma -8", "sw ledger base e 8 sigma -8")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    assert str(exc.value) == (f"line {lineno}: ledger (e, sigma) is (10, -10), "
                              "the configuration's (14, -10)")


def test_sw_blowdown_needs_tracked_classes_orthogonal_to_the_fiber():
    # the section S meets the fiber component T0 once, so it pairs 1 with T
    text, lineno = qn_with("sw blowups blown base E1 E2", "sw blowups blown base E1 E2 S")
    run = lattice_before(text, lineno)
    t_dot_s = homcalc.pair_vectors(run.cfg.gram, run.cfg.curve("F").cls, {"S": 1})
    assert t_dot_s == 1
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    assert str(exc.value) == f"line {lineno}: tracked pairing T.S = {t_dot_s}, expected 0"


def test_sw_blowdown_needs_tracked_exceptional_classes_of_square_minus_one():
    # T0 pairs 0 with the fiber (-2 + 1 + 1), so only its square gives it away
    text, lineno = qn_with("sw blowups blown base E1 E2", "sw blowups blown base E1 E2 T0")
    run = lattice_before(text, lineno)
    assert homcalc.pair_vectors(run.cfg.gram, run.cfg.curve("F").cls, {"T0": 1}) == 0
    square = homcalc.pair_vectors(run.cfg.gram, {"T0": 1}, {"T0": 1})
    assert square == -2
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    assert str(exc.value) == f"line {lineno}: tracked class T0 squares to {square}, expected -1"


def test_sw_blowups_with_a_repeated_name_stops_at_its_line():
    text = (
        "ambient X e 12 sigma -8 basis F E1\n"
        "sw ledger base e 12 sigma -8 fiber F knots twist(n)\n"
        "sw blowups blown base E1 E1\n"
        "assert sw-value blown T+E1 n\n"
    )
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    assert str(exc.value) == "line 3: tracked class 'E1' is named twice"


def test_blowup_after_chain_stops_at_its_line():
    # the recorded chain is (-4) = C_{2,1}; blowing up a point of c would make
    # the sphere a (-5), so `identify` on the record and the blow-down of the
    # live curve would disagree.  The scenario stops at the blow-up instead.
    text = MINIMAL.replace("assert euler 4\n", "blowup E at c:1\nblowdown C\nassert euler 3\n")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text))
    assert str(exc.value) == "line 7: blowup must precede every chain"


def test_ledger_declared_before_the_blowups():
    # Q_n with its `sw ledger` line above the blow-ups: the fiber vector is
    # shorter than the chain's lattice, and the report is Q_n's
    line = "sw ledger base e 12 sigma -8 fiber F knots twist(1),twist(n)\n"
    text = CORPUS["qn"].replace(line, "").replace("blowup E1 ", line + "blowup E1 ")
    assert text.index(line) < text.index("blowup E1 ")
    report = run_scenario(parse_scenario(text, name="qn"))
    assert report.records == run_scenario(parse_scenario(CORPUS["qn"], name="qn")).records
    assert report.total == 25 and report.all_passed


def test_long_blowups_line_costs_neither_seconds_nor_megabytes():
    # one 24-name line over the +-T seed of a twist knot: 2 * 2^24 entries,
    # none of which may be built to count them or to look one up
    names = [f"E{i}" for i in range(1, 25)]
    signs = "".join(("+" if i % 3 else "-") + g for i, g in enumerate(names))
    text = (
        f"ambient X e 12 sigma -8 basis F {' '.join(names)}\n"
        "sw ledger base e 12 sigma -8 fiber F knots twist(n)\n"
        f"sw blowups blown base {' '.join(names)}\n"
        "assert sw-entries blown 33554432\n"
        f"assert sw-value blown -T{signs} -n\n"
        # the last coordinate is 0, not +-1, so no entry has this class
        f"assert sw-unverified blown T{signs[:-4]}\n"
        f"assert sw-unverified blown 3*T{signs}\n"
    )
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        report = run_scenario(parse_scenario(text))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.actual, r.passed) for r in report.records] == [
        ("33554432", True), ("0 - 1*n", True), ("absent", False), ("absent", False)]
    assert elapsed < 0.25, elapsed
    assert peak < 1_000_000, peak


ORTHOGONAL_NAMES = [f"Z{i}" for i in range(1, 17)]


def run_qn_with_orthogonal_blowups(blowups):
    """Q_n blown up at Z1..Z16 away from the plumbing before the chain, with
    `blowups` as its `sw blowups` line.  Their rows are zero, so the blow-down
    keeps Q_n's two survivors with 16 free signs, 2 * 2^16 entries, wherever
    the names sit.  Returns the elapsed time and tracemalloc peak."""
    names = ORTHOGONAL_NAMES
    text = CORPUS["qn"][:CORPUS["qn"].index("blowdown C label")]
    text = text.replace("chain C =", "".join(f"blowup {z}\n" for z in names) + "chain C =")
    text = text.replace("sw blowups blown base E1 E2\nassert sw-entries blown 16\n", blowups + "\n")
    text = text[:text.index("assert sw-entries final")] + (
        "assert sw-entries final 131072\n"
        f"assert sw-value final 3*T+E1+E2+{'+'.join(names)} n\n"
        f"assert sw-restriction final -3*T-E1-E2-{'+'.join(names)} (-7,0,0,0,0,0)\n")
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        report = run_scenario(parse_scenario(text, name="qn"))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, [r for r in report.records if not r.passed]
    assert [r.actual for r in report.records[-3:]] == ["131072", "0 + 1*n", "(-7,0,0,0,0,0)"]
    return elapsed, peak


def test_blowups_away_from_the_chain_cost_neither_seconds_nor_megabytes():
    # the names appended to the `sw blowups` line
    elapsed, peak = run_qn_with_orthogonal_blowups(
        f"sw blowups blown base E1 E2 {' '.join(ORTHOGONAL_NAMES)}")
    assert elapsed < 0.25, elapsed
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("blowups", [
    f"sw blowups blown base {' '.join(ORTHOGONAL_NAMES)} E1 E2",
    "sw blowups blown base " + " ".join(
        ORTHOGONAL_NAMES[:5] + ["E1"] + ORTHOGONAL_NAMES[5:11] + ["E2"] + ORTHOGONAL_NAMES[11:]),
], ids=["before", "among"])
def test_blowups_away_from_the_chain_cost_nothing_wherever_they_are_named(blowups):
    # a zero row before a walked row stays a free sign too, so placing the
    # names before E1 E2 or among them costs what appending them does
    elapsed, peak = run_qn_with_orthogonal_blowups(blowups)
    assert elapsed < 0.25, elapsed
    assert peak < 1_000_000, peak


def test_huge_twist_multiplicity_stops_at_its_line():
    # 86 bytes that would list ten million vanishing cycles, one per unit twist
    text = ("ambient X e 12 sigma -8 basis S\n"
            "mcg m expected 12 twists a*10000000\n"
            "assert mcg-pass m\n")
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ScenarioError) as exc:
            run_scenario(parse_scenario(text))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith("line 2: "), exc.value
    assert elapsed < 0.25, elapsed
    assert peak < 1_000_000, peak


def test_knot_count_bound_is_inclusive():
    # 63 x twist(3) and twist(n): P(t) = prod A_i(t^2) has top term 3^63*n*t^128,
    # so (P - 1)/(t - t^-1) has top term 3^63*n*t^127, and it is odd in t
    text = ("ambient X e 12 sigma -8 basis F\n"
            "sw ledger base e 12 sigma -8 fiber F knots {}\n"
            f"assert sw-value base 127*T {3 ** 63}*n\n"
            f"assert sw-value base -127*T -{3 ** 63}*n\n")
    report, elapsed = run_timed(text.format(",".join(["twist(3)"] * 63 + ["twist(n)"])))
    assert report.all_passed and report.total == 2
    assert elapsed < 0.25, elapsed
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError, match=r"^line 2: 65 knots; at most 64 are allowed$"):
        run_scenario(parse_scenario(text.format(",".join(["twist(3)"] * 64 + ["twist(n)"]))))
    assert time.perf_counter() - t0 < 0.01


def test_twist_count_bound_is_inclusive():
    text = ("ambient X e 12 sigma -8 basis S\n"
            "mcg m expected 12 twists a*{}\n"
            "assert mcg-pass m\n")
    report = run_scenario(parse_scenario(text.format(4096)))
    assert [(r.actual, r.passed) for r in report.records] == [
        ("fail (identity=False, twists=4096)", False)]
    with pytest.raises(ScenarioError, match=r"^line 2: 4097 unit twists"):
        run_scenario(parse_scenario(text.format(4097)))

def test_sw_entries_counts_past_the_index_size():
    # 63 names give 2 * 2^63 entries, more than `len` can return
    names = [f"E{i}" for i in range(1, 64)]
    text = (
        f"ambient X e 12 sigma -8 basis F {' '.join(names)}\n"
        "sw ledger base e 12 sigma -8 fiber F knots twist(n)\n"
        f"sw blowups blown base {' '.join(names)}\n"
        f"assert sw-entries blown {2 ** 64}\n"
        f"assert sw-value blown T{''.join('+' + g for g in names)} n\n"
    )
    report = run_scenario(parse_scenario(text))
    assert [(r.actual, r.passed) for r in report.records] == [
        (str(2 ** 64), True), ("0 + 1*n", True)]

def test_hyperbolic_word_power_reports_its_line():
    text = (
        "ambient X e 4 sigma 0 basis S\n"
        "mcg m expected 1 twists a\n"
        "assert mcg-word-equal m (aB)^1000000\n"
    )
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError, match=r"^line 3: .*more than \d+ bits$"):
        run_scenario(parse_scenario(text))
    assert time.perf_counter() - t0 < 0.25


def test_over_long_word_exponent_reports_its_line_and_position():
    word = "a^" + "9" * 5000
    text = f"ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists a\nassert mcg-word-equal m {word}\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == f"line 3: exponent too long at position 2 in {word!r}"


def run_timed(text):
    t0 = time.perf_counter()
    report = run_scenario(parse_scenario(text))
    return report, time.perf_counter() - t0


def test_a_thousand_pair_lines_cost_no_seconds():
    r = 1000
    text = (f"ambient X e {r + 2} sigma {-r} basis {' '.join(f'g{i}' for i in range(r))}\n"
            + "".join(f"pair g{i} g{i} -2\n" for i in range(r))
            + f"assert square-class g0+g{r - 1} -4\nassert square-class g{r - 1} -2\n")
    report, elapsed = run_timed(text)
    assert report.all_passed and report.total == 2
    assert elapsed < 0.25, elapsed


def test_a_thousand_blowup_lines_cost_no_seconds():
    r = 1000
    text = ("ambient X e 3 sigma 1 basis S\npair S S 1\ncurve c class S\n"
            + "".join(f"blowup E{i} at c:1\n" for i in range(1, r + 1))
            + f"assert euler {3 + r}\nassert signature {1 - r}\nassert square c {1 - r}\n")
    report, elapsed = run_timed(text)
    assert report.all_passed and report.total == 3
    assert elapsed < 0.25, elapsed


SW_BLOWDOWNS = ("sw blowdown", "sw chambered-blowdown")


def record_blowdown_rows(monkeypatch, filter_result=None):
    """Make the ledger filters record the chain-pairing rows they are given:
    returns the list they append to.  With `filter_result`, the filters are
    not run, and each call returns `filter_result(ledger)` instead."""
    seen = []
    for attr in ("rational_blowdown_ledger", "chambered_blowdown_ledger"):
        def recording(ledger, chain, rows, *args, _filter=getattr(swledger, attr), **kwargs):
            seen.append(rows)
            if filter_result is not None:
                return filter_result(ledger)
            return _filter(ledger, chain, rows, *args, **kwargs)
        monkeypatch.setattr(swledger, attr, recording)
    return seen


def test_sw_blowdown_rows_at_the_chain_bound_cost_their_nonzero_pairings(monkeypatch):
    # 64 tracked classes (a fiber class of 16 generators and 63 exceptional
    # generators) against 4,096 chain spheres that meet up to two of them
    rng = random.Random(64)
    k, m = hirzebruch.MAX_CHAIN, 63
    spheres = [f"g{i}" for i in range(k)]
    fiber = [f"f{i}" for i in range(16)]
    exceptional = [f"E{i}" for i in range(1, m + 1)]
    gram = {g: {g: -2} for g in spheres}
    for a, b in zip(spheres, spheres[1:]):
        gram[a][b] = gram[b][a] = 1
    # the fiber is a cycle of 16 (-2)-spheres, an I_16 fiber of square 0
    for i, f in enumerate(fiber):
        gram[f] = {f: -2, fiber[i - 1]: 1, fiber[(i + 1) % 16]: 1, spheres[37 * i]: 1}
        gram[spheres[37 * i]][f] = 1
    gram.update({e: {e: -1} for e in exceptional})
    classes = []
    for g in spheres:
        cls = {g: 1}
        for e in rng.sample(exceptional, rng.randint(0, 2)):
            cls[e] = -1
        classes.append(cls)
    tracked = [dict.fromkeys(fiber, 1)] + [{e: 1} for e in exceptional]
    run = scenario._Runner(scenario.Scenario("rows", ()))
    run.cfg = homcalc.CurveConfig(gram, {}, 2 * k, 0, "X")
    run.chains["C"] = scenario._ChainRec(hirzebruch.chain_for_cpq(k + 1, k), tuple(classes))
    seed = swledger.Ledger("seed", 2 * k, 0, ("T", *exceptional), ())
    run.sw["blown"] = scenario._SwRec(ledger=seed, tracked=tuple(tracked))
    seen = record_blowdown_rows(
        monkeypatch, lambda ledger: swledger.BlowdownResult(ledger, (), False))
    start = time.perf_counter()
    run.sw_blowdown("final", "blown", "C", None)
    elapsed = time.perf_counter() - start
    (rows,) = seen
    assert len(rows) == m + 1 and all(len(row) == k for row in rows)
    assert sum(1 for row in rows for x in row if x) > k
    for _ in range(500):
        t, j = rng.randrange(m + 1), rng.randrange(k)
        assert rows[t][j] == homcalc.pair_vectors(gram, tracked[t], classes[j]), (t, j)
    assert elapsed < 0.25, elapsed


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sw_blowdown_rows_match_pair_vectors(name, monkeypatch):
    # run the scenario step by step; at each ledger blow-down, every row entry
    # the runner hands the filter is the one pairing of its tracked class (T,
    # the `sw ledger` line's fiber expression, or the live generator of its
    # name) with its chain sphere
    run = scenario._Runner(parse_scenario(CORPUS[name], name=name))
    seen = record_blowdown_rows(monkeypatch)
    fibers = {}  # ledger name -> its fiber expression over the generators
    checked = 0
    for step in run.scenario.directives:
        if step.kind == "sw ledger":
            fiber = {}
            for coef, term in step.args[3]:
                for g, x in ({term: 1} if term in run.cfg.gram else run.cfg.curves[term].cls).items():
                    fiber[g] = fiber.get(g, 0) + coef * x
            fibers[step.args[0]] = fiber
        elif step.kind == "sw blowups" or step.kind in SW_BLOWDOWNS:
            fibers[step.args[0]] = fibers[step.args[1]]
        if step.kind in SW_BLOWDOWNS:
            _new, source, chain, *_ = step.args
            src, rec = run.sw[source], run.chains[chain]
            gram = run.cfg.gram
            tracked = [fibers[source]] + [{g: 1} for g in src.ledger.basis[1:]]
            want = [tuple(homcalc.pair_vectors(gram, t, u) for u in rec.classes) for t in tracked]
        scenario._KINDS[step.kind].run(run, *step.args)
        if step.kind in SW_BLOWDOWNS:
            assert [tuple(row) for row in seen.pop()] == want
            checked += 1
    assert all(r.passed for r in run.records)
    assert checked == sum(line.startswith(SW_BLOWDOWNS) for line in CORPUS[name].splitlines())


# --- line splitting and parser fuzz ---------------------------------------

PLAIN_CHARS = "ab1- \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u2029　#,:=()^*"
SPECIAL_CHARS = "'\"\\\n"
FUZZ_TOKENS = (
    "", "0", "-1", "7", "x", "S", "E1", "basis", "flags", "label", "at", "class", "genus",
    "dp", "=", "'a b'", '"q\\"r"', "a\\ b", "#c", "twist(n)", "twist(-2)", "none", "c1:2",
    "c1,c2", "(ab)^3", "a~B", "b*2", "S+2*E1", "-T+E1", "(-2,-3)", "1/2", "١", "x\xa0y",
)


def random_line(rng) -> str:
    chars = PLAIN_CHARS if rng.random() < 0.5 else PLAIN_CHARS + SPECIAL_CHARS * 2
    return "".join(rng.choice(chars) for _ in range(rng.randint(0, 14)))


def test_split_line_matches_shlex():
    # a quote after the first `#` is inside the comment; one before it is not
    for line in ["# it's", 'a b # "c', "a#'b", 'a "#" b']:
        assert scenario.split_line(line) == shlex.split(line, comments=True), repr(line)
    rng = random.Random(90210)
    deadline = time.perf_counter() + 1.0
    checked = plain = 0
    while checked < 20_000 and time.perf_counter() < deadline:
        line = random_line(rng)
        checked += 1
        plain += not any(ch in line for ch in SPECIAL_CHARS)
        try:
            want = shlex.split(line, comments=True)
        except ValueError:
            with pytest.raises(ValueError):
                scenario.split_line(line)
            continue
        assert scenario.split_line(line) == want, repr(line)
    assert checked >= 3_000 and plain >= 1_000, (checked, plain)


def needs_shlex(line: str) -> bool:
    """A quote, a backslash or a non-printable character before the first `#`,
    or a newline anywhere."""
    before = line.split("#", 1)[0]
    return "\n" in line or not before.isprintable() or any(ch in before for ch in "'\"\\")


def test_only_a_quote_backslash_or_unprintable_text_before_the_comment_or_a_newline_goes_to_shlex(
        monkeypatch):
    calls = []
    split = shlex.split

    def counted(*args, **kwargs):
        calls.append(args)
        return split(*args, **kwargs)

    monkeypatch.setattr(scenario.shlex, "split", counted)
    routed = ["a\tb", "a\xa0b", "a\x1fb # c", "a\u2028b", "a 'b'", "a\\ b", "a\nb"]
    for line in ["a  b", "a b # 'c", "a b #\tc"] + routed:
        calls.clear()
        scenario.split_line(line)
        assert len(calls) == needs_shlex(line) == (line in routed), repr(line)
    calls.clear()
    special = 0
    for name in sorted(CORPUS):
        parse_scenario(CORPUS[name], name=name)
        special += sum(map(needs_shlex, CORPUS[name].split("\n")))
    assert len(calls) == special == 9


def mutate_scenario(rng, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        roll = rng.random()
        if roll < 0.4:
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        elif roll < 0.6:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(FUZZ_TOKENS))
        elif roll < 0.75:
            del tokens[rng.randrange(len(tokens))]
        elif roll < 0.9:
            pos = rng.randint(0, len(lines[i]))
            tokens = [lines[i][:pos] + random_line(rng)[:3] + lines[i][pos:]]
        else:
            lines.insert(i, random_line(rng))
            continue
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def assert_located(exc: ScenarioError, text: str):
    """Every error names its line, except the one for a text with no directive."""
    if str(exc) == "no ambient declared":
        assert not any(scenario.split_line(raw) for raw in text.splitlines()), text
    else:
        assert re.match(r"line \d+: ", str(exc)), (str(exc), text)


def test_parser_fuzz_raises_only_scenario_errors_and_round_trips():
    rng = random.Random(4242)
    texts = [CORPUS[name] for name in sorted(CORPUS)] + [MINIMAL]
    deadline = time.perf_counter() + 1.5
    outcomes = {"parsed": 0, "rejected": 0}
    while sum(outcomes.values()) < 2_000 and time.perf_counter() < deadline:
        text = mutate_scenario(rng, rng.choice(texts))
        try:
            first = parse_scenario(text)
        except ScenarioError as exc:
            assert_located(exc, text)
            outcomes["rejected"] += 1
            continue
        outcomes["parsed"] += 1
        printed = print_scenario(first)
        second = parse_scenario(printed)
        assert second.directives == first.directives, text
        assert print_scenario(second) == printed, text
    assert min(outcomes.values()) >= 100, outcomes


NUMBER = re.compile(r"(?<![A-Za-z_0-9])-?[0-9]+")


def mutate_number(rng, text: str) -> str:
    """Replace one or two integers (not digits inside a name) by small values,
    which mostly keeps the text parsing and changes what it computes."""
    for _ in range(rng.choice((1, 1, 2))):
        start, end = rng.choice([m.span() for m in NUMBER.finditer(text)])
        text = text[:start] + str(rng.choice((0, 1, 2, 3, 4, -1, -2, -3, -4, -9))) + text[end:]
    return text


def test_runner_fuzz_raises_only_scenario_errors():
    rng = random.Random(5151)
    texts = [CORPUS[name] for name in sorted(CORPUS)] + [MINIMAL]
    deadline = time.perf_counter() + 1.5
    outcomes = {"rejected": 0, "ran": 0, "failed": 0}
    while sum(outcomes.values()) < 2_000 and time.perf_counter() < deadline:
        text = rng.choice(texts)
        text = mutate_scenario(rng, text) if rng.random() < 0.5 else mutate_number(rng, text)
        try:
            parsed = parse_scenario(text)
        except ScenarioError as exc:
            assert_located(exc, text)
            outcomes["rejected"] += 1
            continue
        try:
            run_scenario(parsed)
        except ScenarioError as exc:
            assert_located(exc, text)
            outcomes["failed"] += 1
            continue
        outcomes["ran"] += 1
    assert outcomes["ran"] >= 100 and outcomes["failed"] >= 50, outcomes


# --- CLI ---------------------------------------------------------------


def test_cli_hj(capsys):
    assert cli.main(["hj", "71", "8"]) == 0
    out = capsys.readouterr().out
    assert out == "(-9,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2)\n"


def test_cli_hj_json(capsys):
    assert cli.main(["--json", "hj", "7", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"p": 7, "q": 1, "chain": "(-9,-2,-2,-2,-2,-2)"}


def test_cli_hj_rejects_bad_pair(capsys):
    assert cli.main(["hj", "4", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_hj_bounds_the_chain_length(capsys):
    # C_{p,p-1} has p - 1 spheres: the bound is inclusive
    assert cli.main(["hj", "4097", "4096"]) == 0
    assert capsys.readouterr().out.count(",") == hirzebruch.MAX_CHAIN - 1
    assert cli.main(["hj", "4098", "4097"]) == 2
    assert capsys.readouterr().err == (
        "error: the expansion of 16793604/16789505 has more than 4096 coefficients\n")
    start = time.perf_counter()
    assert cli.main(["hj", "10000000", "9999999"]) == 2
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr() == ("", "error: the expansion of 100000000000000/99999989999999 "
                                       "has more than 4096 coefficients\n")


def test_cli_hj_names_a_numerator_too_long_to_print_by_its_size(capsys):
    # p^2 has 4,401 digits, past the most Python writes; p itself has 2,201
    assert cli.main(["hj", str(10 ** 2200 + 1), "1"]) == 2
    assert capsys.readouterr() == ("", "error: the expansion of a fraction with a 14617-bit "
                                       "numerator has more than 4096 coefficients\n")


def test_cli_identify(capsys):
    assert cli.main(["identify", "(-4)"]) == 0
    assert capsys.readouterr().out == "C_{2,1}\n"
    assert cli.main(["identify", "(-9,-2,-2,-2,-2,-2)"]) == 0
    assert capsys.readouterr().out == "C_{7,1}\n"
    assert cli.main(["identify", "(-7,-2)"]) == 0
    assert capsys.readouterr().out == "none\n"


def test_cli_identify_bad_input(capsys):
    assert cli.main(["identify", "abc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_mcg_suite(capsys):
    assert cli.main(["mcg-suite"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "summary: 7/7 identities hold"
    assert sum(1 for ln in lines if ln.startswith("PASS ")) == 7
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_cli_mcg_suite_json(capsys):
    assert cli.main(["--json", "mcg-suite"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] == payload["total"] == 7
    assert {i["name"] for i in payload["identities"]} >= {"(ab)^6 = 1", "(a^3b)^3 = 1"}


MCG_SUITE_NAMES = [
    "(ab)^6 = 1",
    "(a^3b)^3 = 1",
    "(a^3b)^3 = a^7 b^(a^-4) b^(a^-1) a^2 b",
    "a^3 b a^2 b^2 a^2 b a = 1",
    "a^3 b a^2 b^2 a^2 b a = a^8 b^(a^-2) b^2 b^(a^2)",
    "(a^3b)^3 = a^6 b^(a^-3) b^2 (a^(b^-1))^3",
    "b = a^(ab)",
]
MCG_SUITE_JSON = ('{\n  "identities": [\n'
                  + ",\n".join(f'    {{\n      "name": "{name}",\n      "pass": true\n    }}'
                               for name in MCG_SUITE_NAMES)
                  + '\n  ],\n  "passed": 7,\n  "total": 7\n}\n')


@pytest.mark.parametrize("argv,out", [
    (["hj", "71", "8"], "(-9,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2)\n"),
    (["--json", "hj", "7", "1"], '{"chain": "(-9,-2,-2,-2,-2,-2)", "p": 7, "q": 1}\n'),
    (["identify", "(-9,-2,-2,-2,-2,-2)"], "C_{7,1}\n"),
    (["--json", "identify", "(-7,-2)"], '{"chain": "(-7,-2)", "result": "none"}\n'),
    (["mcg-suite"], "".join(f"PASS {name}\n" for name in MCG_SUITE_NAMES)
     + "summary: 7/7 identities hold\n"),
    (["--json", "mcg-suite"], MCG_SUITE_JSON),
])
def test_cli_commands_print_exact_bytes(argv, out, capsys):
    # key order and indent included: JSON read back with json.loads would hide them
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_cli_parser_keeps_no_state_between_calls(tmp_path, capsys):
    good = tmp_path / "good.plm"
    good.write_text(MINIMAL)

    def run(argv, fresh=False):
        if fresh:
            cli._parser.cache_clear()
        code = cli.main(argv)
        return code, *capsys.readouterr()

    pairs = [
        (["--json", "hj", "7", "1"], ["hj", "7", "1"]),
        (["--seed", "5", "corpus"], ["corpus"]),
        (["hj", "7"], ["hj", "7", "1"]),
        (["verify", str(tmp_path / "missing.plm")], ["verify", str(good)]),
    ]
    for before, after in pairs:
        # each call as it reads on a freshly built parser
        first = run(before, fresh=True), run(after, fresh=True)
        assert (run(before, fresh=True), run(after)) == first, (before, after)
        assert cli._parser.cache_info().misses == 1
    assert run(["hj", "7"])[0] == run(["verify", str(tmp_path / "missing.plm")])[0] == 2


def test_cli_parser_is_not_built_at_import():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import blowdown.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "0\n"


def test_cli_corpus(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"total: (\d+)/(\d+) assertions passed in (\d+) scenario\(s\)$",
                  out.strip())
    assert m is not None
    assert m.group(1) == m.group(2)
    assert m.group(3) == "10"


@pytest.mark.parametrize("argv,golden", [
    (["corpus"], "corpus.txt"),
    (["--json", "corpus"], "corpus.json"),
])
def test_cli_corpus_matches_golden(argv, golden, capsys):
    # the reports captured when the benchmark was defined; they must not drift
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_cli_corpus_items_are_the_bundled_files_by_name():
    assert cli._corpus_items() == sorted(corpus_texts().items())


def test_cli_corpus_seed_does_not_change_output(capsys):
    assert cli.main(["corpus"]) == 0
    base = capsys.readouterr().out
    for seed in ("3", "17"):
        assert cli.main(["--seed", seed, "corpus"]) == 0
        assert capsys.readouterr().out == base


def test_cli_corpus_json_matches_text(capsys):
    assert cli.main(["--json", "corpus"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] == payload["total"]
    assert [s["scenario"] for s in payload["scenarios"]] == sorted(CORPUS)
    assert all(a["pass"] for s in payload["scenarios"] for a in s["assertions"])


# `cli._json` writes --json output; `json.dumps(..., sort_keys=True)` is its oracle
JSON_CHARS = ("azAZ09 /'" '"\\' "\x00\x01\b\t\n\x0b\f\r\x1f\x7f"
              "\x85\xa0\xe9\u2028\u2029\u2603\ud800\udfff\U000103ff\U0001d53d\U0001f600")


def json_oracle(obj, indent):
    return json.dumps(obj, indent=indent, sort_keys=True)


def random_text(rng):
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(6)))


def random_payload(rng, depth, empties):
    """A dict or list nested `depth` levels, each level holding an empty dict
    and list at random places among leaves and one deeper container."""
    if depth == 0:
        return rng.choice([random_text(rng), rng.choice((True, False)),
                           rng.randrange(-2**70, 2**70), rng.randrange(-3, 4), {}, []])
    items = [{}, [], random_payload(rng, depth - 1, empties)]
    items += [random_payload(rng, 0, empties) for _ in range(rng.randrange(4))]
    rng.shuffle(items)
    empties.add(depth)
    if rng.random() < 0.5:
        return items
    keys = {random_text(rng) + str(i) for i in range(len(items))}
    return dict(zip(rng.sample(sorted(keys), len(keys)), items))


def test_json_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(34)
    empties = set()
    for _ in range(1200):
        obj = random_payload(rng, rng.randrange(6), empties)
        for indent in (None, 2):
            assert cli._json(obj, indent) == json_oracle(obj, indent), obj
    assert empties == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("obj", [
    JSON_CHARS, -1, -2**64 - 1, 2**64, 2**200, True, False, 0, "", {}, [],
    {"\U0001f600": {" ": ["\U0001f600", "\\", '"']}, "\xe9": [[], {}, [True, -7]]},
    [JSON_CHARS[i:] for i in range(len(JSON_CHARS))],
])
def test_json_writer_matches_json_dumps_on_escapes_and_integers(obj):
    for indent in (None, 0, 2, 4):
        assert cli._json(obj, indent) == json_oracle(obj, indent)


@pytest.mark.parametrize("obj", [1.0, None, (1, 2), {"a": [1, None]}, [{"b": 0.5}],
                                 {"c": (3,)}, {1: 2}])
def test_json_writer_rejects_other_types(obj):
    for indent in (None, 2):
        with pytest.raises(TypeError):
            cli._json(obj, indent)


def test_json_writer_matches_json_dumps_on_every_command_payload(tmp_path, monkeypatch, capsys):
    seen = []
    write = cli._json
    monkeypatch.setattr(cli, "_json", lambda obj, indent=None: seen.append(obj) or write(obj, indent))
    good = tmp_path / "good.plm"
    good.write_text(MINIMAL)
    for argv in (["corpus"], ["verify", str(good)], ["hj", "71", "8"], ["identify", "(-4)"],
                 ["identify", "(-7,-2)"], ["mcg-suite"]):
        assert cli.main(["--json", *argv]) == 0
    capsys.readouterr()
    assert len(seen) == 6
    for obj in seen:
        for indent in (None, 2):
            assert write(obj, indent) == json_oracle(obj, indent)


def test_cli_json_never_calls_the_json_encoder(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json's encoder was called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    for argv, out in ((["corpus"], (GOLDEN / "corpus.json").read_text(encoding="utf-8")),
                      (["mcg-suite"], MCG_SUITE_JSON),
                      (["hj", "7", "1"], '{"chain": "(-9,-2,-2,-2,-2,-2)", "p": 7, "q": 1}\n')):
        assert cli.main(["--json", *argv]) == 0
        assert capsys.readouterr() == (out, ""), argv


def test_cli_verify_json_escapes_labels(tmp_path, capsys):
    ambient = '\xcb(1) "\xe4" \\ \t\U0001d53d'
    surgery = 'Y\u2014"n"\\ \u2028 \u2603'
    text = (f"ambient {shlex.quote(ambient)} e 4 sigma 0 basis S\n"
            f"assert label {shlex.quote(ambient)}\n"
            f"surgery {shlex.quote(surgery)} flags odd\n"
            f"assert label {shlex.quote(surgery)}\n"
            "assert label 'wrong \u2603'\n")
    path = tmp_path / '\xe9"q.plm'
    path.write_text(text, encoding="utf-8")
    report = run_scenario(parse_scenario(text, name='\xe9"q'))
    assert [r.actual for r in report.records] == [ambient, surgery, surgery]
    payload = {"scenarios": [report.to_json_obj()], "passed": 2, "total": 3}
    assert cli.main(["--json", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out.isascii() and "\\u2028" in out and "\\ud835\\udd3d" in out


def test_corpus_calls_every_homcalc_function_at_its_module_attribute(monkeypatch, capsys):
    # a tracer wraps each public function at its module attribute, so it sees a
    # call only if the caller looks the function up when it runs: a kind-table
    # entry that bound one when the table was built would leave it uncounted
    calls = {name: 0 for name, fn in vars(homcalc).items()
             if not name.startswith("_") and inspect.isfunction(fn)
             and fn.__module__ == homcalc.__name__}

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(homcalc, name, wrap(name, getattr(homcalc, name)))
    assert cli.main(["corpus"]) == 0
    capsys.readouterr()
    assert "rational_blowdown" in calls and "new_config" in calls
    assert min(calls.values()) >= 1, calls


def test_cli_verify_reports_failures(tmp_path, capsys):
    p = tmp_path / "bad.plm"
    p.write_text(MINIMAL.replace("assert chain C (-4)", "assert chain C (-5)"))
    assert cli.main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL chain C weights" in out
    assert "total: 2/3 assertions passed in 1 scenario(s)" in out


def test_cli_verify_multiple_files(tmp_path, capsys):
    a = tmp_path / "a.plm"
    b = tmp_path / "b.plm"
    a.write_text(MINIMAL)
    b.write_text(MINIMAL)
    assert cli.main(["verify", str(a), str(b)]) == 0
    assert "total: 6/6 assertions passed in 2 scenario(s)" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, b"\xff\xfe bad\n"], ids=["missing", "not-utf8"])
def test_cli_verify_missing_file(tmp_path, capsys, content):
    path = tmp_path / "nope.plm"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_cli_verify_reads_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "accent.plm"
    path.write_bytes(("# caf\u00e9\n" + MINIMAL).encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "blowdown.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_verify_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.plm"
    p.write_text("ambient X e 4 sigma 0 basis S\nblowdwn C label Y\n")
    assert cli.main(["verify", str(p)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {p}: line 2: unknown directive")


# U+2028 (LINE SEPARATOR) and \f end a line for str.splitlines, not for a scenario
MID_LINE_BREAKS = [
    ("ambient X e 4 sigma 0 basis S\n# see Fintushel\u2028Stern 1997\nassert euler 4\n", None),
    ("ambient X e 4 sigma 0 basis S\n# end of page\x0c\npair S S -4\npair S U 1\n",
     "line 4: unknown generator 'U'"),
]


@pytest.mark.parametrize("text,message", MID_LINE_BREAKS, ids=["u2028", "formfeed"])
def test_a_line_ends_only_at_a_newline_or_carriage_return(tmp_path, capsys, text, message):
    path = tmp_path / "breaks.plm"
    path.write_text(text, encoding="utf-8")
    if message is None:
        assert cli.main(["verify", str(path)]) == 0
    else:
        assert cli.main(["verify", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    # \r\n and \r end a line as \n does
    for newline in ("\n", "\r\n", "\r"):
        variant = text.replace("\n", newline)
        if message is None:
            assert [step.lineno for step in parse_scenario(variant).directives] == [1, 3]
        else:
            with pytest.raises(ScenarioError, match=f"^{message}$"):
                parse_scenario(variant)


BAD_DIRECTIVE = "ambient X e 4 sigma 0 basis S\nfrob\n"
BAD_STEP = (
    "ambient E e 12 sigma -8 basis S T\n"
    "pair S S -1\n"
    "pair S T 1\n"
    "sw ledger L e 12 sigma -8 fiber S knots twist(1)\n"
    "assert euler 12\n"
)


@pytest.mark.parametrize("text,message", [
    pytest.param(BAD_DIRECTIVE, "line 2: unknown directive", id="parse"),
    pytest.param(BAD_STEP, "line 4: fiber class squares to -1", id="step"),
])
def test_cli_verify_error_names_the_file_as_typed(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.plm").write_text(CORPUS["r"])
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.plm").write_text(text)
    assert cli.main(["verify", "good.plm", "sub/bad.plm"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: sub/bad.plm: {message}")


def test_cli_corpus_error_names_the_bundled_file(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_corpus_items", lambda: [("good", CORPUS["r"]),
                                                        ("broken", BAD_DIRECTIVE)])
    assert cli.main(["corpus"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: broken: line 2: unknown directive 'frob'")


def test_cli_usage_errors(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli.main(["hj", "7"]) == 2
    capsys.readouterr()


def test_print_scenario_quotes_whitespace():
    text = (
        'ambient "X Y" e 4 sigma 0 basis S\n'
        "pair S S -4\n"
        "assert label \"X Y\"\n"
    )
    s = parse_scenario(text)
    printed = print_scenario(s)
    assert '"X Y"' in printed
    assert parse_scenario(printed).directives == s.directives


@pytest.mark.parametrize("text", [
    'ambient "" e 4 sigma 0 basis S\nassert label ""\n',
    'ambient "#X" e 4 sigma 0 basis S\nassert label "#X"\n',
    'ambient "it\'s" e 4 sigma 0 basis S\nassert fingerprint "it\'s"\n',
    'ambient "a\\"b\\\\c" e 4 sigma 0 flags "f g" "x#y" basis "S T" U\nassert euler 4\n',
    'ambient X e 4 sigma 0 basis S\nsurgery Y flags "a b" c\nassert euler 4\n',
    'ambient X e 4 sigma 0 basis S\npair S S -4\ncurve c class S\nchain C = c\n'
    'blowdown C label ""\nassert label ""\n',
    'ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists a\nassert mcg-word-equal m aA\n',
    'ambient X e 4 sigma 0 basis "a b" S\npair "a b" "a b" -1\n'
    'sw ledger l e 4 sigma 0 fiber S knots none\nsw blowups m l "a b"\nassert euler 4\n',
    'ambient X e 4 sigma 0 basis S\nmcg m expected 1 twists b~(ab)^1000\n'
    'assert mcg-word-equal m (ab)^100000\n',
])
def test_parse_print_parse_round_trip(text):
    first = parse_scenario(text)
    printed = print_scenario(first)
    assert parse_scenario(printed).directives == first.directives
    assert print_scenario(parse_scenario(printed)) == printed


def test_scenario_module_reexports():
    assert scenario.run_scenario is run_scenario
    assert issubclass(ScenarioError, ValueError)
