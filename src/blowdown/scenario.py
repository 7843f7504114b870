"""Scenario files: a line-oriented format for sphere-configuration constructions.

A scenario declares an ambient lattice, builds curves through blow-ups and
smoothings, extracts plumbing chains, blows them down, and runs the
Seiberg-Witten ledger pipeline alongside, checking assertions as it goes.
Scenarios are plain text (one directive per line, `#` comments, shell-style
quoting), so the bundled corpus doubles as documentation.  A line ends at
`\\n`, `\\r\\n` or `\\r`, the breaks that reading a file in text mode turns
into `\\n`; other characters `str.splitlines` breaks at, such as `\\f` or
U+2028, stay inside their line as ordinary characters.  Every line is split
into the tokens `shlex.split(line, comments=True)` gives; `split_line` cuts a
line at its first `#` and splits it on spaces without shlex unless the line
holds a newline, or a quote, a backslash or a non-printable character before
that `#`.  shlex stays its oracle in the tests.  The printer double-quotes a
label, flag or basis name unless it is a plain word, escaping backslash and
double quote; declared names must be plain words without , or :.

Directives:

    ambient <label> e <int> sigma <int> [flags <f>...] basis <gen>...
    pair <gen> <gen> <int>                 # Gram entry (symmetric); before construction
    curve <name> class <lincomb> [genus <int>] [dp <int>]
    blowup <name> [at <curve>:<mult>,...] [doublepoint <curve>]   # before every chain
    smooth <new> <curve> <curve>           # before every chain
    surgery <label> [flags <f>...]         # knot-surgery relabel, lattice carried across
    chain <name> = <curve>,<curve>,...     # extracts and records the plumbing's weights
    blowdown <chain> [label <label>]       # blows down the recorded chain; drops the lattice
    mcg <name> expected <int> twists <spec>...   # spec: cycle[*mult][~conjword]
    sw ledger <name> e <int> sigma <int> fiber <lincomb> knots <twist(..),..|none>
    sw blowups <new> <ledger> <gen>...     # tracks the fiber T, then each <gen>
    sw blowdown <new> <ledger> <chain> vanishing-r vanishing-background [label <l>]
    sw chambered-blowdown <new> <ledger> <chain> [label <l>]
    assert <kind> <args>...

The flag list of `ambient` ends at the word `basis`, so neither its flags nor
its generators can be named `basis`.  In a class expression a name that is
both a generator and a curve, as a `blowup` name is, means the generator:
after `blowup E2 at E1:1`, `assert square-class E1 -1` reads the generator
and `assert square E1 -2` the curve, whose class is E1 - E2.

No `blowup` or `smooth` may follow a `chain`, so the lattice and curves a
chain was read from stay as they were: `blowdown` and `sw blowdown` use the
weights and sphere classes the `chain` directive recorded, paired in the live
lattice, and never read the chain again.  `blowdown` drops the curves and the
generators, so no line after it may name one, and `sw blowdown` must come
before it.  A ledger blow-down first needs its tracked classes to pair as
diag(0, -1, ..., -1) and its (e, sigma) to be the configuration's, the blow-up
formula's premises; a failure names the first bad pair or both (e, sigma).

Every line parses to one `Step(kind, args)`.  Its kind is a key of `_KINDS`:
the first word, or the first two for `sw` and `assert` lines.  Each entry
gives the line's syntax (keywords, and argument slots that read, check and
print one value each), the placement rules checked before any argument is
read, what the line declares to the parse checker, and what running it does;
`parse_scenario`, `print_directive` and `_Runner.run` are one loop each over
that table.  A line's slots and `declare(checker, *args)` raise a plain
ValueError, and `parse_scenario` prefixes it once with the line number.  The
printer leaves out an optional part at its default (`genus 0`, `dp 0`, an
empty flag list, no label).

Reports are byte-deterministic; parse(print(parse(text))) == parse(text).
"""

from __future__ import annotations

import re
import shlex
from collections import namedtuple

from . import hirzebruch, homcalc, mcg, swledger


class ScenarioError(ValueError):
    pass


Lincomb = tuple[tuple[int, str], ...]
_TERM = r"([+-]?)(?:(\d+)\*?)?([A-Za-z_][A-Za-z0-9_]*)"  # sign, coefficient, name


def parse_lincomb(text: str) -> Lincomb:
    s = text.replace(" ", "")
    if s.isascii() and s.isidentifier():  # one name, the usual case
        return ((1, s),)
    # terms, each followed by a sign or the end
    if re.fullmatch(r"(?:[+-]?(?:\d+\*?)?[A-Za-z_][A-Za-z0-9_]*(?=[+-]|$))+", s):
        return tuple((-int(c or 1) if sign == "-" else int(c or 1), name)
                     for sign, c, name in re.findall(_TERM, s))
    if not s:
        raise ValueError("empty class expression")
    # cut before every sign but a leading one: one of the pieces is a bad term
    bad = next(t for t in re.split(r"(?<!^)(?=[+-])", s) if not re.fullmatch(_TERM, t))
    raise ValueError(f"bad term {bad!r} in class expression {text!r}")


def lincomb_to_str(lc: Lincomb) -> str:
    parts = []
    for coef, name in lc:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        term = name if mag == 1 else f"{mag}*{name}"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += sign + term
    return out


def resolve_lincomb(lc: Lincomb, basis) -> tuple[int, ...]:
    vec = [0] * len(basis)
    index = {name: i for i, name in enumerate(basis)}
    for coef, name in lc:
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        vec[index[name]] += coef
    return tuple(vec)


class Step(namedtuple("Step", "kind args lineno", defaults=(0,))):
    """One scenario line: `kind` is a key of `_KINDS`, `args` the values its
    slots read, in order.  Equality and hash ignore `lineno`."""

    __slots__ = ()

    def __eq__(self, other):
        return self[:2] == other[:2] if isinstance(other, Step) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])


Scenario = namedtuple("Scenario", "name directives")


# --- parsing -----------------------------------------------------------------

class _Tokens:
    """The cursor `parse_scenario` moves along each line's tokens in turn."""

    def __init__(self):
        self.tokens: list[str] = []
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise ValueError(f"expected {what} at end of line") from None
        self.pos += 1
        return tok

    def take_name(self, what: str) -> str:
        """A declared name: printed bare, so it must read back as one plain token."""
        tok = self.take(what)
        # an identifier holds none of the characters searched for
        if not tok.isidentifier() and (not tok or re.search(r"[\s\"'\\#,:]", tok)):
            raise ValueError(f"bad {what} {tok!r} (no whitespace, "
                             "quotes, backslash, '#', ',' or ':')")
        return tok

    def take_int(self, what: str) -> int:
        tok = self.take(what)
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"expected {what}, got {tok!r}") from None

    def take_keyword(self, word: str):
        if self.peek() != word:
            tok = self.take(f"keyword {word!r}")
            raise ValueError(f"expected {word!r}, got {tok!r}")
        self.pos += 1


def _parse_twistspec(tok: str) -> mcg.Twist:
    m = re.fullmatch(r"([ab])(?:\*(\d+))?(?:~(\S+))?", tok)
    if not m:
        raise ValueError(f"bad twist spec {tok!r}")
    mult = int(m.group(2)) if m.group(2) else 1
    conj = mcg.parse_word(m.group(3)) if m.group(3) else ()
    return mcg.Twist(m.group(1), conj, mult)


def _show_twist(t: mcg.Twist) -> str:
    """cycle[*mult][~word], as `_parse_twistspec` reads it."""
    mult = f"*{t.multiplicity}" if t.multiplicity != 1 else ""
    return t.cycle + mult + (f"~{_WORD.show(t.conjugator)}" if t.conjugator else "")


def _parse_knots(tok: str) -> tuple[int | None, ...]:
    """Twist-knot parameters, None for the symbolic n."""
    if tok == "none":
        return ()
    out: list[int | None] = []
    for item in tok.split(","):
        m = re.fullmatch(r"twist\((n|-?\d+)\)", item)
        if not m:
            raise ValueError(f"bad knot spec {item!r} (use twist(n), twist(3), or none)")
        out.append(None if m.group(1) == "n" else int(m.group(1)))
    return tuple(out)


def _show_knots(knots) -> str:
    return ",".join("twist(n)" if k is None else f"twist({k})" for k in knots) or "none"


class _ParseChecker:
    """Static name tracking so references fail at parse time.

    The methods named after a kind check and record what its lines declare,
    once read; `seen` holds the kinds of the lines parsed so far.
    """

    def __init__(self):
        self.gens: set[str] = set()
        self.curves: set[str] = set()
        self.chains: set[str] = set()
        self.mcgs: set[str] = set()
        self.ledgers: set[str] = set()
        self.blowdown_ledgers: set[str] = set()
        self.seen: set[str] = set()  # read by the placement rules

    def need(self, cond: bool, msg: str):
        if not cond:
            raise ValueError(msg)

    def known(self, pool: str, name: str) -> str:
        """`name`, if it is in the set `pool`."""
        if name not in getattr(self, pool):
            if pool == "blowdown_ledgers":
                raise ValueError(f"ledger {name!r} is not a blow-down result")
            raise ValueError(f"unknown {_NOUNS[pool]} {name!r}")
        return name

    def ambient(self, _label, _e, _sigma, _flags, basis):
        self.need(bool(basis), "ambient needs at least one basis generator")
        self.need("basis" not in basis, "'basis' is reserved and cannot name a generator")
        self.need(len(set(basis)) == len(basis), "duplicate basis generator")
        self.gens.update(basis)

    def curve(self, name, _lc, genus, dp):
        self.need(genus >= 0, "genus must be >= 0")
        self.need(dp >= 0, "double-point count must be >= 0")
        self.curves.add(name)

    def blowup(self, name, *_):
        self.gens.add(name)
        self.curves.add(name)

    def smooth(self, name, c1, c2):
        if name in self.curves - {c1, c2}:
            raise ValueError(f"curve {name!r} already declared")
        self.curves -= {c1, c2}
        self.curves.add(name)

    def blowdown(self, *_):
        self.curves.clear()
        self.gens.clear()

    def mcg(self, name, _expected, twists):
        self.need(bool(twists), "mcg directive needs at least one twist")
        self.mcgs.add(name)

    def sw_blowups(self, name, _source, gens):
        self.need(bool(gens), "sw blowups needs at least one exceptional class")
        self.ledgers.add(name)

    def sw_blowdown(self, name, *_):
        self.ledgers.add(name)
        self.blowdown_ledgers.add(name)


def split_line(raw: str) -> list[str]:
    """The tokens of one line, exactly as `shlex.split(raw, comments=True)`.

    shlex starts a comment at any unquoted `#`, even mid-word, so a line with no
    newline, and whose text before its first `#` is printable and holds no quote
    or backslash, is cut there and split by `str.split()`: printable text holds
    no whitespace but the space.  Any other line goes to shlex, whose ValueError
    on an unclosed quote or trailing backslash propagates.
    """
    line = raw.split("#", 1)[0]
    if "'" in line or '"' in line or "\\" in line or "\n" in raw or not line.isprintable():
        return shlex.split(raw, comments=True)
    return line.split()


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    steps: list[Step] = []
    chk = _ParseChecker()
    t = _Tokens()

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        try:
            t.tokens = tokens = split_line(raw) if raw else []
            if not tokens:
                continue
            t.pos = 1
            head = kind = tokens[0]
            if head == "sw":
                kind = "sw " + t.take("sw directive")
            # two-word kinds are reached only through their first word
            if head != "assert" and (kind not in _KINDS or " " in head):
                raise ValueError(f"unknown directive {head!r}")
            if not steps and head != "ambient":
                raise ValueError("no ambient declared")
            if head == "assert":
                kind = "assert " + t.take("assertion kind")
                if kind not in _KINDS:
                    raise ValueError(f"unknown assertion kind {kind[7:]!r}")
            entry = _KINDS[kind]
            for kinds, message in entry.place:
                if not kinds.isdisjoint(chk.seen):
                    raise ValueError(message)
            args = []
            for part in entry.syntax:
                if part.__class__ is str:
                    t.take_keyword(part)
                else:
                    args.append(part.read(t, chk))
            if entry.declare is not None:
                entry.declare(chk, *args)
            if t.pos < len(tokens):
                raise ValueError(f"unexpected trailing token {tokens[t.pos]!r}")
            chk.seen.add(kind)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        steps.append(Step(kind, tuple(args), lineno))

    if not steps:
        raise ScenarioError("no ambient declared")
    last = steps[-1]
    if not last.kind.startswith("assert "):
        raise ScenarioError(f"line {last.lineno}: scenario must end with at least one assertion")
    return Scenario(name=name, directives=tuple(steps))


# --- printing ----------------------------------------------------------------

def _q(token: str) -> str:
    """Free text (labels, flags, basis names) as one token that reads back verbatim:
    double-quoted, with backslash and double quote escaped, unless it is a plain word."""
    if token and not any(ch.isspace() or ch in "\"'\\#" for ch in token):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def print_directive(step: Step) -> str:
    args = iter(step.args)
    words = [step.kind]
    for part in _KINDS[step.kind].syntax:
        words.append(part if part.__class__ is str else part.show(next(args)))
    return " ".join(w for w in words if w)


def print_scenario(s: Scenario) -> str:
    return "\n".join(print_directive(d) for d in s.directives) + "\n"


# --- running -----------------------------------------------------------------

AssertionRecord = namedtuple("AssertionRecord", "description expected actual passed")


class Report(namedtuple("Report", "scenario records")):
    __slots__ = ()

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario}"]
        for i, r in enumerate(self.records, start=1):
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"  [{i:>2}] {status} {r.description} | expected {r.expected} | actual {r.actual}"
            )
        lines.append(f"  summary: {self.passed}/{self.total} assertions passed")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "assertions": [
                {
                    "description": r.description,
                    "expected": r.expected,
                    "actual": r.actual,
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "passed": self.passed,
            "total": self.total,
        }


_ChainRec = namedtuple("_ChainRec", "weights classes")
_SwRec = namedtuple("_SwRec", "ledger tracked result", defaults=(None,))


class _Runner:
    """Runs the steps in order; the methods named after a kind run its lines."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.cfg: homcalc.CurveConfig | None = None
        self.chains: dict[str, _ChainRec] = {}
        self.mcgs: dict[str, mcg.FibrationReport] = {}
        self.sw: dict[str, _SwRec] = {}
        self.records: list[AssertionRecord] = []

    def run(self) -> Report:
        for step in self.scenario.directives:
            try:
                _KINDS[step.kind].run(self, *step.args)
            except (ValueError, KeyError) as exc:
                msg = exc.args[0] if exc.args else str(exc)
                raise ScenarioError(f"line {step.lineno}: {msg}") from exc
        return Report(scenario=self.scenario.name, records=tuple(self.records))

    def move(self, change, *args):
        """Replace the configuration by `change(configuration, *args)`."""
        self.cfg = change(self.cfg, *args)

    def _class_vec(self, lc: Lincomb) -> dict[str, int]:
        """Resolve a linear combination of generators and/or curve names."""
        vec: dict[str, int] = {}
        for coef, name in lc:
            if name in self.cfg.gram:
                terms = ((name, 1),)
            elif name in self.cfg.curves:
                terms = self.cfg.curve(name).cls.items()
            else:
                raise ValueError(f"unknown class name {name!r}")
            for g, x in terms:
                vec[g] = vec.get(g, 0) + coef * x
        return {g: x for g, x in vec.items() if x}

    def chain(self, name, curves):
        weights = homcalc.extract_chain(self.cfg, curves)
        self.chains[name] = _ChainRec(weights, tuple(self.cfg.curve(c).cls for c in curves))

    def mcg(self, name, expected, twists):
        self.mcgs[name] = mcg.verify_fibration(twists, expected)

    def check_tracked(self, basis, tracked):
        """The blow-up formula's premise: the live classes `tracked`, named by `basis`,
        pair as diag(0, -1, ..., -1).  A ValueError names the first pair that does not."""
        for i, row in enumerate(homcalc.pairing_table(self.cfg.gram, tracked, tracked)):
            want, got = -1 if i else 0, row.get(i, 0)
            if got != want:
                what = f"tracked class {basis[i]}" if i else "fiber class"
                raise ValueError(f"{what} squares to {got}, expected {want}")
            j = min((j for j in row if j > i), default=0)
            if j:
                raise ValueError(f"tracked pairing {basis[i]}.{basis[j]} = {row[j]}, expected 0")

    def sw_ledger(self, name, e, sigma, fiber, knots):
        tracked = (self._class_vec(fiber),)
        self.check_tracked(("T",), tracked)
        polys = [swledger.alexander_twist(k) for k in knots]
        ledger = swledger.knot_surgery_ledger(polys, label=name, e=e, sigma=sigma)
        self.sw[name] = _SwRec(ledger, tracked)

    def sw_blowups(self, name, source, gens):
        src = self.sw[source]
        ledger = swledger.blow_up_ledger(src.ledger, len(gens), gens)
        self.sw[name] = _SwRec(ledger, src.tracked + tuple({g: 1} for g in gens))

    def sw_blowdown(self, name, source, chain, label, chambered=False):
        """Pair the tracked classes with the recorded chain spheres in the live
        lattice, once they pass `check_tracked` and the ledger's (e, sigma) are
        the configuration's; either failure raises a ValueError."""
        (ledger, tracked, _), rec, cfg = self.sw[source], self.chains[chain], self.cfg
        self.check_tracked(ledger.basis, tracked)
        if (ledger.e, ledger.sigma) != (cfg.e, cfg.sigma):
            raise ValueError(f"ledger (e, sigma) is ({ledger.e}, {ledger.sigma}), "
                             f"the configuration's ({cfg.e}, {cfg.sigma})")
        pairings = [tuple(row.get(j, 0) for j in range(len(rec.classes)))
                    for row in homcalc.pairing_table(cfg.gram, tracked, rec.classes)]
        if chambered:
            result = swledger.chambered_blowdown_ledger(ledger, rec.weights, pairings, new_label=label)
        else:
            result = swledger.rational_blowdown_ledger(
                ledger, rec.weights, pairings, corrections=(True, True), new_label=label)
        self.sw[name] = _SwRec(result.ledger, tracked, result)


def run_scenario(s: Scenario) -> Report:
    return _Runner(s).run()


# --- the kind table ----------------------------------------------------------

class _Slot(namedtuple("_Slot", "read show", defaults=(str,))):
    """One argument: `read(tokens, checker)` takes it from the line, checking
    any name it refers to and raising a plain ValueError; `show(value)` prints
    it back, or gives "" for a part the printer leaves out.

    Package functions are looked up when a slot runs, not when it is built, so a
    wrapper installed on a module attribute sees the call.
    """

    __slots__ = ()


class _Kind(namedtuple("_Kind", "syntax run place declare", defaults=((), None))):
    """One kind of line.  `syntax` lists its keywords (strings) and argument
    slots in order; `place` holds (kinds, message) pairs, checked before the
    line is read, each failing if a line of one of `kinds` came before;
    `declare(checker, *args)` records what the line declares; `run(runner,
    *args)` runs it.  Reading and declaring raise plain ValueErrors, which
    `parse_scenario` prefixes once."""

    __slots__ = ()


_NOUNS = {"gens": "generator", "curves": "curve", "chains": "chain",
          "mcgs": "mcg report", "ledgers": "ledger"}


def _new(what: str, *pools: str) -> _Slot:
    """A name the line declares: a plain word in none of the checker's sets `pools`."""

    def read(t: _Tokens, chk: _ParseChecker) -> str:
        name = t.take_name(what)
        for pool in pools:
            if name in getattr(chk, pool):
                raise ValueError(f"{_NOUNS[pool]} {name!r} already declared")
        return name

    return _Slot(read)


def _known(what: str, pool: str, show=str) -> _Slot:
    """A name already declared in the checker's set `pool`."""
    return _Slot(lambda t, chk: chk.known(pool, t.take(what)), show)


def _text(what: str) -> _Slot:
    """One token of free text, quoted by the printer unless it is a plain word."""
    return _Slot(lambda t, chk: t.take(what), _q)


def _int(what: str) -> _Slot:
    return _Slot(lambda t, chk: t.take_int(what))


def _parsed(what: str, parse, show=str) -> _Slot:
    """One token read by `parse(token)`.  A package function goes in a lambda, so
    that it is looked up per call."""
    return _Slot(lambda t, chk: parse(t.take(what)), show)


def _opt(word: str, slot: _Slot, default=None) -> _Slot:
    """`[word <value>]`: the slot's value when the line goes on with `word`, else
    `default`, which the printer leaves out."""

    def read(t: _Tokens, chk: _ParseChecker):
        if t.peek() != word:
            return default
        t.pos += 1
        return slot.read(t, chk)

    return _Slot(read, lambda v: "" if v == default else f"{word} {slot.show(v)}")


def _list(item: _Slot, stop: str | None = None) -> _Slot:
    """Items up to the word `stop` or the end of the line, as a tuple."""

    def read(t: _Tokens, chk: _ParseChecker) -> tuple:
        out = []
        while t.peek() not in (None, stop):
            out.append(item.read(t, chk))
        return tuple(out)

    return _Slot(read, lambda items: " ".join(item.show(v) for v in items))


def _class(what: str) -> _Slot:
    """A class over the declared generators and curves."""

    def read(t: _Tokens, chk: _ParseChecker) -> Lincomb:
        lc = parse_lincomb(t.take(what))
        for _c, name in lc:
            if name not in chk.gens and name not in chk.curves:
                raise ValueError(f"unknown class {name!r}")
        return lc

    return _Slot(read, lambda lc: lincomb_to_str(lc))


def _read_curve_list(t: _Tokens, chk: _ParseChecker) -> tuple[str, ...]:
    return tuple(chk.known("curves", c) for c in t.take("curve list").split(","))


def _read_incidences(t: _Tokens, chk: _ParseChecker) -> tuple[tuple[str, int], ...]:
    at = []
    for item in t.take("incidence list").split(","):
        if ":" not in item:
            raise ValueError(f"bad incidence {item!r} (use curve:mult)")
        cname, _, mult_s = item.partition(":")
        try:
            mult = int(mult_s)
        except ValueError:
            raise ValueError(f"bad multiplicity in {item!r}") from None
        at.append((chk.known("curves", cname), mult))
    return tuple(at)


def _read_values(tok: str) -> tuple[swledger.LinExpr, ...]:
    return tuple(sorted(swledger.parse_linexpr(v) for v in tok.split(",")))


_CHAIN = _known("chain name", "chains")
_CURVE = _known("curve name", "curves")
_GEN = _known("generator", "gens", _q)
_MCG = _known("mcg report name", "mcgs")
_LEDGER = _known("ledger name", "ledgers")
_SOURCE = _known("source ledger", "ledgers")
_BLOWN_DOWN = _known("ledger name", "blowdown_ledgers")
_CLASS = _class("class expression")
# Ledger classes are over the ledger's own basis, which is only known at run time.
_LEDGER_CLASS = _parsed("class expression", lambda s: parse_lincomb(s),
                        lambda lc: lincomb_to_str(lc))
_WORD = _parsed("word", lambda s: mcg.parse_word(s),
                lambda w: mcg.word_to_str(w).replace(" ", ""))
_VALUE = _parsed("value", lambda s: swledger.parse_linexpr(s),
                 lambda v: str(v).replace(" ", ""))
_VALUES = _parsed("value set", _read_values, lambda vs: ",".join(_VALUE.show(v) for v in vs))
_LABEL = _text("label")
_FINGERPRINT = _parsed("fingerprint string or none", lambda s: None if s == "none" else s,
                       lambda s: "none" if s is None else _q(s))
_GENS = _list(_text("generator"))
_DROPPED = (frozenset({"blowdown"}), "curve data was dropped by the blow-down")


def _weights(what: str) -> _Slot:
    return _parsed(what, lambda s: hirzebruch.parse_chain(s),
                   lambda w: hirzebruch.chain_to_str(w))


def _equal(description: str, expected, actual, show=str) -> AssertionRecord:
    return AssertionRecord(description, show(expected), show(actual), actual == expected)


def _check_square_class(run: _Runner, lc: Lincomb, expected: int) -> AssertionRecord:
    vec = run._class_vec(lc)
    return _equal(f"square of class {lincomb_to_str(lc)}", expected,
                  homcalc.pair_vectors(run.cfg.gram, vec, vec))


def _check_mcg_pass(run: _Runner, name: str) -> AssertionRecord:
    rep = run.mcgs[name]
    actual = ("pass" if rep.passed
              else f"fail (identity={rep.is_identity}, twists={rep.twist_count})")
    return _equal(f"mcg {name} verifies as a fibration word", "pass", actual)


def _check_mcg_cycles(run: _Runner, name: str, i: int, j: int) -> AssertionRecord:
    cycles = run.mcgs[name].cycles
    description = f"mcg {name} vanishing cycles {i} and {j} isotopic"
    if not (1 <= i <= len(cycles) and 1 <= j <= len(cycles)):
        return AssertionRecord(description, "equal",
                               f"index out of range (1..{len(cycles)})", False)
    ci, cj = cycles[i - 1], cycles[j - 1]
    return AssertionRecord(description, "equal", f"{ci} vs {cj}", ci == cj)


def _check_mcg_word(run: _Runner, name: str, word: mcg.Word) -> AssertionRecord:
    rep = run.mcgs[name]
    ok = mcg.words_equal_in_group(rep.word, word)
    actual = "equal" if ok else f"distinct (word is {mcg.word_to_str(rep.word)})"
    return _equal(f"mcg {name} word equals {_WORD.show(word)} in the group", "equal", actual)


def _sw_class_check(description: str, lookup, show=str):
    """The check of a per-class ledger assertion: `lookup(sw record, class vector)`
    gives the actual value, and a class the ledger does not hold reads `absent`.
    `description` is formatted with the ledger name and the class."""

    def check(run: _Runner, name: str, lc: Lincomb, expected) -> AssertionRecord:
        rec = run.sw[name]
        desc = description.format(name, lincomb_to_str(lc))
        try:
            actual = lookup(rec, resolve_lincomb(lc, rec.ledger.basis))
        except KeyError:
            return AssertionRecord(desc, show(expected), "absent", False)
        return _equal(desc, expected, actual, show)

    return check


_check_unverified = _sw_class_check(
    "sw {} entry {} marked unverified",
    lambda rec, vec: "verified" if rec.ledger.entry(vec).verified else "unverified",
)


def _assertion(slots: tuple[_Slot, ...], check) -> _Kind:
    """An assertion kind: running it records `check(runner, *args)`."""
    return _Kind(slots, lambda run, *args: run.records.append(check(run, *args)))


_KINDS: dict[str, _Kind] = {
    "ambient": _Kind(
        (_text("manifold label"), "e", _int("Euler characteristic"), "sigma", _int("signature"),
         _opt("flags", _list(_text("flag"), stop="basis"), ()), "basis", _GENS),
        lambda run, *args: setattr(run, "cfg", homcalc.new_config(*args)),
        ((frozenset({"ambient"}), "duplicate ambient declaration"),),
        _ParseChecker.ambient),
    "pair": _Kind(
        (_GEN, _GEN, _int("pairing value")),
        lambda run, *args: run.move(homcalc.set_pairing, *args),
        ((frozenset({"curve", "blowup", "smooth", "surgery"}),
          "pair must precede construction steps"),)),
    "curve": _Kind(
        (_new("curve name", "curves"), "class", _CLASS,
         _opt("genus", _int("genus"), 0), _opt("dp", _int("double-point count"), 0)),
        lambda run, name, lc, genus, dp: run.move(
            homcalc.add_curve, homcalc.Curve(name, run._class_vec(lc), genus, dp)),
        (_DROPPED,), _ParseChecker.curve),
    "blowup": _Kind(
        (_new("exceptional name", "gens", "curves"),
         _opt("at", _Slot(_read_incidences, lambda at: ",".join(f"{c}:{m}" for c, m in at)), ()),
         _opt("doublepoint", _CURVE)),
        lambda run, *args: run.move(homcalc.blow_up, *args),
        ((frozenset({"blowdown"}), "cannot blow up after the blow-down"),
         (frozenset({"chain"}), "blowup must precede every chain")), _ParseChecker.blowup),
    "smooth": _Kind(
        (_Slot(lambda t, chk: t.take_name("new curve name")), _CURVE, _CURVE),
        lambda run, *args: run.move(homcalc.smooth, *args),
        ((frozenset({"blowdown"}), "cannot smooth after the blow-down"),
         (frozenset({"chain"}), "smooth must precede every chain")), _ParseChecker.smooth),
    "surgery": _Kind(
        (_text("manifold label"), _opt("flags", _list(_text("flag")), ())),
        lambda run, *args: run.move(homcalc.knot_surgery_shadow, *args),
        ((frozenset({"blowdown"}), "cannot relabel after the blow-down"),)),
    "chain": _Kind(
        (_new("chain name", "chains"), "=", _Slot(_read_curve_list, ",".join)),
        _Runner.chain, (_DROPPED,), lambda chk, name, curves: chk.chains.add(name)),
    "blowdown": _Kind(
        (_CHAIN, _opt("label", _text("manifold label"))),
        lambda run, chain, label: run.move(
            homcalc.rational_blowdown, run.chains[chain].weights, label),
        ((frozenset({"blowdown"}), "already blown down"),), _ParseChecker.blowdown),
    "mcg": _Kind(
        (_new("report name", "mcgs"), "expected", _int("expected twist count"),
         "twists", _list(_parsed("twist spec", _parse_twistspec, _show_twist))),
        _Runner.mcg, declare=_ParseChecker.mcg),
    "sw ledger": _Kind(
        (_new("ledger name", "ledgers"), "e", _int("Euler characteristic"),
         "sigma", _int("signature"), "fiber", _class("fiber class"),
         "knots", _parsed("knot list", _parse_knots, _show_knots)),
        _Runner.sw_ledger, declare=lambda chk, name, *_: chk.ledgers.add(name)),
    "sw blowups": _Kind(
        (_new("ledger name", "ledgers"), _SOURCE, _list(_GEN)),
        _Runner.sw_blowups, declare=_ParseChecker.sw_blowups),
    "sw blowdown": _Kind(
        (_new("ledger name", "ledgers"), _SOURCE, _CHAIN, "vanishing-r", "vanishing-background",
         _opt("label", _text("manifold label"))),
        _Runner.sw_blowdown, (_DROPPED,), _ParseChecker.sw_blowdown),
    "sw chambered-blowdown": _Kind(
        (_new("ledger name", "ledgers"), _SOURCE, _CHAIN, _opt("label", _text("manifold label"))),
        lambda run, *args: run.sw_blowdown(*args, chambered=True),
        (_DROPPED,), _ParseChecker.sw_blowdown),
    "assert chain": _assertion((_CHAIN, _weights("weights")), lambda run, name, weights: _equal(
        f"chain {name} weights", weights, run.chains[name].weights,
        lambda w: hirzebruch.chain_to_str(w))),
    "assert identify": _assertion((_CHAIN, _int("p"), _int("q")), lambda run, name, p, q: _equal(
        f"chain {name} identified", (p, q), hirzebruch.identify_cpq(run.chains[name].weights),
        lambda pq: f"C_{{{pq[0]},{pq[1]}}}" if pq else "none")),
    "assert euler": _assertion((_int("integer"),), lambda run, e: _equal(
        "euler characteristic", e, run.cfg.e)),
    "assert signature": _assertion((_int("integer"),), lambda run, sigma: _equal(
        "signature", sigma, run.cfg.sigma)),
    "assert label": _assertion((_LABEL,), lambda run, label: _equal(
        "manifold label", label, run.cfg.label)),
    "assert fingerprint": _assertion((_FINGERPRINT,), lambda run, fp: _equal(
        "homeomorphism fingerprint", fp, homcalc.homeo_fingerprint(run.cfg),
        lambda s: "none" if s is None else s)),
    "assert pairing": _assertion(
        (_CURVE, _CURVE, _int("pairing value")), lambda run, c1, c2, n: _equal(
            f"pairing {c1}.{c2}", n, homcalc.pairing(run.cfg, c1, c2))),
    "assert square": _assertion((_CURVE, _int("integer")), lambda run, c, n: _equal(
        f"square of {c}", n, homcalc.square(run.cfg, c))),
    "assert square-class": _assertion((_CLASS, _int("integer")), _check_square_class),
    "assert dp": _assertion((_CURVE, _int("integer")), lambda run, c, n: _equal(
        f"double points of {c}", n, run.cfg.curve(c).double_points)),
    "assert mcg-pass": _assertion((_MCG,), _check_mcg_pass),
    "assert mcg-cycles-equal": _assertion(
        (_MCG, _int("twist index"), _int("twist index")), _check_mcg_cycles),
    "assert mcg-word-equal": _assertion((_MCG, _WORD), _check_mcg_word),
    "assert sw-entries": _assertion((_LEDGER, _int("entry count")), lambda run, name, n: _equal(
        f"sw {name} entry count", n, swledger.entry_count(run.sw[name].ledger))),
    "assert sw-value": _assertion((_LEDGER, _LEDGER_CLASS, _VALUE), _sw_class_check(
        "sw {} value at {}", lambda rec, vec: rec.ledger.entry(vec).value)),
    "assert sw-value-set": _assertion((_BLOWN_DOWN, _LEDGER_CLASS, _VALUES), _sw_class_check(
        "sw {} value set at {}", lambda rec, vec: tuple(sorted(rec.result.value_set_of(vec))),
        lambda vs: ", ".join(str(v) for v in vs))),
    "assert sw-unverified": _assertion((_LEDGER, _LEDGER_CLASS), lambda run, name, lc:
                                       _check_unverified(run, name, lc, "unverified")),
    "assert sw-restriction": _assertion(
        (_BLOWN_DOWN, _LEDGER_CLASS, _weights("restriction vector")),
        _sw_class_check("sw {} restriction of {}", lambda rec, vec: rec.result.restriction_of(vec),
                        lambda w: hirzebruch.chain_to_str(w))),
    "assert sw-minimal": _assertion((_BLOWN_DOWN, _int("concrete n")), lambda run, name, n: _equal(
        f"sw {name} minimality at n={n}", True,
        swledger.minimality_report(swledger.substitute(run.sw[name].ledger, n)),
        lambda ok: "minimal" if ok else "not established")),
}
