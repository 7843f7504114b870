"""Scenario files: a line-oriented format for sphere-configuration constructions.

A scenario declares an ambient lattice, builds curves through blow-ups and
smoothings, extracts plumbing chains, blows them down, and runs the
Seiberg-Witten ledger pipeline alongside, checking assertions as it goes.
Scenarios are plain text (one directive per line, `#` comments, shell-style
quoting), so the bundled corpus doubles as documentation.  Every line is split
into the tokens `shlex.split(line, comments=True)` gives; `split_line` takes a
plain line (no quote, backslash or newline) apart without shlex, cutting it at
the first `#` and splitting on space, tab and carriage return, and shlex stays
its oracle in the tests.  The printer double-quotes a label, flag or basis
name unless it is a plain word, escaping backslash and double quote; declared
names must be plain words without , or :.

Directives:

    ambient <label> e <int> sigma <int> [flags <f>...] basis <gen>...
    pair <gen> <gen> <int>                 # Gram entry (symmetric); before construction
    curve <name> class <lincomb> [genus <int>] [dp <int>]
    blowup <name> [at <curve>:<mult>,...] [doublepoint <curve>]   # before every chain
    smooth <new> <curve> <curve>           # before every chain
    surgery <label> [flags <f>...]         # knot-surgery relabel, lattice carried across
    chain <name> = <curve>,<curve>,...     # extracts and records the plumbing's weights
    blowdown <chain> [label <label>]       # blows down the recorded chain; drops curve data
    mcg <name> expected <int> twists <spec>...   # spec: cycle[*mult][~conjword]
    sw ledger <name> e <int> sigma <int> fiber <lincomb> knots <twist(..),..|none>
    sw blowups <new> <ledger> <gen>...
    sw blowdown <new> <ledger> <chain> vanishing-r vanishing-background [label <l>]
    sw chambered-blowdown <new> <ledger> <chain> [label <l>]
    assert <kind> <args>...

The flag list of `ambient` ends at the word `basis`, so neither its flags nor
its generators can be named `basis`.

No `blowup` or `smooth` may follow a `chain`, so the lattice and curves a
chain was read from stay as they were: `blowdown` and `sw blowdown` use the
weights and sphere classes the `chain` directive recorded, paired in the live
lattice, and never read the chain again.

The assertion kinds are the keys of `_ASSERTIONS`, which gives each kind's
argument slots (how each argument is read, checked and printed) and its check.

Reports are byte-deterministic; parse(print(parse(text))) == parse(text).
"""

from __future__ import annotations

import functools
import re
import shlex
from dataclasses import dataclass, field
from typing import Any, Callable

from . import hirzebruch, homcalc, mcg, swledger


class ScenarioError(ValueError):
    pass


Lincomb = tuple[tuple[int, str], ...]


def parse_lincomb(text: str) -> Lincomb:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty class expression")
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0:
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    out = []
    for term in terms:
        m = re.fullmatch(r"([+-]?)(?:(\d+)\*?)?([A-Za-z_][A-Za-z0-9_]*)", term)
        if not m:
            raise ValueError(f"bad term {term!r} in class expression {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        out.append((sign * coef, m.group(3)))
    return tuple(out)


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


# --- directive records -------------------------------------------------------

@dataclass(frozen=True)
class AmbientDecl:
    label: str
    e: int
    sigma: int
    flags: tuple[str, ...]
    basis: tuple[str, ...]
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PairDecl:
    g1: str
    g2: str
    value: int
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CurveDecl:
    name: str
    cls: Lincomb
    genus: int
    dp: int
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BlowupStep:
    name: str
    at: tuple[tuple[str, int], ...]
    doublepoint: str | None
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SmoothStep:
    name: str
    c1: str
    c2: str
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SurgeryStep:
    label: str
    flags: tuple[str, ...]
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ChainDecl:
    name: str
    curves: tuple[str, ...]
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BlowdownStep:
    chain: str
    label: str | None
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class TwistSpec:
    cycle: str
    multiplicity: int
    conjugator: mcg.Word

    def to_twist(self) -> mcg.Twist:
        return mcg.Twist(self.cycle, self.conjugator, self.multiplicity)

    def __str__(self) -> str:
        out = self.cycle
        if self.multiplicity != 1:
            out += f"*{self.multiplicity}"
        if self.conjugator:
            out += f"~{_WORD.show(self.conjugator)}"
        return out


@dataclass(frozen=True)
class McgStep:
    name: str
    expected: int
    twists: tuple[TwistSpec, ...]
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SwLedgerStep:
    name: str
    e: int
    sigma: int
    fiber: Lincomb
    knots: tuple[int | None, ...]  # None = symbolic n
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SwBlowupsStep:
    name: str
    source: str
    gens: tuple[str, ...]
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SwBlowdownStep:
    name: str
    source: str
    chain: str
    chambered: bool
    label: str | None
    lineno: int = field(compare=False, default=0)


@dataclass(frozen=True)
class AssertStep:
    kind: str
    args: tuple
    lineno: int = field(compare=False, default=0)


Directive = (
    AmbientDecl | PairDecl | CurveDecl | BlowupStep | SmoothStep | SurgeryStep
    | ChainDecl | BlowdownStep | McgStep | SwLedgerStep | SwBlowupsStep
    | SwBlowdownStep | AssertStep
)


@dataclass(frozen=True)
class Scenario:
    name: str
    directives: tuple[Directive, ...]


# --- parsing -----------------------------------------------------------------

class _Tokens:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self):
        return self.tokens[self.pos] if not self.done() else None

    def take(self, what: str) -> str:
        if self.done():
            raise ScenarioError(f"line {self.lineno}: expected {what} at end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_name(self, what: str) -> str:
        """A declared name: printed bare, so it must read back as one plain token."""
        tok = self.take(what)
        if not tok or any(ch.isspace() or ch in "\"'\\#,:" for ch in tok):
            raise ScenarioError(f"line {self.lineno}: bad {what} {tok!r} (no whitespace, "
                                "quotes, backslash, '#', ',' or ':')")
        return tok

    def take_int(self, what: str) -> int:
        tok = self.take(what)
        try:
            return int(tok)
        except ValueError:
            raise ScenarioError(f"line {self.lineno}: expected {what}, got {tok!r}") from None

    def take_parsed(self, what: str, parse):
        """Take a token and parse it; a ValueError from `parse` is reported at this line."""
        tok = self.take(what)
        try:
            return parse(tok)
        except ValueError as exc:
            raise ScenarioError(f"line {self.lineno}: {exc}") from None

    def take_keyword(self, word: str):
        tok = self.take(f"keyword {word!r}")
        if tok != word:
            raise ScenarioError(f"line {self.lineno}: expected {word!r}, got {tok!r}")

    def optional(self, word: str, what: str) -> str | None:
        """The token after keyword `word` when the line continues with it, else None."""
        if self.peek() != word:
            return None
        self.pos += 1
        return self.take(what)

    def rest(self) -> list[str]:
        out = self.tokens[self.pos:]
        self.pos = len(self.tokens)
        return out

    def end(self):
        if not self.done():
            raise ScenarioError(
                f"line {self.lineno}: unexpected trailing token {self.tokens[self.pos]!r}"
            )


def _parse_twistspec(tok: str, lineno: int) -> TwistSpec:
    m = re.fullmatch(r"([ab])(?:\*(\d+))?(?:~(\S+))?", tok)
    if not m:
        raise ScenarioError(f"line {lineno}: bad twist spec {tok!r}")
    mult = int(m.group(2)) if m.group(2) else 1
    conj: mcg.Word = ()
    if m.group(3):
        try:
            conj = mcg.parse_word(m.group(3))
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
    return TwistSpec(cycle=m.group(1), multiplicity=mult, conjugator=conj)


def _parse_knots(tok: str, lineno: int) -> tuple[int | None, ...]:
    if tok == "none":
        return ()
    out: list[int | None] = []
    for item in tok.split(","):
        m = re.fullmatch(r"twist\((n|-?\d+)\)", item)
        if not m:
            raise ScenarioError(
                f"line {lineno}: bad knot spec {item!r} (use twist(n), twist(3), or none)"
            )
        out.append(None if m.group(1) == "n" else int(m.group(1)))
    return tuple(out)


class _ParseChecker:
    """Static name tracking so references fail at parse time, with a location."""

    def __init__(self):
        self.gens: set[str] = set()
        self.curves: set[str] = set()
        self.chains: set[str] = set()
        self.mcgs: set[str] = set()
        self.ledgers: set[str] = set()
        self.blowdown_ledgers: set[str] = set()
        self.have_ambient = False
        self.construction_started = False
        self.blown_down = False

    def need(self, cond: bool, lineno: int, msg: str):
        if not cond:
            raise ScenarioError(f"line {lineno}: {msg}")

    def need_curve(self, name: str, lineno: int):
        self.need(name in self.curves, lineno, f"unknown curve {name!r}")

    def need_gen(self, name: str, lineno: int):
        self.need(name in self.gens, lineno, f"unknown generator {name!r}")

    def need_lincomb(self, lc: Lincomb, lineno: int):
        for _c, name in lc:
            self.need(name in self.gens or name in self.curves, lineno,
                      f"unknown class {name!r}")


def split_line(raw: str) -> list[str]:
    """The tokens of one line, exactly as `shlex.split(raw, comments=True)`.

    A plain line (no quote, backslash or newline) is cut at its first `#` and
    split on shlex's whitespace, space, tab and carriage return; `str.split()`
    would also split on characters such as \\x1f and \\xa0.  Any other line
    goes to shlex itself, whose ValueError on an unclosed quote or a trailing
    backslash propagates.
    """
    if "'" in raw or '"' in raw or "\\" in raw or "\n" in raw:
        return shlex.split(raw, comments=True)
    line = raw.split("#", 1)[0]
    if "\t" in line or "\r" in line:
        line = line.replace("\t", " ").replace("\r", " ")
    return [tok for tok in line.split(" ") if tok]


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    directives: list[Directive] = []
    chk = _ParseChecker()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = split_line(raw)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        t = _Tokens(rest, lineno)
        if head == "sw":
            sub = t.take("sw directive")
            head = f"sw {sub}"
        builder = _DIRECTIVE_PARSERS.get(head)
        if builder is None:
            raise ScenarioError(f"line {lineno}: unknown directive {tokens[0]!r}")
        chk.need(head == "ambient" or chk.have_ambient, lineno, "no ambient declared")
        directives.append(builder(t, chk, lineno))
        t.end()

    if not directives:
        raise ScenarioError("no ambient declared")
    last = directives[-1]
    chk.need(isinstance(last, AssertStep), last.lineno,
             "scenario must end with at least one assertion")
    return Scenario(name=name, directives=tuple(directives))


def _parse_ambient(t: _Tokens, chk: _ParseChecker, lineno: int) -> AmbientDecl:
    chk.need(not chk.have_ambient, lineno, "duplicate ambient declaration")
    label = t.take("manifold label")
    t.take_keyword("e")
    e = t.take_int("Euler characteristic")
    t.take_keyword("sigma")
    sigma = t.take_int("signature")
    flags: list[str] = []
    if t.peek() == "flags":
        t.take("flags")
        while t.peek() not in (None, "basis"):
            flags.append(t.take("flag"))
    t.take_keyword("basis")
    basis = t.rest()
    chk.need(bool(basis), lineno, "ambient needs at least one basis generator")
    chk.need("basis" not in basis, lineno, "'basis' is reserved and cannot name a generator")
    chk.need(len(set(basis)) == len(basis), lineno, "duplicate basis generator")
    chk.gens.update(basis)
    chk.have_ambient = True
    return AmbientDecl(label, e, sigma, tuple(flags), tuple(basis), lineno)


def _parse_pair(t: _Tokens, chk: _ParseChecker, lineno: int) -> PairDecl:
    chk.need(not chk.construction_started, lineno, "pair must precede construction steps")
    g1 = t.take("generator")
    g2 = t.take("generator")
    chk.need_gen(g1, lineno)
    chk.need_gen(g2, lineno)
    value = t.take_int("pairing value")
    return PairDecl(g1, g2, value, lineno)


def _parse_curve(t: _Tokens, chk: _ParseChecker, lineno: int) -> CurveDecl:
    chk.need(not chk.blown_down, lineno, "curve data was dropped by the blow-down")
    name = t.take_name("curve name")
    chk.need(name not in chk.curves, lineno, f"curve {name!r} already declared")
    t.take_keyword("class")
    lc = t.take_parsed("class expression", parse_lincomb)
    chk.need_lincomb(lc, lineno)
    genus = 0
    dp = 0
    if t.peek() == "genus":
        t.take("genus")
        genus = t.take_int("genus")
    if t.peek() == "dp":
        t.take("dp")
        dp = t.take_int("double-point count")
    chk.need(genus >= 0, lineno, "genus must be >= 0")
    chk.need(dp >= 0, lineno, "double-point count must be >= 0")
    chk.curves.add(name)
    chk.construction_started = True
    return CurveDecl(name, lc, genus, dp, lineno)


def _parse_blowup(t: _Tokens, chk: _ParseChecker, lineno: int) -> BlowupStep:
    chk.need(not chk.blown_down, lineno, "cannot blow up after the blow-down")
    chk.need(not chk.chains, lineno, "blowup must precede every chain")
    name = t.take_name("exceptional name")
    chk.need(name not in chk.gens, lineno, f"generator {name!r} already declared")
    chk.need(name not in chk.curves, lineno, f"curve {name!r} already declared")
    at: list[tuple[str, int]] = []
    if t.peek() == "at":
        t.take("at")
        spec = t.take("incidence list")
        for item in spec.split(","):
            if ":" not in item:
                raise ScenarioError(f"line {lineno}: bad incidence {item!r} (use curve:mult)")
            cname, _, mult_s = item.partition(":")
            try:
                mult = int(mult_s)
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad multiplicity in {item!r}") from None
            chk.need_curve(cname, lineno)
            at.append((cname, mult))
    doublepoint = t.optional("doublepoint", "curve name")
    if doublepoint is not None:
        chk.need_curve(doublepoint, lineno)
    chk.gens.add(name)
    chk.curves.add(name)
    chk.construction_started = True
    return BlowupStep(name, tuple(at), doublepoint, lineno)


def _parse_smooth(t: _Tokens, chk: _ParseChecker, lineno: int) -> SmoothStep:
    chk.need(not chk.blown_down, lineno, "cannot smooth after the blow-down")
    chk.need(not chk.chains, lineno, "smooth must precede every chain")
    name = t.take_name("new curve name")
    c1 = t.take("curve name")
    c2 = t.take("curve name")
    chk.need_curve(c1, lineno)
    chk.need_curve(c2, lineno)
    chk.need(name not in chk.curves - {c1, c2}, lineno, f"curve {name!r} already declared")
    chk.curves.discard(c1)
    chk.curves.discard(c2)
    chk.curves.add(name)
    chk.construction_started = True
    return SmoothStep(name, c1, c2, lineno)


def _parse_surgery(t: _Tokens, chk: _ParseChecker, lineno: int) -> SurgeryStep:
    chk.need(not chk.blown_down, lineno, "cannot relabel after the blow-down")
    label = t.take("manifold label")
    flags: list[str] = []
    if t.peek() == "flags":
        t.take("flags")
        flags = t.rest()
    chk.construction_started = True
    return SurgeryStep(label, tuple(flags), lineno)


def _parse_chain(t: _Tokens, chk: _ParseChecker, lineno: int) -> ChainDecl:
    chk.need(not chk.blown_down, lineno, "curve data was dropped by the blow-down")
    name = t.take_name("chain name")
    chk.need(name not in chk.chains, lineno, f"chain {name!r} already declared")
    t.take_keyword("=")
    curves = tuple(t.take("curve list").split(","))
    for c in curves:
        chk.need_curve(c, lineno)
    chk.chains.add(name)
    return ChainDecl(name, curves, lineno)


def _parse_blowdown(t: _Tokens, chk: _ParseChecker, lineno: int) -> BlowdownStep:
    chk.need(not chk.blown_down, lineno, "already blown down")
    chain = t.take("chain name")
    chk.need(chain in chk.chains, lineno, f"unknown chain {chain!r}")
    label = t.optional("label", "manifold label")
    chk.blown_down = True
    chk.curves.clear()
    return BlowdownStep(chain, label, lineno)


def _parse_mcg(t: _Tokens, chk: _ParseChecker, lineno: int) -> McgStep:
    name = t.take_name("report name")
    chk.need(name not in chk.mcgs, lineno, f"mcg report {name!r} already declared")
    t.take_keyword("expected")
    expected = t.take_int("expected twist count")
    t.take_keyword("twists")
    specs = tuple(_parse_twistspec(tok, lineno) for tok in t.rest())
    chk.need(bool(specs), lineno, "mcg directive needs at least one twist")
    chk.mcgs.add(name)
    return McgStep(name, expected, specs, lineno)


def _parse_sw_ledger(t: _Tokens, chk: _ParseChecker, lineno: int) -> SwLedgerStep:
    name = t.take_name("ledger name")
    chk.need(name not in chk.ledgers, lineno, f"ledger {name!r} already declared")
    t.take_keyword("e")
    e = t.take_int("Euler characteristic")
    t.take_keyword("sigma")
    sigma = t.take_int("signature")
    t.take_keyword("fiber")
    fiber = t.take_parsed("fiber class", parse_lincomb)
    chk.need_lincomb(fiber, lineno)
    t.take_keyword("knots")
    knots = _parse_knots(t.take("knot list"), lineno)
    chk.ledgers.add(name)
    return SwLedgerStep(name, e, sigma, fiber, knots, lineno)


def _parse_sw_blowups(t: _Tokens, chk: _ParseChecker, lineno: int) -> SwBlowupsStep:
    name = t.take_name("ledger name")
    chk.need(name not in chk.ledgers, lineno, f"ledger {name!r} already declared")
    source = t.take("source ledger")
    chk.need(source in chk.ledgers, lineno, f"unknown ledger {source!r}")
    gens = tuple(t.rest())
    chk.need(bool(gens), lineno, "sw blowups needs at least one exceptional class")
    for g in gens:
        chk.need_gen(g, lineno)
    chk.ledgers.add(name)
    return SwBlowupsStep(name, source, gens, lineno)


def _parse_sw_blowdown(
    t: _Tokens, chk: _ParseChecker, lineno: int, chambered: bool = False
) -> SwBlowdownStep:
    name = t.take_name("ledger name")
    chk.need(name not in chk.ledgers, lineno, f"ledger {name!r} already declared")
    source = t.take("source ledger")
    chk.need(source in chk.ledgers, lineno, f"unknown ledger {source!r}")
    chain = t.take("chain name")
    chk.need(chain in chk.chains, lineno, f"unknown chain {chain!r}")
    if not chambered:
        t.take_keyword("vanishing-r")
        t.take_keyword("vanishing-background")
    label = t.optional("label", "manifold label")
    chk.ledgers.add(name)
    chk.blowdown_ledgers.add(name)
    return SwBlowdownStep(name, source, chain, chambered, label, lineno)


def _parse_assert(t: _Tokens, chk: _ParseChecker, lineno: int) -> AssertStep:
    kind = t.take("assertion kind")
    if kind not in _ASSERTIONS:
        raise ScenarioError(f"line {lineno}: unknown assertion kind {kind!r}")
    slots, _check = _ASSERTIONS[kind]
    return AssertStep(kind, tuple(slot.read(t, chk) for slot in slots), lineno)


_DIRECTIVE_PARSERS = {
    "ambient": _parse_ambient,
    "pair": _parse_pair,
    "curve": _parse_curve,
    "blowup": _parse_blowup,
    "smooth": _parse_smooth,
    "surgery": _parse_surgery,
    "chain": _parse_chain,
    "blowdown": _parse_blowdown,
    "mcg": _parse_mcg,
    "sw ledger": _parse_sw_ledger,
    "sw blowups": _parse_sw_blowups,
    "sw blowdown": _parse_sw_blowdown,
    "sw chambered-blowdown": functools.partial(_parse_sw_blowdown, chambered=True),
    "assert": _parse_assert,
}


# --- printing ----------------------------------------------------------------

def _q(token: str) -> str:
    """Free text (labels, flags, basis names) as one token that reads back verbatim:
    double-quoted, with backslash and double quote escaped, unless it is a plain word."""
    if token and not any(ch.isspace() or ch in "\"'\\#" for ch in token):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _words(tokens) -> str:
    return " ".join(_q(tok) for tok in tokens)


def print_directive(d: Directive) -> str:
    if isinstance(d, AmbientDecl):
        out = f"ambient {_q(d.label)} e {d.e} sigma {d.sigma}"
        if d.flags:
            out += " flags " + _words(d.flags)
        return out + " basis " + _words(d.basis)
    if isinstance(d, PairDecl):
        return f"pair {_q(d.g1)} {_q(d.g2)} {d.value}"
    if isinstance(d, CurveDecl):
        return f"curve {d.name} class {lincomb_to_str(d.cls)} genus {d.genus} dp {d.dp}"
    if isinstance(d, BlowupStep):
        out = f"blowup {d.name}"
        if d.at:
            out += " at " + ",".join(f"{c}:{m}" for c, m in d.at)
        if d.doublepoint:
            out += f" doublepoint {d.doublepoint}"
        return out
    if isinstance(d, SmoothStep):
        return f"smooth {d.name} {d.c1} {d.c2}"
    if isinstance(d, SurgeryStep):
        out = f"surgery {_q(d.label)}"
        if d.flags:
            out += " flags " + _words(d.flags)
        return out
    if isinstance(d, ChainDecl):
        return f"chain {d.name} = " + ",".join(d.curves)
    if isinstance(d, BlowdownStep):
        out = f"blowdown {d.chain}"
        if d.label is not None:
            out += f" label {_q(d.label)}"
        return out
    if isinstance(d, McgStep):
        specs = " ".join(str(s) for s in d.twists)
        return f"mcg {d.name} expected {d.expected} twists {specs}"
    if isinstance(d, SwLedgerStep):
        knots = ",".join("twist(n)" if k is None else f"twist({k})" for k in d.knots) or "none"
        return (
            f"sw ledger {d.name} e {d.e} sigma {d.sigma} "
            f"fiber {lincomb_to_str(d.fiber)} knots {knots}"
        )
    if isinstance(d, SwBlowupsStep):
        return f"sw blowups {d.name} {d.source} " + _words(d.gens)
    if isinstance(d, SwBlowdownStep):
        if d.chambered:
            out = f"sw chambered-blowdown {d.name} {d.source} {d.chain}"
        else:
            out = (
                f"sw blowdown {d.name} {d.source} {d.chain} "
                "vanishing-r vanishing-background"
            )
        if d.label is not None:
            out += f" label {_q(d.label)}"
        return out
    if isinstance(d, AssertStep):
        slots, _check = _ASSERTIONS[d.kind]
        return " ".join(["assert", d.kind] + [s.show(a) for s, a in zip(slots, d.args)])
    raise TypeError(f"unknown directive {d!r}")


def print_scenario(s: Scenario) -> str:
    return "\n".join(print_directive(d) for d in s.directives) + "\n"


# --- running -----------------------------------------------------------------

@dataclass(frozen=True)
class AssertionRecord:
    description: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class Report:
    scenario: str
    records: tuple[AssertionRecord, ...]

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


@dataclass
class _ChainRec:
    weights: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


@dataclass
class _SwRec:
    ledger: swledger.Ledger
    fiber_vec: tuple[int, ...]  # over the live basis when the ledger was declared
    result: swledger.BlowdownResult | None = None


class _Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.cfg: homcalc.CurveConfig | None = None
        self.live_basis: tuple[str, ...] = ()
        self.live_gram: tuple[tuple[int, ...], ...] = ()
        self.chains: dict[str, _ChainRec] = {}
        self.mcgs: dict[str, mcg.FibrationReport] = {}
        self.sw: dict[str, _SwRec] = {}
        self.records: list[AssertionRecord] = []

    def run(self) -> Report:
        for d in self.scenario.directives:
            try:
                self._exec(d)
            except ScenarioError:
                raise
            except (ValueError, KeyError) as exc:
                msg = exc.args[0] if exc.args else str(exc)
                raise ScenarioError(f"line {d.lineno}: {msg}") from exc
        return Report(scenario=self.scenario.name, records=tuple(self.records))

    def _sync_lattice(self):
        if self.cfg is not None and self.cfg.ambient.basis:
            self.live_basis = self.cfg.ambient.basis
            self.live_gram = self.cfg.ambient.gram

    def _class_vec(self, lc: Lincomb) -> tuple[int, ...]:
        """Resolve a linear combination of generators and/or curve names."""
        rank = len(self.live_basis)
        index = {name: i for i, name in enumerate(self.live_basis)}
        vec = [0] * rank
        for coef, name in lc:
            if name in index:
                vec[index[name]] += coef
            elif self.cfg is not None and self.cfg.has_curve(name):
                for i, x in enumerate(self.cfg.curve(name).cls):
                    vec[i] += coef * x
            else:
                raise ValueError(f"unknown class name {name!r}")
        return tuple(vec)

    def _exec(self, d) -> None:
        if isinstance(d, AmbientDecl):
            rank = len(d.basis)
            amb = homcalc.Ambient(
                basis=d.basis,
                gram=tuple((0,) * rank for _ in range(rank)),
                e=d.e,
                sigma=d.sigma,
                label=d.label,
                flags=frozenset(d.flags),
            )
            self.cfg = homcalc.CurveConfig(ambient=amb)
        elif isinstance(d, PairDecl):
            amb = self.cfg.ambient
            i, j = amb.basis.index(d.g1), amb.basis.index(d.g2)
            gram = [list(row) for row in amb.gram]
            gram[i][j] = gram[j][i] = d.value
            amb = homcalc.Ambient(
                basis=amb.basis, gram=tuple(tuple(r) for r in gram),
                e=amb.e, sigma=amb.sigma, label=amb.label, flags=amb.flags,
            )
            self.cfg = homcalc.CurveConfig(ambient=amb, curves=self.cfg.curves)
        elif isinstance(d, CurveDecl):
            vec = self._class_vec(d.cls)
            self.cfg = homcalc.add_curve(
                self.cfg, homcalc.Curve(d.name, vec, d.genus, d.dp)
            )
        elif isinstance(d, BlowupStep):
            self.cfg = homcalc.blow_up(self.cfg, d.name, d.at, d.doublepoint)
        elif isinstance(d, SmoothStep):
            self.cfg = homcalc.smooth(self.cfg, d.name, d.c1, d.c2)
        elif isinstance(d, SurgeryStep):
            self.cfg = homcalc.knot_surgery_shadow(self.cfg, d.label, d.flags)
        elif isinstance(d, ChainDecl):
            weights = homcalc.extract_chain(self.cfg, d.curves)
            classes = tuple(self.cfg.curve(c).cls for c in d.curves)
            self.chains[d.name] = _ChainRec(weights, classes)
        elif isinstance(d, BlowdownStep):
            weights = self.chains[d.chain].weights
            amb = homcalc.rational_blowdown(self.cfg.ambient, weights, d.label)
            self.cfg = homcalc.CurveConfig(ambient=amb)
        elif isinstance(d, McgStep):
            twists = tuple(spec.to_twist() for spec in d.twists)
            self.mcgs[d.name] = mcg.verify_fibration(twists, d.expected)
        elif isinstance(d, SwLedgerStep):
            fiber_vec = self._class_vec(d.fiber)
            fsq = homcalc.pair_vectors(self.live_gram, fiber_vec, fiber_vec)
            if fsq != 0:
                raise ScenarioError(
                    f"line {d.lineno}: fiber class squares to {fsq}, expected 0"
                )
            polys = [swledger.alexander_twist(k) for k in d.knots]
            ledger = swledger.knot_surgery_ledger(polys, label=d.name, e=d.e, sigma=d.sigma)
            self.sw[d.name] = _SwRec(ledger=ledger, fiber_vec=fiber_vec)
        elif isinstance(d, SwBlowupsStep):
            src = self.sw[d.source]
            ledger = swledger.blow_up_ledger(src.ledger, len(d.gens), d.gens)
            self.sw[d.name] = _SwRec(ledger=ledger, fiber_vec=src.fiber_vec)
        elif isinstance(d, SwBlowdownStep):
            self._exec_sw_blowdown(d)
        elif isinstance(d, AssertStep):
            _slots, check = _ASSERTIONS[d.kind]
            self.records.append(check(self, *d.args))
            return
        else:  # pragma: no cover
            raise TypeError(f"unknown directive {d!r}")
        self._sync_lattice()

    def _exec_sw_blowdown(self, d: SwBlowdownStep) -> None:
        """Pair the ledger's classes with the recorded chain spheres in the
        live lattice: T is the fiber vector, paired over its support, so a
        fiber declared before later blow-ups needs no padding, and every other
        tracked class is the live generator of its name."""
        src = self.sw[d.source]
        rec = self.chains[d.chain]
        gram = self.live_gram
        index = {name: i for i, name in enumerate(self.live_basis)}
        pairings = [tuple(homcalc.pair_vectors(gram, u, src.fiber_vec) for u in rec.classes)]
        for g in src.ledger.basis[1:]:
            row = gram[index[g]]
            pairings.append(tuple(sum(x * y for x, y in zip(row, u)) for u in rec.classes))
        if d.chambered:
            result = swledger.chambered_blowdown_ledger(
                src.ledger, rec.weights, pairings, new_label=d.label
            )
        else:
            result = swledger.rational_blowdown_ledger(
                src.ledger, rec.weights, pairings, corrections=(True, True), new_label=d.label
            )
        self.sw[d.name] = _SwRec(ledger=result.ledger, fiber_vec=src.fiber_vec, result=result)


def run_scenario(s: Scenario) -> Report:
    return _Runner(s).run()


# --- assertion kinds ---------------------------------------------------------

@dataclass(frozen=True)
class _Slot:
    """One assertion argument: `read(tokens, checker)` takes it from the line,
    checking any name it refers to; `show(value)` prints it back as one token.

    Package functions are looked up when a slot runs, not when it is built, so a
    wrapper installed on a module attribute sees the call.
    """

    read: Callable[[_Tokens, _ParseChecker], Any]
    show: Callable[[Any], str] = str


def _declared(what: str, pool: str, message: str) -> _Slot:
    """A name already declared in the checker's set `pool`; `message` formats its repr."""

    def read(t: _Tokens, chk: _ParseChecker) -> str:
        name = t.take(what)
        chk.need(name in getattr(chk, pool), t.lineno, message.format(repr(name)))
        return name

    return _Slot(read)


def _int(what: str) -> _Slot:
    return _Slot(lambda t, chk: t.take_int(what))


def _weights(what: str) -> _Slot:
    return _Slot(lambda t, chk: t.take_parsed(what, hirzebruch.parse_chain),
                 lambda w: hirzebruch.chain_to_str(w))


def _read_class(t: _Tokens, chk: _ParseChecker) -> Lincomb:
    lc = t.take_parsed("class expression", parse_lincomb)
    chk.need_lincomb(lc, t.lineno)
    return lc


def _read_values(tok: str) -> tuple[swledger.LinExpr, ...]:
    return tuple(sorted(swledger.parse_linexpr(v) for v in tok.split(",")))


_CHAIN = _declared("chain name", "chains", "unknown chain {}")
_CURVE = _declared("curve name", "curves", "unknown curve {}")
_MCG = _declared("mcg report name", "mcgs", "unknown mcg report {}")
_LEDGER = _declared("ledger name", "ledgers", "unknown ledger {}")
_BLOWN_DOWN = _declared("ledger name", "blowdown_ledgers", "ledger {} is not a blow-down result")
_CLASS = _Slot(_read_class, lambda lc: lincomb_to_str(lc))
# Ledger classes are over the ledger's own basis, which is only known at run time.
_LEDGER_CLASS = _Slot(lambda t, chk: t.take_parsed("class expression", parse_lincomb),
                      lambda lc: lincomb_to_str(lc))
_WORD = _Slot(lambda t, chk: t.take_parsed("word", mcg.parse_word),
              lambda w: mcg.word_to_str(w).replace(" ", ""))
_VALUE = _Slot(lambda t, chk: t.take_parsed("value", swledger.parse_linexpr),
               lambda v: str(v).replace(" ", ""))
_VALUES = _Slot(lambda t, chk: t.take_parsed("value set", _read_values),
                lambda vs: ",".join(_VALUE.show(v) for v in vs))
_LABEL = _Slot(lambda t, chk: t.take("label"), _q)
_FINGERPRINT = _Slot(
    lambda t, chk: t.take_parsed("fingerprint string or none",
                                 lambda s: None if s == "none" else s),
    lambda s: "none" if s is None else _q(s),
)


def _equal(description: str, expected, actual, show=str) -> AssertionRecord:
    return AssertionRecord(description, show(expected), show(actual), actual == expected)


def _check_square_class(run: _Runner, lc: Lincomb, expected: int) -> AssertionRecord:
    vec = run._class_vec(lc)
    return _equal(f"square of class {lincomb_to_str(lc)}", expected,
                  homcalc.pair_vectors(run.live_gram, vec, vec))


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

# kind -> (argument slots, check(runner, *arguments) -> AssertionRecord)
_ASSERTIONS: dict[str, tuple[tuple[_Slot, ...], Callable[..., AssertionRecord]]] = {
    "chain": ((_CHAIN, _weights("weights")), lambda run, name, weights: _equal(
        f"chain {name} weights", weights, run.chains[name].weights,
        lambda w: hirzebruch.chain_to_str(w))),
    "identify": ((_CHAIN, _int("p"), _int("q")), lambda run, name, p, q: _equal(
        f"chain {name} identified", (p, q), hirzebruch.identify_cpq(run.chains[name].weights),
        lambda pq: f"C_{{{pq[0]},{pq[1]}}}" if pq else "none")),
    "euler": ((_int("integer"),), lambda run, e: _equal(
        "euler characteristic", e, run.cfg.ambient.e)),
    "signature": ((_int("integer"),), lambda run, sigma: _equal(
        "signature", sigma, run.cfg.ambient.sigma)),
    "label": ((_LABEL,), lambda run, label: _equal(
        "manifold label", label, run.cfg.ambient.label)),
    "fingerprint": ((_FINGERPRINT,), lambda run, fp: _equal(
        "homeomorphism fingerprint", fp, homcalc.homeo_fingerprint(run.cfg.ambient),
        lambda s: "none" if s is None else s)),
    "pairing": ((_CURVE, _CURVE, _int("pairing value")), lambda run, c1, c2, n: _equal(
        f"pairing {c1}.{c2}", n, homcalc.pairing(run.cfg, c1, c2))),
    "square": ((_CURVE, _int("integer")), lambda run, c, n: _equal(
        f"square of {c}", n, homcalc.square(run.cfg, c))),
    "square-class": ((_CLASS, _int("integer")), _check_square_class),
    "dp": ((_CURVE, _int("integer")), lambda run, c, n: _equal(
        f"double points of {c}", n, run.cfg.curve(c).double_points)),
    "mcg-pass": ((_MCG,), _check_mcg_pass),
    "mcg-cycles-equal": ((_MCG, _int("twist index"), _int("twist index")), _check_mcg_cycles),
    "mcg-word-equal": ((_MCG, _WORD), _check_mcg_word),
    "sw-entries": ((_LEDGER, _int("entry count")), lambda run, name, n: _equal(
        f"sw {name} entry count", n, swledger.entry_count(run.sw[name].ledger))),
    "sw-value": ((_LEDGER, _LEDGER_CLASS, _VALUE), _sw_class_check(
        "sw {} value at {}", lambda rec, vec: rec.ledger.entry(vec).value)),
    "sw-value-set": ((_BLOWN_DOWN, _LEDGER_CLASS, _VALUES), _sw_class_check(
        "sw {} value set at {}", lambda rec, vec: tuple(sorted(rec.result.value_set_of(vec))),
        lambda vs: ", ".join(str(v) for v in vs))),
    "sw-unverified": ((_LEDGER, _LEDGER_CLASS), lambda run, name, lc: _check_unverified(
        run, name, lc, "unverified")),
    "sw-restriction": ((_BLOWN_DOWN, _LEDGER_CLASS, _weights("restriction vector")),
                       _sw_class_check("sw {} restriction of {}",
                                       lambda rec, vec: rec.result.restriction_of(vec),
                                       lambda w: hirzebruch.chain_to_str(w))),
    "sw-minimal": ((_BLOWN_DOWN, _int("concrete n")), lambda run, name, n: _equal(
        f"sw {name} minimality at n={n}", True,
        swledger.minimality_report(swledger.substitute(run.sw[name].ledger, n)),
        lambda ok: "minimal" if ok else "not established")),
}
