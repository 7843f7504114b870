"""The four benchmark workloads.

Each workload drives the package from outside through its public functions.
Its operation stream is a pure function of the workload seed; `execute` is
the only timed part, and `check` compares every output with an oracle
(goldens, an expected file, or closed forms in `oracles`), raising
CheckFailed on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from blowdown import cli, hirzebruch, mcg, swledger

import oracles

DATA = Path(__file__).resolve().parent / "data"


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- corpus ---------------------------------------------------------------------


class Corpus:
    """`blowdown corpus` in-process, alternating text and --json output.

    Each operation passes its own --seed, which shuffles scenario execution
    order; the report must still match the golden byte for byte.
    """

    name = "corpus"

    def __init__(self, seed: int):
        self.rng = random.Random(f"corpus:{seed}")
        self.golden = {
            "text": (DATA / "corpus.txt").read_text(),
            "json": (DATA / "corpus.json").read_text(),
        }
        self.count = 0

    def next_op(self):
        fmt = "text" if self.count % 2 == 0 else "json"
        self.count += 1
        return fmt, self.rng.randrange(2**31)

    def execute(self, op):
        fmt, cli_seed = op
        argv = (["--json"] if fmt == "json" else []) + ["--seed", str(cli_seed), "corpus"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        expect(text == self.golden[op[0]], f"{op[0]} report differs from the golden")


# --- ledgers --------------------------------------------------------------------

# Chains and chain-pairing rows of the bundled Q_n and X_n scenarios, as the
# curve geometry gives them.  Q_n runs with eight extra blow-ups Z1..Z8 away
# from the chain (rows of zero), so both pipelines build 4,096 entries.
QN_CHAIN = (-9, -2, -2, -2, -2, -2)  # C_{7,1}
XN_CHAIN = (-9, -10, -2, -2, -2, -2, -2, -3, -2, -2, -2, -2, -2, -2, -2)  # C_{71,8}


XN_ROWS = {
    "T": (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "E1": (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "E2": (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "E3": (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "E4": (0, 1, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0),
    "E5": (0, 1, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0),
    "E6": (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0),
    "E7": (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0),
    "E8": (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0),
    "E9": (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0),
    "E10": (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1),
    "E11": (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


@dataclass(frozen=True)
class Pipeline:
    chain: tuple[int, ...]
    rows: dict
    fixed_knots: tuple[int, ...]
    exact: bool


PIPELINES = {
    "qn": Pipeline(
        chain=QN_CHAIN,
        rows={"T": (1, 0, 0, 0, 0, 0), "E1": (2, 0, 0, 0, 0, 0), "E2": (2, 0, 0, 0, 0, 0),
              **{f"Z{i}": (0,) * 6 for i in range(1, 9)}},
        fixed_knots=(1,),
        exact=True,
    ),
    "xn": Pipeline(
        chain=XN_CHAIN,
        rows=XN_ROWS,
        fixed_knots=(),
        exact=False,
    ),
}


@dataclass(frozen=True)
class LedgerOp:
    style: str
    names: tuple[str, ...]  # blow-up order, a seeded permutation
    knot: int | None  # concrete twist parameter, or None for symbolic n
    n: int  # value substituted before the minimality report


def run_pipeline(op: LedgerOp):
    """Seed, blow up, blow down and substitute; the package calls of one pipeline."""
    spec = PIPELINES[op.style]
    polys = [swledger.alexander_twist(k) for k in spec.fixed_knots]
    polys.append(swledger.alexander_twist(op.knot))
    base = swledger.knot_surgery_ledger(polys, label=op.style)
    blown = swledger.blow_up_ledger(base, len(op.names), op.names)
    rows = [spec.rows[g] for g in ("T",) + op.names]
    if spec.exact:
        result = swledger.rational_blowdown_ledger(
            blown, spec.chain, rows, corrections=(True, True))
    else:
        result = swledger.chambered_blowdown_ledger(blown, spec.chain, rows)
    concrete = swledger.substitute(result.ledger, op.n)
    return len(blown.entries), result, concrete, swledger.minimality_report(concrete)


class Ledgers:
    """SW pipeline through swledger: seed, blow up, blow down, substitute.

    One operation is one exact Q_n-style pipeline (C_{7,1}) followed by one
    chambered X_n-style pipeline (C_{71,8}), each over 4,096 entries.
    """

    name = "ledgers"

    def __init__(self, seed: int):
        self.rng = random.Random(f"ledgers:{seed}")
        self.expected = json.loads((DATA / "ledgers.json").read_text())

    def _op(self, style: str) -> LedgerOp:
        names = list(self.expected[style]["basis"][1:])
        self.rng.shuffle(names)
        knot = self.rng.randrange(2, 41) if self.rng.random() < 0.5 else None
        return LedgerOp(style, tuple(names), knot, self.rng.randrange(1, 41))

    def next_op(self):
        return self._op("qn"), self._op("xn")

    def execute(self, op):
        return tuple(run_pipeline(part) for part in op)

    def check(self, op, out):
        for part, got in zip(op, out):
            self._check_one(part, *got)

    def _check_one(self, op: LedgerOp, blown_size, result, concrete, minimal):
        exp = self.expected[op.style]
        spec = PIPELINES[op.style]
        tag = f"{op.style} {op}"
        expect(blown_size == exp["blown_entries"], f"{tag}: blew up to {blown_size} entries")
        led = result.ledger
        expect((led.e, led.sigma) == (exp["e"], exp["sigma"]), f"{tag}: (e, sigma) = {(led.e, led.sigma)}")
        canon = exp["basis"]
        perm = [led.basis.index(g) for g in canon]

        def value_of(c0, c1):
            return (c0 + c1 * op.knot, 0) if op.knot is not None else (c0, c1)

        want = {tuple(s[0]): value_of(s[1], s[2]) for s in exp["survivors"]}
        got = {tuple(e.cls[i] for i in perm): (e.value.c0, e.value.c1) for e in led.entries}
        expect(len(led.entries) == len(want) and got == want,
               f"{tag}: survivor set differs from the expected file")
        rows = [spec.rows[g] for g in led.basis]
        for cls, restriction in result.restrictions:
            own = tuple(sum(c * row[j] for c, row in zip(cls, rows)) for j in range(len(spec.chain)))
            expect(restriction == own, f"{tag}: restriction of {cls} is {restriction}, expected {own}")
        for (cls, values), ent in zip(result.value_sets, led.entries):
            c0, c1 = ent.value.c0, ent.value.c1
            want_vs = [(c0, c1)] if spec.exact else [(c0 - 1, c1), (c0, c1), (c0 + 1, c1)]
            expect(cls == ent.cls and [(x.c0, x.c1) for x in values] == want_vs,
                   f"{tag}: value set of {cls}")
        for ent, sub in zip(led.entries, concrete.entries):
            v = ent.value
            expect(sub.cls == ent.cls and (sub.value.c0, sub.value.c1) == (v.c0 + v.c1 * op.n, 0),
                   f"{tag}: substituted value at {ent.cls}")
        expect(minimal == exp["minimal"], f"{tag}: minimality {minimal}")


# --- chains ---------------------------------------------------------------------

CHAIN_LEN = (40, 60)
P_RANGE = (40, 1000)


@dataclass(frozen=True)
class ChainOp:
    p: int
    q: int
    chain: tuple[int, ...]  # oracle expansion
    perturbed: tuple[int, ...]  # non-chain with non-square |det|
    bumped: tuple[int, ...]  # canonical vector with one entry moved by 2
    bumped_extends: bool


class Chains:
    """hirzebruch on fresh C_{p,q} chains of length 40-60.

    Chains never repeat within a process, so the discriminant cache cannot
    hide the reduction cost.  The reduction cost grows with chain length, so
    operation i takes a chain of length 40 + (i mod 21): every run then has
    the same mix of lengths, and only the chains themselves depend on the seed.
    """

    name = "chains"

    def __init__(self, seed: int):
        self.rng = random.Random(f"chains:{seed}")
        self.seen = set()
        self.pending = {k: [] for k in range(CHAIN_LEN[0], CHAIN_LEN[1] + 1)}
        self.count = 0

    def _chain_of_length(self, k: int):
        rng = self.rng
        while not self.pending[k]:
            p = rng.randrange(*P_RANGE)
            q = rng.randrange(1, p)
            if math.gcd(p, q) != 1:
                continue
            chain = oracles.hj_chain(p, q)
            if len(chain) in self.pending and chain not in self.seen:
                self.seen.add(chain)
                self.pending[len(chain)].append((p, q, chain))
        return self.pending[k].pop(0)

    def next_op(self) -> ChainOp:
        k = CHAIN_LEN[0] + self.count % len(self.pending)
        self.count += 1
        p, q, chain = self._chain_of_length(k)
        bumped = [w + 2 for w in chain]
        bumped[self.rng.randrange(len(chain))] += 2 * self.rng.choice((-1, 1))
        bumped = tuple(bumped)
        return ChainOp(p, q, chain, oracles.non_chain_perturbation(chain),
                       bumped, oracles.extends(chain, bumped))

    def execute(self, op: ChainOp):
        chain = hirzebruch.chain_for_cpq(op.p, op.q)
        canonical = hirzebruch.canonical_vector(chain)
        return (
            chain,
            hirzebruch.identify_cpq(chain),
            hirzebruch.identify_cpq(op.perturbed),
            hirzebruch.discriminant(chain),
            canonical,
            hirzebruch.extends_over_ball(chain, canonical),
            hirzebruch.extends_over_ball(chain, op.bumped),
            hirzebruch.gram_inverse_form(chain, canonical),
        )

    def check(self, op: ChainOp, out):
        chain, ident, rejected, disc, canonical, ext_can, ext_bumped, form = out
        tag = f"C_{{{op.p},{op.q}}}"
        k = len(op.chain)
        expect(chain == op.chain, f"{tag}: chain {chain}")
        expect(ident == (op.p, op.q), f"{tag}: identified as {ident}")
        expect(rejected is None, f"{tag}: perturbed chain identified as {rejected}")
        order = op.p * op.p
        expect(disc.order == order, f"{tag}: discriminant order {disc.order}")
        expect(len(disc.coeffs) == k and disc.coeffs[0] == 1, f"{tag}: discriminant normalization")
        for j in range(k):
            col = disc.coeffs[j] * op.chain[j]
            col += disc.coeffs[j - 1] if j > 0 else 0
            col += disc.coeffs[j + 1] if j + 1 < k else 0
            expect(col % order == 0, f"{tag}: discriminant map does not kill Gram column {j}")
        expect(canonical == tuple(w + 2 for w in op.chain), f"{tag}: canonical vector")
        expect(ext_can is True, f"{tag}: canonical vector does not extend")
        expect(ext_bumped is op.bumped_extends, f"{tag}: extension of {op.bumped}")
        expect(form == -k, f"{tag}: canonical inverse form {form}, expected {-k}")


# --- words ----------------------------------------------------------------------

EXPONENT = (900, 1100)
CONJUGATOR_LETTERS = 120


@dataclass(frozen=True)
class WordOp:
    n: int
    m: int
    conjugator: tuple[tuple[str, int], ...]  # raw letters, alternating generators

    @property
    def conjugator_text(self) -> str:
        parts = []
        for tag, exp in self.conjugator:
            ch = tag if exp > 0 else tag.upper()
            parts.append(ch if abs(exp) == 1 else f"{ch}^{abs(exp)}")
        return " ".join(parts)


class Words:
    """mcg word parsing and evaluation at exponents near 1,000.

    One operation evaluates (ab)^{6N}, (a^3b)^{3N} and a^N b^M, then verifies
    the three standard 12-twist factorizations conjugated by a long word and
    prints their expanded words.
    """

    name = "words"

    def __init__(self, seed: int):
        self.rng = random.Random(f"words:{seed}")

    def next_op(self) -> WordOp:
        rng = self.rng
        letters = tuple(
            ("ab"[i % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(CONJUGATOR_LETTERS)
        )
        return WordOp(rng.randrange(*EXPONENT), rng.randrange(*EXPONENT), letters)

    def execute(self, op: WordOp):
        mats = (
            mcg.eval_word(mcg.parse_word(f"(ab)^{6 * op.n}")),
            mcg.eval_word(mcg.parse_word(f"(a^3b)^{3 * op.n}")),
            mcg.eval_word(mcg.parse_word(f"a^{op.n} b^{op.m}")),
        )
        conj = mcg.parse_word(op.conjugator_text)
        fibrations = []
        for name, twists in sorted(mcg.standard_factorizations().items()):
            moved = tuple(
                mcg.Twist(t.cycle, mcg.concat(conj, t.conjugator), t.multiplicity) for t in twists
            )
            report = mcg.verify_fibration(moved, 12)
            fibrations.append((name, twists, report, mcg.word_to_str(report.word)))
        return mats, fibrations

    def check(self, op: WordOp, out):
        mats, fibrations = out
        ab = oracles.mat_mul(oracles.letter("a", 1), oracles.letter("b", 1))
        a3b = oracles.mat_mul(oracles.letter("a", 3), oracles.letter("b", 1))
        want = (
            oracles.mat_pow(ab, 6 * op.n),
            oracles.mat_pow(a3b, 3 * op.n),
            ((1 - op.n * op.m, op.n), (-op.m, 1)),
        )
        expect(want[0] == want[1] == oracles.IDENTITY, "oracle: (ab)^6 or (a^3b)^3 is not 1")
        expect(mats == want, f"N={op.n} M={op.m}: matrices {mats}")
        conj_m = oracles.eval_letters(op.conjugator)
        expect(len(fibrations) == 3, "expected three standard factorizations")
        for name, twists, report, printed in fibrations:
            expect(report.passed and report.is_identity and report.twist_count == 12,
                   f"{name}: fibration check {report.is_identity}, {report.twist_count}")
            cycles = []
            for t in twists:
                m = oracles.mat_mul(conj_m, oracles.eval_letters(t.conjugator))
                cycles.extend([oracles.primitive_cycle(m, t.cycle)] * t.multiplicity)
            expect(report.cycles == tuple(cycles), f"{name}: vanishing cycles")
            letters = oracles.parse_printed_word(printed)
            expect(all(x[0] != y[0] for x, y in zip(letters, letters[1:])),
                   f"{name}: printed word not in run-length normal form")
            expect(oracles.eval_letters(letters) == oracles.IDENTITY,
                   f"{name}: printed word is not the identity")


WORKLOADS = {w.name: w for w in (Corpus, Ledgers, Chains, Words)}
