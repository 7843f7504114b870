import random
import re
import time
import tracemalloc

import pytest

from blowdown import mcg
from blowdown.mcg import Twist


def test_letter_matrices():
    assert mcg.eval_word(mcg.parse_word("a")) == ((1, 1), (0, 1))
    assert mcg.eval_word(mcg.parse_word("b")) == ((1, 0), (-1, 1))
    assert mcg.eval_word(mcg.parse_word("a^5")) == ((1, 5), (0, 1))
    assert mcg.eval_word(mcg.parse_word("B^3")) == ((1, 0), (3, 1))
    with pytest.raises(ValueError):
        mcg.eval_word((("c", 1),))


def test_word_algebra():
    w = mcg.parse_word("a^2 B a^-1")
    assert mcg.eval_word(mcg.concat(w, mcg.invert_word(w))) == mcg.IDENTITY
    assert mcg.normalize([("a", 2), ("a", -2), ("b", 1)]) == (("b", 1),)
    # parse accepts parenthesized powers and compact/spaced forms alike
    assert mcg.parse_word("(ab)^2") == mcg.parse_word("a b a b")
    assert mcg.parse_word("(a^3b)^3") == mcg.parse_word("a^3 b a^3 b a^3 b")
    # a power is written out up to EXPAND_LIMIT letters and kept symbolic above
    ab = (("a", 1), ("b", 1))
    assert mcg.parse_word("(ab)^32") == ab * 32
    assert mcg.parse_word("(ab)^33") == ((ab, 33),)
    assert mcg.parse_word("(ab)^-33") == (((("b", -1), ("a", -1)), 33),)
    assert mcg.parse_word("((ab)^100)^-10") == mcg.invert_word(mcg.parse_word("(ab)^1000"))
    assert mcg.parse_word("(a^3)^1000 (B)^99") == (("a", 3000), ("b", -99))
    assert mcg.concat(mcg.parse_word("a (ab)^100"), mcg.parse_word("(ab)^50 A")) == (
        ("a", 1), (ab, 150), ("a", -1))


def test_parse_word_rejects_garbage():
    deep = "(" * 1000 + "a" + ")" * 1000
    rows = [
        ("c", "unexpected character 'c' at position 0 in 'c'"),
        ("a^", "expected integer exponent at position 2 in 'a^'"),
        ("(ab", "unbalanced parenthesis in '(ab'"),
        ("a**2", "unexpected character '*' at position 1 in 'a**2'"),
        ("3a", "unexpected character '3' at position 0 in '3a'"),
        (deep, "parentheses nested deeper than 32 at position 32"),
        # one row per message; an exponent error is placed after the blanks that follow `^`
        ("a ^ ", "expected integer exponent at position 4 in 'a ^ '"),
        ("a^+ 2", "expected integer exponent at position 2 in 'a^+ 2'"),
        (")^2", "unbalanced parenthesis at position 0 in ')^2'"),
        ("((a)", "unbalanced parenthesis in '((a)'"),
        ("a*2", "unexpected character '*' at position 1 in 'a*2'"),
        ("(" * 33 + "a" + ")" * 33, "parentheses nested deeper than 32 at position 32"),
        # `str.isdigit` accepts a superscript two, but an exponent takes decimal digits only
        ("a^²", "expected integer exponent at position 2 in 'a^²'"),
        ("A^5²", "unexpected character '²' at position 3 in 'A^5²'"),
    ]
    for text, message in rows:
        with pytest.raises(ValueError) as exc:
            mcg.parse_word(text)
        assert str(exc.value) == message, text[:40]
    assert mcg.parse_word("(" * 32 + "a" + ")" * 32) == (("a", 1),)


def test_word_to_str_round_trip():
    for text in ["a^3 b a^3 b", "A^4 b a^4", "b", "a^-2 b a^2", "a A", "(ab)^1000",
                 "a (a b)^-100 B", "((a^2 B)^40 b)^3", "(((ab)^1000)^1000)^1000"]:
        w = mcg.parse_word(text)
        assert mcg.parse_word(mcg.word_to_str(w)) == w


def test_relation_suite_all_hold():
    results = mcg.relation_suite()
    assert len(results) == 7
    for name, ok in results:
        assert ok, name


def test_relation_suite_reads_the_standard_factorizations(monkeypatch):
    facts = mcg.standard_factorizations()
    broken = dict(facts, I7=facts["I7"][:-1])  # drop the last twist b
    monkeypatch.setattr(mcg, "standard_factorizations", lambda: broken)
    failed = [i for i, (_name, ok) in enumerate(mcg.relation_suite()) if not ok]
    assert failed == [2]


def test_relation_suite_names_stable():
    names = [name for name, _ in mcg.relation_suite()]
    assert names[0] == "(ab)^6 = 1"
    assert names[1] == "(a^3b)^3 = 1"


def test_twist_validation():
    with pytest.raises(ValueError):
        Twist("c")
    with pytest.raises(ValueError):
        Twist("a", multiplicity=0)


def test_expand_twist_conjugates():
    t = Twist("b", conjugator=mcg.parse_word("A^4"))
    assert mcg.expand_factorization((t,)) == mcg.parse_word("A^4 b a^4")
    t2 = Twist("a", multiplicity=3)
    assert mcg.expand_factorization((t2,)) == (("a", 3),)


def test_vanishing_cycles():
    """Cycle of the conjugated twist = conjugator matrix applied to the core cycle."""
    assert mcg.vanishing_cycle(Twist("a")) == (1, 0)
    assert mcg.vanishing_cycle(Twist("b")) == (0, 1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("A^4"))) == (4, -1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("A"))) == (1, -1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("a^-1"))) == (1, -1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("A^3"))) == (3, -1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("A^2"))) == (2, -1)
    assert mcg.vanishing_cycle(Twist("b", mcg.parse_word("a^2"))) == (2, 1)
    assert mcg.vanishing_cycle(Twist("a", mcg.parse_word("B"))) == (1, 1)


def test_normalize_cycle():
    assert mcg.normalize_cycle(-2, 0) == (1, 0)
    assert mcg.normalize_cycle(0, -3) == (0, 1)
    assert mcg.normalize_cycle(-4, 1) == (4, -1)
    assert mcg.normalize_cycle(2, 2) == (1, 1)


I7_CYCLES = [(1, 0)] * 7 + [(4, -1), (1, -1), (1, 0), (1, 0), (0, 1)]
I8_CYCLES = [(1, 0)] * 8 + [(2, -1), (0, 1), (0, 1), (2, 1)]
I6_CYCLES = [(1, 0)] * 6 + [(3, -1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1)]


@pytest.mark.parametrize("key,cycles", [
    ("I7", I7_CYCLES), ("I8", I8_CYCLES), ("I6", I6_CYCLES),
])
def test_standard_factorizations(key, cycles):
    report = mcg.verify_fibration(mcg.standard_factorizations()[key], 12)
    assert report.passed
    assert report.is_identity
    assert report.twist_count == 12
    assert list(report.cycles) == cycles


def test_isotopic_pairs_in_standard_factorizations():
    facts = mcg.standard_factorizations()
    i7 = mcg.verify_fibration(facts["I7"], 12).cycles
    assert i7[9] == i7[10]
    i8 = mcg.verify_fibration(facts["I8"], 12).cycles
    assert i8[9] == i8[10]
    i6 = mcg.verify_fibration(facts["I6"], 12).cycles
    assert i6[7] == i6[8] and i6[9] == i6[10]


def test_verify_fibration_failures():
    facts = mcg.standard_factorizations()
    short = facts["I7"][:-1]
    report = mcg.verify_fibration(short, 12)
    assert not report.passed
    assert not report.is_identity
    # right count but wrong expectation
    report2 = mcg.verify_fibration(facts["I7"], 11)
    assert report2.is_identity and not report2.passed


def test_words_equal_in_group():
    w1 = mcg.expand_factorization(mcg.standard_factorizations()["I7"])
    assert mcg.words_equal_in_group(w1, mcg.parse_word("(a^3b)^3"))
    assert not mcg.words_equal_in_group(mcg.parse_word("a"), mcg.parse_word("b"))


def test_braid_style_identity():
    # b = a^(ab): conjugating a by the product ab carries it to b
    lhs = mcg.parse_word("b")
    ab = mcg.parse_word("ab")
    rhs = mcg.concat(ab, mcg.parse_word("a"), mcg.invert_word(ab))
    assert mcg.words_equal_in_group(lhs, rhs)


# --- an independent reading of word powers --------------------------------------
# The oracle expands a word text letter by letter with its own small parser and
# multiplies full 2x2 matrices; it shares no code with mcg.

ORACLE_PRIME = 2**61 - 1
_EXPONENT = re.compile(r"\^([+-]?\d+)")


def oracle_letters(text: str) -> list:
    """Every power of `text` written out: a flat list of (generator, exponent)."""
    pos = 0

    def exponent() -> int:
        nonlocal pos
        m = _EXPONENT.match(text, pos)
        if not m:
            return 1
        pos = m.end()
        return int(m.group(1))

    def seq() -> list:
        nonlocal pos
        out = []
        while pos < len(text) and text[pos] != ")":
            ch = text[pos]
            pos += 1
            if ch == " ":
                continue
            if ch == "(":
                inner = seq()
                pos += 1  # the closing parenthesis
                e = exponent()
                if e < 0:
                    inner = [(g, -x) for g, x in reversed(inner)]
                out.extend(inner * abs(e))
            else:
                e = exponent()
                out.append((ch.lower(), -e if ch.isupper() else e))
        return out

    letters = seq()
    assert pos == len(text), text
    return letters


def oracle_matrix(letters, modulus=None):
    """Product of a^e = ((1, e), (0, 1)) and b^e = ((1, 0), (-e, 1)), optionally mod `modulus`."""
    p, q, r, s = 1, 0, 0, 1
    for g, e in letters:
        (w, x), (y, z) = ((1, e), (0, 1)) if g == "a" else ((1, 0), (-e, 1))
        p, q, r, s = p * w + q * y, p * x + q * z, r * w + s * y, r * x + s * z
        if modulus:
            p, q, r, s = p % modulus, q % modulus, r % modulus, s % modulus
    return ((p, q), (r, s))


def random_power_text(rng: random.Random, depth: int) -> tuple[str, int]:
    """A random word text with powers nested up to `depth` deep, and its letter count."""
    parts, size = [], 0
    for _ in range(rng.randint(1, 4)):
        if depth and rng.random() < 0.6:
            inner, inner_size = random_power_text(rng, depth - 1)
            e = rng.randint(-60, 60)
            parts.append(f"({inner})^{e}")
            size += inner_size * abs(e)
        else:
            parts.append(rng.choice("abAB") + rng.choice(("", "", f"^{rng.randint(-4, 4)}")))
            size += 1
    return rng.choice(("", " ")).join(parts), size


def test_power_words_match_expanded_oracle():
    rng = random.Random(20260406)
    sizes, symbolic = [], 0
    while len(sizes) < 60:
        text, size = random_power_text(rng, 3)
        if size > 100_000:
            continue
        sizes.append(size)
        w = mcg.parse_word(text)
        m = mcg.eval_word(w)
        letters = oracle_letters(text)
        assert len(letters) == size
        if size <= 2_000:
            assert m == oracle_matrix(letters), text
        else:
            reduced = tuple(tuple(x % ORACLE_PRIME for x in row) for row in m)
            assert reduced == oracle_matrix(letters, ORACLE_PRIME), text
        assert mcg.parse_word(mcg.word_to_str(w)) == w, text
        assert mcg.eval_word(mcg.concat(w, mcg.invert_word(w))) == mcg.IDENTITY, text
        symbolic += any(isinstance(tag, tuple) for tag, _ in w)
    assert max(sizes) >= 20_000 and symbolic >= 20, (sorted(sizes), symbolic)


def test_large_powers_cost_log_exponent():
    # (ab)^6 = 1 and 10^6 = 10^9 = 4 mod 6, so both powers equal (ab)^4;
    # a^3 b a^-3 is parabolic, and its e-th power is conjugate to b^e.
    e = 10**6
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        got = [mcg.eval_word(mcg.parse_word(t))
               for t in ("(ab)^1000000", "(((ab)^1000)^1000)^1000", "(a^3 b A^3)^1000000")]
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [((0, -1), (1, -1)), ((0, -1), (1, -1)), ((1 - 3 * e, 9 * e), (-e, 1 + 3 * e))]
    assert elapsed < 0.25, elapsed
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("text", ["(aB)^1000000", "((aB)^1000)^1000", "b (aB)^1000000 B"])
def test_hyperbolic_powers_too_large_are_refused_fast(text):
    # aB has trace 3, so (aB)^e has entries of about 1.39 e bits.
    w = mcg.parse_word(text)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {mcg.MAX_POWER_BITS} bits"):
        mcg.eval_word(w)
    assert time.perf_counter() - t0 < 0.25


def test_bounded_traces_and_short_hyperbolic_powers_still_evaluate():
    # Traces 1, 0, 2 and -2 never trigger the refusal, whatever the exponent.
    e = 10**6
    assert mcg.eval_word(mcg.parse_word("(ab)^1000000")) == ((0, -1), (1, -1))
    assert mcg.eval_word(mcg.parse_word("(a^2 b)^1000000")) == mcg.IDENTITY  # order 4
    assert mcg.eval_word(mcg.parse_word("(a^3 b A^3)^1000000"))[1][0] == -e
    # a^2 b^2 = -U with U unipotent of trace 2; an even power is U^e.
    (p, q), (r, s) = mcg.eval_word(mcg.parse_word("(a^2 b^2)^1000000"))
    assert p + s == 2 and p * s - q * r == 1
    # (aB)^e has trace L_{2e}, a Lucas number of about 1.39 e bits: under the
    # bound at e = 10^5.  Checked modulo a prime.
    (p, q), (r, s) = mcg.eval_word(mcg.parse_word("(aB)^100000"))
    lucas = (2, 1)
    for _ in range(200_000 - 1):
        lucas = (lucas[1], (lucas[0] + lucas[1]) % ORACLE_PRIME)
    assert (p + s) % ORACLE_PRIME == lucas[1]
    assert (p + s).bit_length() > 100_000
