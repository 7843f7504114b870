import random
import re
from math import gcd
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


def test_parse_word_names_an_over_long_exponent_at_its_position():
    # more digits than Python reads into an int, on a letter and on a group
    for text, position in [("a^" + "9" * 5000, 2), ("b (ab)^-" + "9" * 5000, 7)]:
        with pytest.raises(ValueError) as exc:
            mcg.parse_word(text)
        assert str(exc.value) == f"exponent too long at position {position} in {text!r}"


def test_word_to_str_round_trip():
    for text in ["a^3 b a^3 b", "A^4 b a^4", "b", "a^-2 b a^2", "a A", "(ab)^1000",
                 "a (a b)^-100 B", "((a^2 B)^40 b)^3", "(((ab)^1000)^1000)^1000"]:
        w = mcg.parse_word(text)
        assert mcg.parse_word(mcg.word_to_str(w)) == w
    # Exact text, one row per shape; the hand-built rows hold an exponent 0, or
    # a power with exponent 1 or below 0, which `normalize` never leaves.
    ab = (("a", 1), ("b", 1))
    rows = [
        ((("a", 1),), "a"),
        ((("a", -1),), "A"),
        ((("a", 3), ("b", -2)), "a^3 B^2"),
        ((("b", -7), ("a", 12), ("b", 1), ("a", -1)), "B^7 a^12 b A"),
        ((("a", 0),), "A^0"),
        ((("b", 0), ("a", 1)), "B^0 a"),
        (mcg.parse_word("(ab)^1000"), "(a b)^1000"),
        (mcg.parse_word("a (a b)^-100 B"), "a (B A)^100 B"),
        (mcg.parse_word("((a^2 B)^40 b)^3"), "((a^2 B)^40 b)^3"),
        (((ab, 1),), "(a b)^1"),
        (((ab, -1), ("b", -1)), "(a b)^-1 B"),
        (((ab, -3),), "(a b)^-3"),
        ((), "1"),
    ]
    for w, text in rows:
        assert mcg.word_to_str(w) == text, w


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
    """Cycle of the conjugated twist = conjugator matrix applied to the core cycle,
    as a fibration check reports it."""
    for t, cycle in [
        (Twist("a"), (1, 0)),
        (Twist("b"), (0, 1)),
        (Twist("b", mcg.parse_word("A^4")), (4, -1)),
        (Twist("b", mcg.parse_word("A")), (1, -1)),
        (Twist("b", mcg.parse_word("a^-1")), (1, -1)),
        (Twist("b", mcg.parse_word("A^3")), (3, -1)),
        (Twist("b", mcg.parse_word("A^2")), (2, -1)),
        (Twist("b", mcg.parse_word("a^2")), (2, 1)),
        (Twist("a", mcg.parse_word("B")), (1, 1)),
    ]:
        assert mcg.verify_fibration((t,), t.multiplicity).cycles == (cycle,), t


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
    with pytest.raises(ValueError, match=r"^expected_twists must be >= 0$"):
        mcg.verify_fibration((Twist("a"),), -1)


def test_verify_fibration_never_evaluates_its_expanded_word(monkeypatch):
    # The identity test reuses the junction matrices: the word J_1 X_1 ... J_n X_n
    # c_n^-1 is read off the running products, never evaluated as a whole.
    rng = random.Random(32)
    conj = tuple(("ab"[i % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(120))
    calls = []
    eval_word = mcg.eval_word

    def counting(w):
        calls.append(w)
        return eval_word(w)

    monkeypatch.setattr(mcg, "eval_word", counting)
    for name, twists in sorted(mcg.standard_factorizations().items()):
        moved = [Twist(t.cycle, mcg.concat(conj, t.conjugator), t.multiplicity) for t in twists]
        calls.clear()
        report = mcg.verify_fibration(moved, 12)
        assert report.passed, name
        assert len(report.word) > 200, name
        assert all(w != report.word for w in calls), name
        junctions = mcg._walk(moved)[1]
        assert sum(map(len, calls)) <= sum(map(len, junctions)), name


def test_a_negative_power_exponent_raises():
    ab = (("a", 1), ("b", 1))
    merged = ((ab, -3),)  # hand-built: normalize leaves no such power
    for w in (merged, (("a", 2), (ab, -1), ("b", 1)), ((ab, -10**30),)):
        with pytest.raises(ValueError, match=r"negative exponent -\d+"):
            mcg.eval_word(w)
    with pytest.raises(ValueError, match="negative exponent -3"):
        mcg.verify_fibration((Twist("a", merged),), 1)


def test_merged_powers_keep_the_power_invariant():
    # Powers of one base P merge to (P, e) for e >= 2, to P for e = 1 and to
    # P^-1 by the same rules for e < 0, which merges on with its neighbours.
    P = (("a", 1), ("b", 1))
    Q = mcg.invert_word(P)
    R = ((P, 2), ("a", 1))
    rows = [
        ([(P, 2), (P, -5)], ((Q, 3),)),
        ([("a", 1), (P, 2), (P, -1), ("b", 1)], (("a", 2), ("b", 2))),
        ([("b", 1), (P, 2), (P, -3)], (("a", -1),)),
        ([(Q, 2), (P, 2), (P, -5)], ((Q, 5),)),
        ([(P, 2), (P, -1)], P),
        ([(P, 3), (P, -3), ("a", 1)], (("a", 1),)),
        ([(R, 2), (R, -1), ("a", -1), (P, -2)], ()),
    ]
    for syllables, want in rows:
        got = mcg.normalize(syllables)
        assert got == want, syllables
        assert mcg.eval_word(got) == oracle_matrix(oracle_expand(syllables)), syllables
        assert all(isinstance(tag, str) or e >= 2 for tag, e in got), got


def test_normalize_keeps_unmerged_syllables():
    w = mcg.parse_word("a^3 (ab)^100 B a^-2 (a^2 B)^40")
    letters = [*w, ("b", 0)]
    got = mcg.normalize(letters)
    assert got == w and all(x is y for x, y in zip(got, letters))


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


# --- an independent reading of fibration factorizations -------------------------
# The oracle writes every twist out in full, conjugator, cycle^multiplicity and
# inverted conjugator, reduces the whole concatenation with its own run-length
# stack and multiplies each conjugator letter by letter; it shares no code with
# the walk in mcg, which cuts the letters that neighbouring conjugators share.

SMALL_POWERS = (((("a", 1), ("b", 1)), 3), ((("a", 2), ("b", -1)), 2), ((("b", 1), ("a", -3)), 4))


def oracle_invert(word) -> tuple:
    """Letters reversed and negated; a power keeps its exponent and inverts its base."""
    return tuple((g, -e) if isinstance(g, str) else (oracle_invert(g), e)
                 for g, e in reversed(word))


def oracle_expand(word) -> list:
    """Every power of a syllable tuple written out: a flat list of (generator, exponent)."""
    out = []
    for g, e in word:
        if isinstance(g, str):
            out.append((g, e))
        else:
            base = oracle_expand(g if e > 0 else oracle_invert(g))
            out.extend(base * abs(e))
    return out


def oracle_reduce(syllables) -> tuple:
    """Run-length reduction on a stack: a syllable merges into the top when their
    tags agree, and whatever has exponent 0 is dropped."""
    stack = []
    for g, e in syllables:
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        if e:
            stack.append((g, e))
    return tuple(stack)


def oracle_cycle(m, cycle: str) -> tuple[int, int]:
    u, v = (m[0][0], m[1][0]) if cycle == "a" else (m[0][1], m[1][1])
    g = gcd(u, v)
    u, v = u // g, v // g
    return (u, v) if u > 0 or (u == 0 and v > 0) else (-u, -v)


def oracle_fibration(twists) -> tuple:
    """(word, cycles, is_identity, twist_count) from the full concatenation."""
    full, cycles = [], []
    for t in twists:
        full += [*t.conjugator, (t.cycle, t.multiplicity), *oracle_invert(t.conjugator)]
        m = oracle_matrix(oracle_expand(t.conjugator))
        cycles += [oracle_cycle(m, t.cycle)] * t.multiplicity
    word = oracle_reduce(full)  # the same element, so its matrix decides identity
    is_identity = oracle_matrix(oracle_expand(word)) == ((1, 0), (0, 1))
    return word, tuple(cycles), is_identity, sum(t.multiplicity for t in twists)


def report_fields(report) -> tuple:
    return report.word, report.cycles, report.is_identity, report.twist_count


def random_syllable(rng: random.Random) -> tuple:
    """A letter with exponent in [-3, 3], 0 included, or a small power or its inverse."""
    if rng.random() < 0.2:
        base, e = rng.choice(SMALL_POWERS)
        return (base if rng.random() < 0.5 else oracle_invert(base), e)
    return (rng.choice("ab"), rng.randint(-3, 3))


def random_factorization(rng: random.Random) -> list:
    """Twists whose conjugators, not normalized, share a random start: some are a
    standard factorization under one conjugator, so their product is 1."""
    shared = tuple(random_syllable(rng) for _ in range(rng.randint(0, 10)))
    if rng.random() < 0.15:
        name = rng.choice(sorted(mcg.standard_factorizations()))
        return [Twist(t.cycle, shared + t.conjugator, t.multiplicity)
                for t in mcg.standard_factorizations()[name]]
    twists, prev = [], ()
    for _ in range(rng.randint(1, 6)):
        tail = tuple(random_syllable(rng) for _ in range(rng.randint(0, 3)))
        r = rng.random()
        if r < 0.15:
            c = prev
        elif r < 0.3:
            c = prev + tail
        elif r < 0.4:
            c = ()
        else:
            c = shared[:rng.randint(0, len(shared))] + tail
        twists.append(Twist(rng.choice("ab"), c, rng.choice((1, 1, 1, 2, 3))))
        prev = c
    return twists


def neighbour_cases(u, v) -> set:
    """The shapes two neighbouring conjugators take, named for the coverage counts."""
    common = 0
    while common < min(len(u), len(v)) and u[common] == v[common]:
        common += 1
    powers = [i for i in range(common) if not isinstance(u[i][0], str)]
    cases = set()
    if powers and powers[0] < common - 1:
        cases.add("power inside the shared start")
    if powers and powers[0] == common - 1:
        cases.add("power at the end of the shared start")
    if common < min(len(u), len(v)) and not (isinstance(u[common][0], str)
                                             and isinstance(v[common][0], str)):
        cases.add("power at the first difference")
    if u == v and u:
        cases.add("identical neighbours")
    if len(u) < len(v) and v[:len(u)] == u and u:
        cases.add("prefix of the next")
    return cases


def test_fibration_walk_matches_full_concatenation_oracle():
    rng = random.Random(20261019)
    counts: dict = {}
    for _ in range(2400):
        twists = random_factorization(rng)
        got = report_fields(mcg.verify_fibration(twists, 0))
        assert got == oracle_fibration(twists), twists
        assert mcg.expand_factorization(twists) == got[0]
        conjugators = [t.conjugator for t in twists]
        cases = set().union(*(neighbour_cases(u, v) for u, v in zip(conjugators, conjugators[1:])))
        cases |= {"identity" if got[2] else "not identity"}
        if any(e == 0 for c in conjugators for _g, e in c):
            cases.add("exponent 0")
        if any(x[0] == y[0] for c in conjugators for x, y in zip(c, c[1:])):
            cases.add("adjacent equal tags")
        if () in conjugators:
            cases.add("empty conjugator")
        if any(t.multiplicity > 1 for t in twists):
            cases.add("multiplicity > 1")
        for case in cases:
            counts[case] = counts.get(case, 0) + 1
    floors = {"power inside the shared start": 300, "power at the end of the shared start": 120,
              "power at the first difference": 200, "identical neighbours": 300,
              "prefix of the next": 400, "identity": 150, "not identity": 1500, "exponent 0": 1000,
              "adjacent equal tags": 1000, "empty conjugator": 500, "multiplicity > 1": 1000}
    assert all(counts.get(case, 0) >= floor for case, floor in floors.items()), counts


def test_the_cut_stops_at_a_power():
    # The conjugators share (ab)^40 and no letter before it.  normalize keeps a
    # power next to its inverse (BA)^40, so the word repeats both.
    twists = (Twist("a", mcg.parse_word("(ab)^40 a")), Twist("b", mcg.parse_word("(ab)^40 b")))
    report = mcg.verify_fibration(twists, 2)
    assert mcg.word_to_str(report.word) == "(a b)^40 a (B A)^40 (a b)^40 b (B A)^40"
    assert report.cycles == ((0, 1), (1, 1))
    assert not report.is_identity
    assert report_fields(report) == oracle_fibration(twists)


def test_a_shared_conjugator_is_walked_once():
    # 1,000 twists under one 500-letter word.  Writing out, inverting, reducing
    # and evaluating every conjugator in full handles about 10^6 syllables; the
    # walk compares the shared word once per twist and handles the rest only.
    rng = random.Random(28)
    w = tuple(("ab"[i % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(500))
    twists = [Twist(rng.choice("ab"),
                    mcg.concat(w, tuple((rng.choice("ab"), rng.choice((-2, -1, 1, 2)))
                                        for _ in range(rng.randint(0, 3)))))
              for _ in range(1000)]
    t0 = time.perf_counter()
    report = mcg.verify_fibration(twists, 1000)
    elapsed = time.perf_counter() - t0
    assert report_fields(report) == oracle_fibration(twists)
    assert elapsed < 0.25, elapsed
