import pytest

from blowdown import mcg
from blowdown.mcg import Twist


def test_letter_matrices():
    assert mcg.eval_word(mcg.parse_word("a")) == ((1, 1), (0, 1))
    assert mcg.eval_word(mcg.parse_word("b")) == ((1, 0), (-1, 1))
    assert mcg.eval_word(mcg.parse_word("a^5")) == ((1, 5), (0, 1))
    assert mcg.eval_word(mcg.parse_word("B^3")) == ((1, 0), (3, 1))


def test_word_algebra():
    w = mcg.parse_word("a^2 B a^-1")
    assert mcg.eval_word(mcg.concat(w, mcg.invert_word(w))) == mcg.IDENTITY
    assert mcg.normalize([("a", 2), ("a", -2), ("b", 1)]) == (("b", 1),)
    # parse accepts parenthesized powers and compact/spaced forms alike
    assert mcg.parse_word("(ab)^2") == mcg.parse_word("a b a b")
    assert mcg.parse_word("(a^3b)^3") == mcg.parse_word("a^3 b a^3 b a^3 b")


def test_parse_word_rejects_garbage():
    for bad in ["c", "a^", "(ab", "a**2", "3a"]:
        with pytest.raises(ValueError):
            mcg.parse_word(bad)


def test_word_to_str_round_trip():
    for text in ["a^3 b a^3 b", "A^4 b a^4", "b", "a^-2 b a^2", "a A"]:
        w = mcg.parse_word(text)
        assert mcg.parse_word(mcg.word_to_str(w)) == w


def test_relation_suite_all_hold():
    results = mcg.relation_suite()
    assert len(results) == 7
    for name, ok in results:
        assert ok, name


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
    assert mcg.expand_twist(t) == mcg.parse_word("A^4 b a^4")
    t2 = Twist("a", multiplicity=3)
    assert mcg.expand_twist(t2) == (("a", 3),)


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
