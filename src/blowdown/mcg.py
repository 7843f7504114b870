"""Exact word arithmetic in the mapping class group of the torus.

The group is identified with SL(2,Z): the right-handed Dehn twists along the
two standard curves map to

    a -> ((1, 1), (0, 1))        b -> ((1, 0), (-1, 1))

and equality of mapping classes is equality of integer matrices.  A word is a
tuple of syllables; products are taken left to right, so a factorization reads
exactly like the notation it came from.  A syllable is either a run-length
letter (generator tag, nonzero exponent) or a power (base word, e): the base is
a normalized word of at least two syllables and e >= 2.  `parse_word` writes a
power `(w)^e` out in full when that takes at most EXPAND_LIMIT letters, so
short words print letter by letter; a larger power stays symbolic, prints as
`(w)^e` and is evaluated by repeated squaring in O(log e) products.
Parentheses nest at most MAX_DEPTH deep, which also bounds the recursion of
`invert_word`, `eval_word` and `word_to_str` over nested powers, and a
fibration has at most MAX_TWISTS unit twists.  Checking a fibration walks its
conjugators once: each twist compares its conjugator's start with the one before
and inverts, reduces and evaluates only the letters past the start they share,
so a long word that conjugates every twist is reduced about twice and evaluated
once, and the expanded word is never evaluated.  The shared start ends at the
first power, since `normalize` never cancels a power against its inverse.
Everything here is a pure function over immutable values and all integers are
exact.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain
from math import gcd

SL2 = tuple[tuple[int, int], tuple[int, int]]
Letter = tuple[str, int]  # generator tag, nonzero exponent
Power = tuple[tuple, int]  # base word, exponent >= 2
Word = tuple[Letter | Power, ...]

IDENTITY: SL2 = ((1, 0), (0, 1))

# A power is written out when its expansion has at most this many letters:
# long enough for the relations in this module, short enough for a report line.
EXPAND_LIMIT = 64
MAX_DEPTH = 32
# A report lists one vanishing cycle per unit twist; the fibrations here have 12.
MAX_TWISTS = 4096
# A hyperbolic power whose exact matrix provably needs more bits than this is
# refused: (aB)^100000 (about 139k bits) evaluates, (aB)^1000000 raises.
MAX_POWER_BITS = 1 << 18
# One lexeme of word syntax: a letter or `)` with its optional `^` and integer
# exponent, or any other character; blanks before each are skipped.  It is
# compiled on first use (through `re`'s cache), so an import compiles nothing.
_LEXEME = r"\s*(?:([abAB)])(\s*\^\s*([+-]?\d+)?)?|(\S))"


def sl2_mul(m: SL2, n: SL2) -> SL2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _sl2_pow(m: SL2, e: int) -> SL2:
    """m^e for e >= 0 by repeated squaring.

    A hyperbolic m (|trace t| > 2) has an eigenvalue |l| > |t| - 1, and the
    trace of m^e is l^e + l^-e, so some entry of m^e has at least
    e * ((|t| - 1).bit_length() - 1) - 1 bits.  When e * ((|t| - 1).bit_length()
    - 1) exceeds MAX_POWER_BITS, or e < 0, ValueError is raised before any
    product is formed.
    Elliptic and parabolic bases (|t| <= 2) grow at most linearly in e and are
    never refused.
    """
    if e < 0:
        raise ValueError(f"power with negative exponent {e}")
    t = abs(m[0][0] + m[1][1])
    if t > 2 and e * ((t - 1).bit_length() - 1) > MAX_POWER_BITS:
        raise ValueError(f"power with exponent {e} of a matrix with trace {m[0][0] + m[1][1]} "
                         f"needs more than {MAX_POWER_BITS} bits")
    out = IDENTITY
    while True:
        if e & 1:
            out = sl2_mul(out, m)
        e >>= 1
        if not e:
            return out
        m = sl2_mul(m, m)


def normalize(syllables) -> Word:
    """Run-length normal form: merge adjacent syllables with the same tag (a
    generator, or a power's base), drop exponent 0.  A power is opaque: letters
    never merge across it or into it.  Two powers of one base P merge to (P, e)
    for e >= 2, to P's syllables for e = 1, and for e <= -1 to (P^-1, -e) by the
    same two rules; what they merge to merges on with its neighbours."""
    return tuple(_merge([], syllables))


def _merge(out: list, syllables) -> list:
    last = out[-1][0] if out else None  # the tag of out[-1]
    for syl in syllables:  # a syllable that merges with nothing is kept as given
        tag, exp = syl
        if exp and tag != last:
            out.append(syl)
            last = tag
        elif exp:
            exp += out.pop()[1]
            if exp > 1 or (exp and isinstance(tag, str)):
                out.append((tag, exp))
                continue
            if exp:  # a power's base once, or its inverse
                _merge(out, tag if exp == 1 else invert_word(tag if exp == -1 else ((tag, -exp),)))
            last = out[-1][0] if out else None
    return out


def invert_word(w: Word) -> Word:
    return tuple((tag, -exp) if isinstance(tag, str) else (invert_word(tag), exp)
                 for tag, exp in reversed(w))


def concat(*words: Word) -> Word:
    return normalize(chain(*words))


def _power(base: Word, e: int) -> Word:
    """base^e as syllables: written out when short, else one symbolic power."""
    if e < 0:
        base, e = invert_word(base), -e
    if e == 0 or not base:
        return ()
    if len(base) == 1:
        tag, exp = base[0]
        return ((tag, exp * e),)
    # A base holding a power expands to more than EXPAND_LIMIT letters already.
    if e == 1 or (len(base) * e <= EXPAND_LIMIT
                  and all(isinstance(tag, str) for tag, _ in base)):
        return base * e
    return ((base, e),)


def eval_word(w: Word) -> SL2:
    """The matrix of w.  Each letter is a unipotent column operation in closed
    form; a power is its base's matrix raised by repeated squaring."""
    (p, q), (r, s) = IDENTITY
    for tag, exp in w:
        if tag == "a":  # right factor ((1, exp), (0, 1))
            q += exp * p
            s += exp * r
        elif tag == "b":  # right factor ((1, 0), (-exp, 1))
            p -= exp * q
            r -= exp * s
        elif isinstance(tag, tuple):
            (p, q), (r, s) = sl2_mul(((p, q), (r, s)), _sl2_pow(eval_word(tag), exp))
        else:
            raise ValueError(f"unknown generator {tag!r}")
    return ((p, q), (r, s))


def words_equal_in_group(w1: Word, w2: Word) -> bool:
    return eval_word(w1) == eval_word(w2)


def parse_word(text: str) -> Word:
    """Parse word syntax: letters a, b, A (=a^-1), B (=b^-1), `^` exponents,
    and parenthesized groups, e.g. "a^7", "(ab)^6", "A^4 b a^4".  "1" is the
    identity word, as `word_to_str` prints it.  Parentheses nested deeper than
    MAX_DEPTH raise ValueError.
    """
    if text.strip() == "1":
        return ()
    groups: list[list] = [[]]  # the syllables of each open group, outermost first
    for m in re.finditer(_LEXEME, text):
        ch, caret, digits, other = m.groups()
        if other == "(":
            if len(groups) > MAX_DEPTH:
                raise ValueError(f"parentheses nested deeper than {MAX_DEPTH} "
                                 f"at position {m.start(4)}")
            groups.append([])
            continue
        if other:
            raise ValueError(f"unexpected character {other!r} at position {m.start(4)} in {text!r}")
        if ch == ")" and len(groups) == 1:
            raise ValueError(f"unbalanced parenthesis at position {m.start(1)} in {text!r}")
        if caret and not digits:
            raise ValueError(f"expected integer exponent at position {m.end(2)} in {text!r}")
        try:
            e = int(digits) if digits else 1
        except ValueError:  # more digits than Python reads
            raise ValueError(f"exponent too long at position {m.start(3)} in {text!r}") from None
        if ch == ")":
            inner = normalize(groups.pop())
            groups[-1].extend(_power(inner, e))
        else:
            groups[-1].append((ch.lower(), -e if ch.isupper() else e))
    if len(groups) > 1:
        raise ValueError(f"unbalanced parenthesis in {text!r}")
    return normalize(groups[0])


def word_to_str(w: Word) -> str:
    """Letters as `a^3`, `B`; a power as `(...)^e`.  `parse_word` reads it back."""
    return " ".join([(tag if exp == 1 else tag.upper() if exp == -1 else f"{tag}^{exp}" if exp > 0
                      else f"{tag.upper()}^{-exp}") if isinstance(tag, str)
                     else f"({word_to_str(tag)})^{exp}" for tag, exp in w]) or "1"


class Twist(namedtuple("Twist", "cycle conjugator multiplicity", defaults=((), 1))):
    """One group of right-handed Dehn twists: conjugator . cycle^multiplicity . conjugator^-1,
    counted as `multiplicity` separate twists along the image of the core cycle
    under the conjugator.
    """

    __slots__ = ()

    def __new__(cls, cycle: str, conjugator: Word = (), multiplicity: int = 1):
        if cycle not in ("a", "b"):
            raise ValueError(f"twist cycle must be 'a' or 'b', got {cycle!r}")
        if multiplicity < 1:
            raise ValueError("twist multiplicity must be >= 1")
        return super().__new__(cls, cycle, conjugator, multiplicity)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too


def _walk(twists) -> tuple[Word, list[Word]]:
    """The normalized word of the twists and each one's junction c_{i-1}^-1 c_i,
    from conjugators c_i with c_0 = () and, last, c_{n+1} = ()."""
    syllables, junctions, prev = [], [], ()
    for t in (*twists, None):
        c = t.conjugator if t else ()
        k, n = 0, min(len(prev), len(c))
        while k < n and prev[k] == c[k] and isinstance(c[k][0], str):
            k += 1
        junctions.append(invert_word(prev[k:]) + c[k:])
        syllables += junctions[-1]
        if t:
            syllables.append((t.cycle, t.multiplicity))
        prev = c
    return normalize(syllables), junctions


def expand_factorization(twists) -> Word:
    """The word of the twists in order, each as conjugator, cycle^multiplicity
    and inverted conjugator, normalized once.  Normalizing is a free reduction,
    so the letters a conjugator shares at its start with the one before cancel
    and are cut beforehand, up to the first power, which never cancels against
    its inverse.  Past one comparison per shared syllable, it costs the output
    plus each conjugator past that shared start, not 2 * sum |c_i|.
    """
    return _walk(twists)[0]


def normalize_cycle(u: int, v: int) -> tuple[int, int]:
    """Primitive class up to sign; first nonzero coordinate made positive."""
    g = gcd(u, v)
    if g:
        u, v = u // g, v // g
    if u < 0 or (u == 0 and v < 0):
        u, v = -u, -v
    return (u, v)


def _cycle_of(m: SL2, cycle: str) -> tuple[int, int]:
    """The image of the core cycle, (1,0) for a and (0,1) for b, under m."""
    i = 0 if cycle == "a" else 1
    return normalize_cycle(m[0][i], m[1][i])


# FibrationReport.cycles: one entry per unit twist
class FibrationReport(namedtuple("FibrationReport",
                                 "is_identity twist_count expected_twists cycles word",
                                 defaults=((),))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.is_identity and self.twist_count == self.expected_twists


def verify_fibration(twists, expected_twists: int) -> FibrationReport:
    """Check that a twist factorization can be the monodromy of a fibration:

    the expanded word must evaluate to the identity and the number of unit
    twists must match the expected count of singular fibers.  Failures are
    report fields, not exceptions, but over MAX_TWISTS unit twists is an error.
    Each conjugator's matrix m is the one before times its junction's (`_walk`);
    the word J_1 X_1 ... J_n X_n m^-1 is 1 iff the product of the J_i X_i is m,
    so a check costs `expand_factorization` plus evaluating the junctions once.
    """
    if expected_twists < 0:
        raise ValueError("expected_twists must be >= 0")
    twist_count = sum(t.multiplicity for t in twists)
    if twist_count > MAX_TWISTS:
        raise ValueError(f"{twist_count} unit twists; at most {MAX_TWISTS} are allowed")
    word, junctions = _walk(twists)
    m, total, cycles = IDENTITY, IDENTITY, []
    for t, j in zip(twists, junctions):
        mj, k = eval_word(j), t.multiplicity
        m = sl2_mul(m, mj)
        (p, q), (r, s) = sl2_mul(total, mj)  # then times a^k or b^k in closed form
        total = ((p, q + k*p), (r, s + k*r)) if t.cycle == "a" else ((p - k*q, q), (r - k*s, s))
        cycles.extend([_cycle_of(m, t.cycle)] * k)
    return FibrationReport(
        is_identity=total == m,
        twist_count=twist_count,
        expected_twists=expected_twists,
        cycles=tuple(cycles),
        word=word,
    )


def standard_factorizations() -> dict[str, tuple[Twist, ...]]:
    """The three 12-twist torus fibration factorizations used throughout:

    I7: a^7 b^(a^-4) b^(a^-1) a^2 b     (an I7 fiber and five fishtails)
    I8: a^8 b^(a^-2) b^2 b^(a^2)        (an I8 fiber and four fishtails)
    I6: a^6 b^(a^-3) b^2 (a^(b^-1))^3   (an I6 fiber and six fishtails)
    """
    return {
        "I7": (
            Twist("a", (), 7),
            Twist("b", parse_word("A^4")),
            Twist("b", parse_word("A")),
            Twist("a", (), 2),
            Twist("b"),
        ),
        "I8": (
            Twist("a", (), 8),
            Twist("b", parse_word("A^2")),
            Twist("b", (), 2),
            Twist("b", parse_word("a^2")),
        ),
        "I6": (
            Twist("a", (), 6),
            Twist("b", parse_word("A^3")),
            Twist("b", (), 2),
            Twist("a", parse_word("B"), 3),
        ),
    }


def relation_suite() -> list[tuple[str, bool]]:
    """Verify the stock of relations the fibration constructions rest on.

    Each item is (display name, holds in the group).  All seven are expected
    to pass; they are rechecked rather than assumed.
    """
    p = parse_word
    cube = p("(a^3b)^3")
    long_word = p("a^3 b a^2 b^2 a^2 b a")
    fact = {name: expand_factorization(tw) for name, tw in standard_factorizations().items()}
    checks = [
        ("(ab)^6 = 1", p("(ab)^6"), ()),
        ("(a^3b)^3 = 1", cube, ()),
        ("(a^3b)^3 = a^7 b^(a^-4) b^(a^-1) a^2 b", cube, fact["I7"]),
        ("a^3 b a^2 b^2 a^2 b a = 1", long_word, ()),
        ("a^3 b a^2 b^2 a^2 b a = a^8 b^(a^-2) b^2 b^(a^2)", long_word, fact["I8"]),
        ("(a^3b)^3 = a^6 b^(a^-3) b^2 (a^(b^-1))^3", cube, fact["I6"]),
        ("b = a^(ab)", p("b"), expand_factorization((Twist("a", parse_word("ab")),))),
    ]
    return [(name, words_equal_in_group(lhs, rhs)) for name, lhs, rhs in checks]
