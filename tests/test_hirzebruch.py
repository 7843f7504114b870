import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from blowdown import hirzebruch as hj
from ledger_rows import (det, enumerate_box, gram_matrix, gram_solve, smith_coeffs,
                         thomas_inverse_form)

# The nine chains that actually occur in the bundled constructions, frozen.
KNOWN_CHAINS = {
    (2, 1): "(-4)",
    (3, 1): "(-5,-2)",
    (7, 1): "(-9,-2,-2,-2,-2,-2)",
    (71, 8): "(-9,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2)",
    (44, 9): "(-5,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2)",
    (79, 44): "(-2,-5,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-3)",
    (89, 9): "(-10,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2,-2)",
    (169, 89): "(-2,-10,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2,-3)",
    (301, 62): "(-5,-7,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2,-2)",
    (540, 301): "(-2,-5,-7,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2,-3)",
    (212, 55): "(-4,-7,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2)",
}


def test_hj_expand_basics():
    assert hj.hj_expand(4, 1) == (4,)
    assert hj.hj_expand(9, 2) == (5, 2)
    assert hj.hj_expand(7, 5) == (2, 2, 3)


def test_hj_expand_validates():
    with pytest.raises(ValueError):
        hj.hj_expand(4, 2)  # not coprime
    with pytest.raises(ValueError):
        hj.hj_expand(2, 3)  # num <= den
    with pytest.raises(ValueError):
        hj.hj_expand(5, 0)


def test_hj_expand_names_a_number_past_2000_bits_by_its_size():
    big = 10 ** 5000  # 16,610 bits, more digits than Python writes by default
    for num, den, message in (
            (big, big, "need num > den >= 1, got a fraction with a 16610-bit numerator"),
            (big, 10, "num and den of a fraction with a 16610-bit numerator are not coprime"),
            (10, big, "need num > den >= 1, got a fraction with a 16610-bit denominator"),
            (3, 2 ** 2000, "need num > den >= 1, got a fraction with a 2001-bit denominator"),
            (3, 2 ** 2000 - 1, f"need num > den >= 1, got 3/{2 ** 2000 - 1}"),
            (4, 2, "num and den of 4/2 are not coprime")):
        with pytest.raises(ValueError) as exc:
            hj.hj_expand(num, den)
        assert str(exc.value) == message


def cf_value(coeffs) -> Fraction:
    """Evaluate c1 - 1/(c2 - 1/(...)) exactly: the oracle for `hj_expand`."""
    x = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        x = c - 1 / x
    return x


def test_cf_value_inverts_expansion():
    for num, den in [(9, 2), (71 * 71, 71 * 8 - 1), (44 * 44, 44 * 9 - 1)]:
        assert cf_value(hj.hj_expand(num, den)) == Fraction(num, den)


@pytest.mark.parametrize("pq,text", sorted(KNOWN_CHAINS.items()))
def test_known_chains_byte_exact(pq, text):
    chain = hj.chain_for_cpq(*pq)
    assert hj.chain_to_str(chain) == text
    assert hj.identify_cpq(chain) == pq


def test_identify_rejects_non_plumbings():
    assert hj.identify_cpq((-2,)) is None
    assert hj.identify_cpq((-4, -4)) is None
    assert hj.identify_cpq((-9, -2, -2, -2, -2, -3)) is None
    # weights must be <= -2 throughout, and there must be one
    for chain in [(-1, -2), (), (3, -2), (-2, 0, -2)]:
        assert hj.identify_cpq(chain) is None, chain


def test_parse_chain_round_trip():
    for text in KNOWN_CHAINS.values():
        assert hj.chain_to_str(hj.parse_chain(text)) == text
    with pytest.raises(ValueError):
        hj.parse_chain("(-4,")
    with pytest.raises(ValueError):
        hj.parse_chain("")


@pytest.mark.parametrize("pq", sorted(KNOWN_CHAINS))
def test_gram_det_sign_and_magnitude(pq):
    p, _q = pq
    chain = hj.chain_for_cpq(*pq)
    k = len(chain)
    assert det(gram_matrix(chain)) == (-1) ** k * p * p


# Frozen discriminant coefficient tuples (normalized so the first entry is 1).
DISCRIMINANT_COEFFS = {
    (2, 1): (1,),
    (3, 1): (1, 5),
    (5, 1): (1, 7, 13, 19),
    (7, 1): (1, 9, 17, 25, 33, 41),
    (71, 8): (1, 9, 89, 169, 249, 329, 409, 489, 1058, 1627, 2196, 2765, 3334,
              3903, 4472),
    (44, 9): (1, 5, 54, 103, 152, 201, 250, 299, 348, 745, 1142, 1539),
    (79, 44): (1, 2, 9, 97, 185, 273, 361, 449, 537, 625, 1338, 2051, 2764),
    (89, 9): (1, 10, 109, 208, 307, 406, 505, 604, 703, 1505, 2307, 3109, 3911,
              4713, 5515, 6317, 7119),
    (169, 89): (1, 2, 19, 207, 395, 583, 771, 959, 1147, 1335, 2858, 4381, 5904,
                7427, 8950, 10473, 11996, 13519),
    (301, 62): (1, 5, 34, 369, 704, 1039, 1374, 1709, 2044, 2379, 5093, 7807,
                10521, 13235, 15949, 34612, 53275, 71938),
    (540, 301): (1, 2, 9, 61, 662, 1263, 1864, 2465, 3066, 3667, 4268, 9137,
                 14006, 18875, 23744, 28613, 62095, 95577, 129059),
    (212, 55): (1, 4, 27, 266, 505, 744, 983, 1222, 1461, 3161, 4861, 6561,
                8261, 9961, 21622, 33283),
}


@pytest.mark.parametrize("pq", sorted(DISCRIMINANT_COEFFS))
def test_discriminant_frozen(pq):
    data = hj.discriminant(hj.chain_for_cpq(*pq))
    assert data.order == pq[0] ** 2
    assert data.coeffs == DISCRIMINANT_COEFFS[pq]


@pytest.mark.parametrize("pq", sorted(set(KNOWN_CHAINS) | set(DISCRIMINANT_COEFFS)))
def test_reversal_maps_cpq_to_cp_p_minus_q(pq):
    # (pq - 1)(p(p - q) - 1) = 1 mod p^2: the identity recognition rests on
    p, q = pq
    assert hj.identify_cpq(hj.chain_for_cpq(p, q)[::-1]) == (p, p - q)


def recurrence_coeffs(weights):
    """The discriminant coefficients by the continuant recurrence.

    Walking the chain from the first sphere, phi_1 = 1 and
    phi_{i+1} = -w_i * phi_i - phi_{i-1} (mod p^2) sends each basis vector
    to its image in the cyclic cokernel.  This is the algorithm `discriminant`
    itself runs, so it checks the sign convention, not the mathematics; the
    independent oracle is the Smith reduction below.
    """
    pq = hj.identify_cpq(tuple(weights))
    assert pq is not None
    order = pq[0] ** 2
    phi_prev, phi = 0, 1
    out = [1]
    for w in weights[:-1]:
        phi_prev, phi = phi, (-w * phi - phi_prev) % order
        out.append(phi)
    # closing relation: the recurrence applied at the last weight returns 0
    w_last = weights[-1]
    assert (-w_last * phi - phi_prev) % order == 0
    return tuple(out)


@pytest.mark.parametrize("pq", sorted(DISCRIMINANT_COEFFS))
def test_discriminant_matches_recurrence(pq):
    chain = hj.chain_for_cpq(*pq)
    data = hj.discriminant(chain)
    rec = recurrence_coeffs(chain)
    # the two routes can differ by a unit of Z_{p^2}; normalizing the
    # recurrence by its own first coefficient (already 1) they must agree
    assert data.coeffs == rec


def test_discriminant_matches_smith():
    rng = random.Random(20041216)
    seen = set()
    while len(seen) < 200:
        p = rng.randint(2, 400)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) != 1 or len(hj.chain_for_cpq(p, q)) > 30:
            continue
        seen.add((p, q))
    for pq in sorted(seen):
        chain = hj.chain_for_cpq(*pq)
        data = hj.discriminant(chain)
        assert (data.order, data.coeffs) == smith_coeffs(chain), pq


@pytest.mark.parametrize("chain", [(-2, -2), (0,), (-1, -1), (-3, -2, -2, -3), (5,)])
def test_discriminant_rejects_bad_chains(chain):
    # |det| = 3 is not a perfect square; (0,) and (-1,-1) have det 0;
    # (-3,-2,-2,-3) has |det| = 16 but would read as C_{4,2}, and gcd(4, 2) = 2;
    # (5,) has a positive weight
    with pytest.raises(ValueError):
        hj.discriminant(chain)


def test_discriminant_is_fast_on_long_chains():
    chain = hj.chain_for_cpq(401, 1)
    assert len(chain) == 400
    start = time.perf_counter()
    data = hj.discriminant(chain)
    assert time.perf_counter() - start < 0.25
    assert data.order == 401 ** 2
    assert data.coeffs[0] == 1
    for column in gram_matrix(chain):
        assert image(data, column) == 0


def image(data, v):
    """The class of v in the cyclic cokernel that `data` presents."""
    assert len(v) == len(data.coeffs)
    return sum(x * c for x, c in zip(v, data.coeffs)) % data.order


def test_discriminant_image():
    data = hj.discriminant(hj.chain_for_cpq(7, 1))
    assert image(data, (-7, 0, 0, 0, 0, 0)) == (-7) % 49
    assert image(data, (1, 0, 0, 0, 0, 0)) % 7 != 0
    # image is linear: the coefficient tuple itself
    assert image(data, (0, 1, 0, 0, 0, 0)) == 9


def test_canonical_vector():
    for pq in sorted(KNOWN_CHAINS):
        chain = hj.chain_for_cpq(*pq)
        v = hj.canonical_vector(chain)
        assert v == tuple(w + 2 for w in chain)
        assert hj.gram_inverse_form(chain, v) == Fraction(-len(chain))
        assert hj.extends_over_ball(chain, v)


def test_extends_over_ball_examples():
    chain = hj.chain_for_cpq(7, 1)
    assert hj.extends_over_ball(chain, (-7, 0, 0, 0, 0, 0))
    assert hj.extends_over_ball(chain, (7, 0, 0, 0, 0, 0))
    assert not hj.extends_over_ball(chain, (5, 0, 0, 0, 0, 0))
    assert not hj.extends_over_ball(chain, (1, 0, 0, 0, 0, 0))
    # parity violation: even entry against odd weight
    assert not hj.extends_over_ball(chain, (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        hj.extends_over_ball(chain, (1, 0))


def test_gram_solve_and_inverse_form():
    chain = (-4,)
    assert gram_solve(chain, (-2,)) == (Fraction(1, 2),)
    assert hj.gram_inverse_form(chain, (-2,)) == -1
    assert type(hj.gram_inverse_form(chain, (-2,))) is int
    # 1/-4 is not an integer: the sweep raises rather than round
    with pytest.raises(ValueError, match=r"^v\^T G\^-1 v = N_k/D_k = 1/-4 is not an integer$"):
        hj.gram_inverse_form(chain, (1,))
    with pytest.raises(ValueError, match=r"^length mismatch$"):
        hj.gram_inverse_form(chain, (1, 2))
    chain2 = hj.chain_for_cpq(3, 1)
    x = gram_solve(chain2, (-3, 0))
    g = gram_matrix(chain2)
    for i in range(2):
        assert sum(g[i][j] * x[j] for j in range(2)) == Fraction((-3, 0)[i])


def test_gram_matrix_layout():
    g = gram_matrix((-5, -2))
    assert g == ((-5, 1), (1, -2))


def test_det_matches_the_permutation_expansion():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 5)
        a = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(k)] for _ in range(k)]
        leibniz = sum(
            (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
            * math.prod(a[i][j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(k)))
        assert det(a) == leibniz, a


def _oracle_chains(rng):
    """C_{p,q} with p < 400, C_{p,q} of length 40-60 and short arbitrary chains.

    The long ones are the benchmark's range; the short ones have length <= 12
    and weights in [-9,-2].
    """
    chains = set()
    while len(chains) < 200:
        p = rng.randrange(2, 400)
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            chains.add(hj.chain_for_cpq(p, q))
    long_chains = set()
    while len(long_chains) < 100:
        p = rng.randrange(40, 1000)
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1 and 40 <= len(chain := hj.chain_for_cpq(p, q)) <= 60:
            long_chains.add(chain)
    short = {tuple(rng.randint(-9, -2) for _ in range(rng.randint(1, 12))) for _ in range(300)}
    return sorted(chains) + sorted(long_chains) + sorted(short)


def check_inverse_form(chain, v, expected) -> bool:
    """`gram_inverse_form` is the oracle's value as an int where that is an
    integer, and raises ValueError elsewhere; True if it was an integer."""
    if expected.denominator != 1:
        with pytest.raises(ValueError, match="is not an integer$"):
            hj.gram_inverse_form(chain, v)
        return False
    got = hj.gram_inverse_form(chain, v)
    assert got == expected and type(got) is int, (chain, v)
    return True


def test_inverse_form_matches_thomas_oracle():
    rng = random.Random(19940614)
    cases = integral = 0
    # integral inputs come from their own stream, so rng's vectors are as
    # before: v = G w has v^T G^-1 v = w^T G w, and on a C_{p,q} chain a v of
    # residue 0 mod p is p*x in coker G = Z_{p^2}, where the discriminant form,
    # v^T G^-1 v mod 1, takes x^2 * p^2 * q(g), an integer
    extra = random.Random(2023)
    for chain in _oracle_chains(rng):
        vectors = [hj.canonical_vector(chain)]
        vectors += [tuple(rng.randint(-30, 30) for _ in chain) for _ in range(2)]
        for v in vectors:
            integral += check_inverse_form(chain, v, thomas_inverse_form(chain, v))
            cases += 1
        g = gram_matrix(chain)
        w = [extra.randint(-9, 9) for _ in chain]
        v = tuple(sum(a * b for a, b in zip(row, w)) for row in g)
        form = sum(x * y for x, y in zip(v, w))
        assert thomas_inverse_form(chain, v) == form
        assert check_inverse_form(chain, v, form), (chain, v)
        integral += 1
        data = hj.chain_data(chain)
        if data is not None:
            v = [extra.randint(-30, 30) for _ in chain]
            v[0] -= data.invariants(v)[1]  # coeffs[0] is 1: the residue is now 0
            assert check_inverse_form(chain, v, thomas_inverse_form(chain, v)), (chain, v)
            integral += 1
    assert cases >= 1500
    assert integral >= 1000, integral


def test_inverse_form_fails_where_thomas_fails():
    # mixed signs reach singular leading minors; both sweeps must then raise
    rng = random.Random(5)
    raised = 0
    for _ in range(2000):
        chain = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 6)))
        v = tuple(rng.randint(-30, 30) for _ in chain)
        try:
            expected = thomas_inverse_form(chain, v)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                hj.gram_inverse_form(chain, v)
            raised += 1
            continue
        check_inverse_form(chain, v, expected)
    assert 100 <= raised <= 1900, raised


def test_box_enumeration_c21():
    chain = hj.chain_for_cpq(2, 1)
    box = enumerate_box(chain)
    assert len(box) == 5
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert accepted == [(-4,), (-2,), (0,), (2,), (4,)]


def test_box_enumeration_c31():
    chain = hj.chain_for_cpq(3, 1)
    box = enumerate_box(chain)
    assert len(box) == 18
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert accepted == [(-5, -2), (-3, 0), (-1, 2), (1, -2), (3, 0), (5, 2)]


def test_box_enumeration_c71_counts():
    chain = hj.chain_for_cpq(7, 1)
    box = enumerate_box(chain)
    assert len(box) == 2430
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert len(accepted) == 348


def wahl_chains(max_len, min_weight):
    """C_{p,q} chains grown from (-4) by the two Wahl moves, within the box."""
    out, todo = set(), [(-4,)]
    while todo:
        c = todo.pop()
        if c in out or len(c) > max_len or min(c) < min_weight:
            continue
        out.add(c)
        todo.append((-2,) + c[:-1] + (c[-1] - 1,))
        todo.append((c[0] - 1,) + c[1:] + (-2,))
    return out


def test_identify_cpq_matches_wahl_moves():
    box = (c for k in range(1, 6) for c in itertools.product(range(-9, -1), repeat=k))
    identified = {c for c in box if hj.identify_cpq(c) is not None}
    assert identified == wahl_chains(5, -9)
    assert len(identified) == 31
