from fractions import Fraction

import pytest

from blowdown import hirzebruch as hj

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


def test_cf_value_inverts_expansion():
    for num, den in [(9, 2), (71 * 71, 71 * 8 - 1), (44 * 44, 44 * 9 - 1)]:
        assert hj.cf_value(hj.hj_expand(num, den)) == Fraction(num, den)


@pytest.mark.parametrize("pq,text", sorted(KNOWN_CHAINS.items()))
def test_known_chains_byte_exact(pq, text):
    chain = hj.chain_for_cpq(*pq)
    assert hj.chain_to_str(chain) == text
    assert hj.identify_cpq(chain) == pq


def test_identify_rejects_non_plumbings():
    assert hj.identify_cpq((-2,)) is None
    assert hj.identify_cpq((-4, -4)) is None
    assert hj.identify_cpq((-9, -2, -2, -2, -2, -3)) is None
    # weights must be <= -2 throughout
    assert hj.identify_cpq((-1, -2)) is None


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
    assert hj.gram_det(chain) == (-1) ** k * p * p


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


def recurrence_coeffs(weights):
    """Independent route to the discriminant coefficients.

    Walking the chain from the far end, phi_1 = 1 and
    phi_{i+1} = -w_i * phi_i - phi_{i-1} (mod p^2) sends each basis vector
    to its image in the cyclic cokernel; this never touches the Smith-form
    code.
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


def test_discriminant_rejects_non_cyclic():
    # an adjacent (-2,-2) pair: |det| = 3 is not a perfect square, so this
    # exercises the non-square rejection, not the non-cyclic one
    with pytest.raises(ValueError):
        hj.discriminant((-2, -2))


def test_discriminant_image():
    data = hj.discriminant(hj.chain_for_cpq(7, 1))
    assert data.image((-7, 0, 0, 0, 0, 0)) == (-7) % 49
    assert data.image((1, 0, 0, 0, 0, 0)) % 7 != 0
    # image is linear: the coefficient tuple itself
    assert data.image((0, 1, 0, 0, 0, 0)) == 9


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
    assert hj.gram_solve(chain, (-2,)) == (Fraction(1, 2),)
    assert hj.gram_inverse_form(chain, (-2,)) == Fraction(-1)
    chain2 = hj.chain_for_cpq(3, 1)
    x = hj.gram_solve(chain2, (-3, 0))
    g = hj.gram_matrix(chain2)
    for i in range(2):
        assert sum(g[i][j] * x[j] for j in range(2)) == Fraction((-3, 0)[i])


def test_gram_matrix_layout():
    g = hj.gram_matrix((-5, -2))
    assert g == ((-5, 1), (1, -2))


def enumerate_box(weights):
    """All characteristic vectors v with |v_i| <= |w_i|, brute force."""
    ranges = [range(w, -w + 1) for w in weights]

    def rec(i, acc):
        if i == len(weights):
            yield tuple(acc)
            return
        for v in ranges[i]:
            if (v - weights[i]) % 2 == 0:
                yield from rec(i + 1, acc + [v])

    yield from rec(0, [])


def test_box_enumeration_c21():
    chain = hj.chain_for_cpq(2, 1)
    box = list(enumerate_box(chain))
    assert len(box) == 5
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert accepted == [(-4,), (-2,), (0,), (2,), (4,)]


def test_box_enumeration_c31():
    chain = hj.chain_for_cpq(3, 1)
    box = list(enumerate_box(chain))
    assert len(box) == 18
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert accepted == [(-5, -2), (-3, 0), (-1, 2), (1, -2), (3, 0), (5, 2)]


def test_box_enumeration_c71_counts():
    chain = hj.chain_for_cpq(7, 1)
    box = list(enumerate_box(chain))
    assert len(box) == 2430
    accepted = [v for v in box if hj.extends_over_ball(chain, v)]
    assert len(accepted) == 348
