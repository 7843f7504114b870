import math
import random
import re
import time
import tracemalloc
from functools import partial
from itertools import combinations, product

import pytest

from blowdown import hirzebruch, swledger as sw
from blowdown.swledger import LinExpr
from ledger_rows import QN_ROWS, XN_ROWS, smith_coeffs, thomas_inverse_form


def test_linexpr_arithmetic():
    n = LinExpr(0, 1)
    assert n + n == LinExpr(0, 2)
    assert -n == LinExpr(0, -1)
    assert n.shift(3) == LinExpr(3, 1)
    assert n.subst(7) == 7
    assert LinExpr(1, -2).subst(3) == -5


def test_linexpr_str():
    assert str(LinExpr(0, 1)) == "0 + 1*n"
    assert str(LinExpr(1, -2)) == "1 - 2*n"
    assert str(LinExpr(3, 0)) == "3 + 0*n"


@pytest.mark.parametrize("text,expect", [
    ("n", (0, 1)),
    ("-n", (0, -1)),
    ("3", (3, 0)),
    ("1-2*n", (1, -2)),
    ("0 + 1*n", (0, 1)),
    ("n-1", (-1, 1)),
    ("-n-1", (-1, -1)),
    ("2n", (0, 2)),
    ("--n", (0, 1)),
    ("+-3", (-3, 0)),
    ("1--2", (3, 0)),
])
def test_parse_linexpr(text, expect):
    assert sw.parse_linexpr(text) == LinExpr(*expect)


def test_parse_linexpr_rejects():
    for bad in ["", "m", "n+", "*n", "**n", "-*n", "2**n"]:
        with pytest.raises(ValueError):
            sw.parse_linexpr(bad)


# --- the seed's oracle: the general multiply-and-divide algorithm --------------------
# Laurent polynomials as {exponent: (c0, c1)} for c0 + c1*n, zero terms dropped.


def pair_times(a, b):
    if a[1] and b[1]:
        raise ValueError("product would be quadratic in n")
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def poly_clean(coeffs):
    return {e: c for e, c in coeffs.items() if c != (0, 0)}


def twist_poly(k):
    """The k-twist knot's Alexander polynomial k*t - (2k-1) + k*t^-1 (k None:
    symbolic n), written out term by term."""
    lead, mid = ((0, 1), (1, -2)) if k is None else ((k, 0), (1 - 2 * k, 0))
    return {1: lead, 0: mid, -1: lead}


def poly_times(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            c = pair_times(c1, c2)
            s = out.get(e1 + e2, (0, 0))
            out[e1 + e2] = (s[0] + c[0], s[1] + c[1])
    return poly_clean(out)


def divide_by_t_minus_tinv(p):
    """Exact division by t - t^-1; raises if a remainder survives."""
    p, q = dict(p), {}
    floor = min(p, default=0)
    while p:
        e = max(p)
        if e < floor:
            raise ValueError("division by (t - t^-1) leaves a remainder")
        c = p.pop(e)
        q[e - 1] = c
        r = p.get(e - 2, (0, 0))
        p[e - 2] = (r[0] + c[0], r[1] + c[1])
        p = poly_clean(p)
    return q


def seed_oracle(params):
    """(prod Delta_i(t^2) - 1)/(t - t^-1) by products and long division."""
    prod = {0: (1, 0)}
    for k in params:
        poly = twist_poly(k)
        assert tuple(map(sum, zip(*poly.values()))) == (1, 0)  # Delta(1) = 1
        prod = poly_times(prod, {2 * e: c for e, c in poly.items()})
    c = prod.get(0, (0, 0))
    prod[0] = (c[0] - 1, c[1])
    return divide_by_t_minus_tinv(poly_clean(prod))


def seed_rows(led):
    return [(e.cls, (e.value.c0, e.value.c1), e.square, e.verified) for e in led.entries]


def test_alexander_twist_coefficient():
    """Every twist knot is 1 + n*(t - 2 + t^-1), so only n is kept; its
    written-out polynomial evaluates to 1 at t = 1."""
    assert sw.alexander_twist(1) == LinExpr(1, 0)
    assert sw.alexander_twist(5) == LinExpr(5, 0)
    assert sw.alexander_twist() == LinExpr(0, 1)
    for k in (1, 5, None):
        assert tuple(map(sum, zip(*twist_poly(k).values()))) == (1, 0)
    assert twist_poly(1) == {1: (1, 0), 0: (-1, 0), -1: (1, 0)}


def test_seed_closed_form_single_twist():
    # e_1 = n: n*(t - t^-1)
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="one")
    assert {e.cls: e.value for e in led.entries} == {(1,): LinExpr(0, 1), (-1,): LinExpr(0, -1)}
    assert seed_oracle([None]) == {1: (0, 1), -1: (0, -1)}


def test_seed_closed_form_two_twists():
    # e_1 = 1 + n, e_2 = n: (1 + n)*x + n*x^3, x = t - t^-1
    led = sw.knot_surgery_ledger([sw.alexander_twist(1), sw.alexander_twist()], label="two")
    want = {3: (0, 1), 1: (1, -2), -1: (-1, 2), -3: (0, -1)}
    assert {e.cls: e.value for e in led.entries} == {(j,): LinExpr(*c) for j, c in want.items()}
    assert seed_oracle([1, None]) == want


def test_oracle_division_remainder_raises():
    with pytest.raises(ValueError, match="remainder"):
        divide_by_t_minus_tinv({0: (1, 0)})


def test_seed_matches_the_multiply_and_divide_oracle():
    rng = random.Random(1717)
    for _ in range(2000):
        params = [rng.randint(-6, 6) for _ in range(rng.randint(0, 8))]
        if params and rng.random() < 0.5:
            params[rng.randrange(len(params))] = None  # one symbolic knot at most
        led = sw.knot_surgery_ledger([sw.alexander_twist(k) for k in params], label="r")
        want = seed_oracle(params)
        top = max(map(abs, want), default=0)
        assert seed_rows(led) == [((j,), want[j], 0, abs(j) == top) for j in sorted(want)], params
    for params in ([None, None], [None, 2, None]):
        with pytest.raises(ValueError, match="quadratic in n"):
            seed_oracle(params)
        with pytest.raises(ValueError, match="quadratic in n"):
            sw.knot_surgery_ledger([sw.alexander_twist(k) for k in params], label="two n")


def test_knot_surgery_ledger_single():
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="base")
    assert led.basis == ("T",)
    assert led.e == 12 and led.sigma == -8
    assert [(e.cls, str(e.value), e.square, e.verified) for e in led.entries] == [
        ((-1,), "0 - 1*n", 0, True),
        ((1,), "0 + 1*n", 0, True),
    ]


def test_knot_surgery_ledger_two_knots():
    led = sw.knot_surgery_ledger(
        [sw.alexander_twist(1), sw.alexander_twist()], label="two")
    by_cls = {e.cls: e for e in led.entries}
    assert set(by_cls) == {(-3,), (-1,), (1,), (3,)}
    assert by_cls[(3,)].value == LinExpr(0, 1)
    assert by_cls[(1,)].value == LinExpr(1, -2)
    # only the extreme exponents carry quoted values
    assert by_cls[(3,)].verified and by_cls[(-3,)].verified
    assert not by_cls[(1,)].verified and not by_cls[(-1,)].verified


def test_knot_count_is_checked_before_any_product():
    products = []

    class Counted(int):
        # the knot's coefficient: each product with it is recorded
        def __mul__(self, other):
            products.append(1)
            return int(self) * other

        __rmul__ = __mul__

    twists = [LinExpr(Counted(3), 0)] * sw.MAX_KNOTS
    assert sw.knot_surgery_ledger(twists, label="bound").entries
    # one product per (knot i, level k <= i) of the e_k recurrence: with
    # concrete knots no e_(k-1) has an n term to multiply
    assert len(products) == sw.MAX_KNOTS * (sw.MAX_KNOTS + 1) // 2
    products.clear()
    with pytest.raises(ValueError, match=fr"^{sw.MAX_KNOTS + 1} knots; at most {sw.MAX_KNOTS}"):
        sw.knot_surgery_ledger(iter(twists + twists[:1]), label="over")
    assert products == []


def test_empty_ledger():
    led = sw.knot_surgery_ledger([], label="R-side")
    assert tuple(led.entries) == ()
    blown = sw.blow_up_ledger(led, 2)
    assert tuple(blown.entries) == () and blown.entries.m == 2


def test_blow_up_ledger():
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="base")
    blown = sw.blow_up_ledger(led, 2, names=("E1", "E2"))
    assert blown.basis == ("T", "E1", "E2")
    assert blown.e == 14 and blown.sigma == -10
    assert len(blown.entries) == 8
    ent = blown.entry((1, 1, -1))
    assert ent.value == LinExpr(0, 1)
    assert ent.square == -2
    # formal dimension is preserved by blow-up
    d0 = sw.dimension_from_square(0, 12, -8)
    assert sw.dimension_from_square(ent.square, blown.e, blown.sigma) == d0


def test_blow_up_ledger_rejects_a_repeated_name():
    # two tracked classes named E1 could never be looked up by name
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="base")
    with pytest.raises(ValueError, match=r"^tracked class 'E1' is named twice$"):
        sw.blow_up_ledger(led, 2, names=("E1", "E1"))
    with pytest.raises(ValueError, match=r"^tracked class 'T' already exists$"):
        sw.blow_up_ledger(led, 1, names=("T",))
    with pytest.raises(ValueError, match=r"^count must be >= 1$"):
        sw.blow_up_ledger(led, 0)
    with pytest.raises(ValueError, match=r"^expected 2 names, got 1$"):
        sw.blow_up_ledger(led, 2, ("E1",))


def test_blow_up_ledger_default_names():
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="base")
    blown = sw.blow_up_ledger(led, 3)
    assert blown.basis == ("T", "E1", "E2", "E3")


def test_dimension():
    # square 0 class on the unsurgered elliptic surface: dimension 0
    assert sw.dimension_from_square(0, 12, -8) == 0
    assert sw.dimension_from_square(-11, 23, -19) == 0
    assert type(sw.dimension_from_square(4, 12, -8)) is int
    # square 2 would give dimension 1/2: raised, not returned
    with pytest.raises(ValueError, match=r"^formal dimension 1/2; need a nonnegative integer$"):
        sw.dimension_from_square(2, 12, -8)


def qn_blown_ledger():
    led = sw.knot_surgery_ledger(
        [sw.alexander_twist(1), sw.alexander_twist()], label="V_n")
    return sw.blow_up_ledger(led, 2, names=("E1", "E2"))


QN_CHAIN = hirzebruch.chain_for_cpq(7, 1)


def test_rational_blowdown_ledger_survivors():
    blown = qn_blown_ledger()
    assert len(blown.entries) == 16
    result = sw.rational_blowdown_ledger(
        blown, QN_CHAIN, QN_ROWS, corrections=(True, True), new_label="Q_n")
    led = result.ledger
    assert led.label == "Q_n"
    assert led.e == 8 and led.sigma == -4
    assert [(e.cls, e.value) for e in led.entries] == [
        ((-3, -1, -1), LinExpr(0, -1)),
        ((3, 1, 1), LinExpr(0, 1)),
    ]
    # dimension-preserving: new square is the old one minus v^T G^-1 v
    assert led.entry((-3, -1, -1)).square == 4
    assert result.restriction_of((-3, -1, -1)) == (-7, 0, 0, 0, 0, 0)
    assert result.value_set_of((3, 1, 1)) == (LinExpr(0, 1),)
    with pytest.raises(KeyError):
        result.restriction_of((1, 1, 1))


def test_rational_blowdown_requires_both_corrections():
    blown = qn_blown_ledger()
    with pytest.raises(ValueError):
        sw.rational_blowdown_ledger(blown, QN_CHAIN, QN_ROWS, corrections=(True, False))
    with pytest.raises(ValueError):
        sw.rational_blowdown_ledger(blown, QN_CHAIN, QN_ROWS, corrections=(False, True))


def test_rational_blowdown_validates_shapes():
    blown = qn_blown_ledger()
    with pytest.raises(ValueError):
        sw.rational_blowdown_ledger(blown, QN_CHAIN, QN_ROWS[:2], corrections=(True, True))
    with pytest.raises(ValueError):
        sw.rational_blowdown_ledger(blown, (-2, -2), QN_ROWS, corrections=(True, True))
    rows = (QN_ROWS[0][:-1],) + QN_ROWS[1:]
    with pytest.raises(ValueError, match=r"^chain-pairing row length does not match the chain$"):
        sw.rational_blowdown_ledger(blown, QN_CHAIN, rows, corrections=(True, True))


def test_blowdown_checks_each_survivors_formal_dimension():
    # e = 12, sigma = -8: d = square / 4.  A zero row keeps every entry, and
    # the first survivor in class order with a bad dimension is reported.
    def ledger(squares):
        entries = [sw.Entry((i + 1,), LinExpr(1, 0), sq) for i, sq in enumerate(squares)]
        return sw.Ledger("L", 12, -8, ("G",), entries)

    result = sw.rational_blowdown_ledger(
        ledger([0, 4, 0]), (-4,), [(0,)], corrections=(True, True))
    assert [e.square for e in result.ledger.entries] == [0, 4, 0]
    for squares, message in [
        ([0, 2], "class (2,) has formal dimension 1/2"),
        ([4, 0, -4], "class (3,) has formal dimension -1"),
        ([-4, 2], "class (1,) has formal dimension -1"),
    ]:
        with pytest.raises(ValueError, match=fr"^{re.escape(message)}; need a nonnegative integer$"):
            sw.rational_blowdown_ledger(ledger(squares), (-4,), [(0,)], corrections=(True, True))
    # blown up twice, a base entry's four survivors share its dimension, and
    # the first of them in class order is named
    with pytest.raises(ValueError, match=r"^class \(2, -1, -1\) has formal dimension 1/2;"):
        sw.rational_blowdown_ledger(sw.blow_up_ledger(ledger([0, 2]), 2), (-4,), [(0,)] * 3,
                                    corrections=(True, True))


def test_ledger_rejects_a_class_whose_length_differs_from_its_basis():
    # a third coordinate on a two-class basis would be dropped by the
    # blow-down's restriction sum, not reported
    entries = [sw.Entry((2, 0, 5), LinExpr(1, 0), 0), sw.Entry((2, 0, 7), LinExpr(-1, 0), 0)]
    message = r"^class \(2, 0, 5\) has 3 coordinates for a basis of 2$"
    with pytest.raises(ValueError, match=message):
        sw.Ledger("L", 12, -8, ("T", "E1"), entries)
    with pytest.raises(ValueError, match=r"^class \(1,\) has 1 coordinates for a basis of 2$"):
        sw.Ledger("L", 12, -8, ("T", "E1"), [sw.Entry((1,), LinExpr(1, 0), 0)])



def test_ledger_over_a_view_checks_its_basis_length():
    # a view's first base class must fit the basis too; a longer basis would
    # print a report and then fail every lookup
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y")
    message = r"^class \(-1,\) has 1 coordinates for a basis of 2$"
    with pytest.raises(ValueError, match=message):
        seed._replace(basis=("T", "E1"))
    with pytest.raises(ValueError, match=message):
        sw.Ledger("Y", 12, -8, ("T", "E1"), seed.entries)
    blown = sw.blow_up_ledger(seed, 2)
    with pytest.raises(ValueError, match=r"^class \(-1, 0, 0\) has 3 coordinates for a basis of 2$"):
        sw.Ledger("Y", 14, -10, ("T", "E1"), sw.Entries(blown.entries.base, (1, 2)))
    assert blown._replace(label="Z").entries == blown.entries
    assert sw.Ledger("E", 12, -8, ("T", "E1"), sw.Entries((), (1,))).entries.base == ()

def test_entries_reject_a_base_class_that_is_not_zero_at_a_free_place():
    # such a base entry would iterate as classes that lookup cannot find
    with pytest.raises(ValueError, match=r"^base class \(1, 5\) is not 0 at free place 1$"):
        sw.Ledger("x", 12, -8, ("T", "E1"),
                  sw.Entries((sw.Entry((1, 5), LinExpr(1, 0), -1),), (1,)))
    good = sw.Entry((1, 0, 0), LinExpr(1, 0), -1)
    bad = sw.Entry((2, 0, -1), LinExpr(1, 0), -1)
    with pytest.raises(ValueError, match=r"^base class \(2, 0, -1\) is not 0 at free place 2$"):
        sw.Entries((good, bad), (1, 2))
    # free-major: the first free place at which any entry is nonzero, then the
    # first entry nonzero there, even when an earlier entry is bad later on
    later = sw.Entry((3, 4, 0), LinExpr(1, 0), -1)
    with pytest.raises(ValueError, match=r"^base class \(3, 4, 0\) is not 0 at free place 1$"):
        sw.Entries((good, bad, later), (1, 2))
    led = sw.Ledger("x", 12, -8, ("T", "E1", "E2"), sw.Entries((good,), (1, 2)))
    assert [ent.cls for ent in led.entries] == [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    assert all(led.entry(ent.cls) == ent for ent in led.entries)


def test_blowdown_names_the_full_class_in_a_dimension_error_with_an_inner_free_sign():
    # G of square 2 (dimension 1/2) blown up at E1, away from the chain, and
    # E2 on C_{3,1}: only E2 = +1 survives, and E1 stays a free sign between
    # G and E2, so the class named has -1 at E1's place, not at the end
    led = sw.blow_up_ledger(
        sw.Ledger("L", 12, -8, ("G",), [sw.Entry((1,), LinExpr(1, 0), 2)]), 2)
    message = r"^class \(1, -1, 1\) has formal dimension 1/2; need a nonnegative integer$"
    with pytest.raises(ValueError, match=message):
        sw.rational_blowdown_ledger(led, (-5, -2), [(-3, -2), (0, 0), (-2, 0)],
                                    corrections=(True, True))


def test_chambered_blowdown_ledger():
    blown = qn_blown_ledger()
    result = sw.chambered_blowdown_ledger(blown, QN_CHAIN, QN_ROWS, new_label="Xish")
    assert result.chambered
    vs = result.value_set_of((3, 1, 1))
    assert set(vs) == {LinExpr(-1, 1), LinExpr(0, 1), LinExpr(1, 1)}


def test_substitute_and_minimality():
    blown = qn_blown_ledger()
    result = sw.rational_blowdown_ledger(
        blown, QN_CHAIN, QN_ROWS, corrections=(True, True), new_label="Q_n")
    concrete = sw.substitute(result.ledger, 2)
    assert concrete.entry((3, 1, 1)).value == LinExpr(2, 0)
    assert sw.minimality_report(concrete)
    # n = 0 kills the values; minimality is no longer pinned
    assert not sw.minimality_report(sw.substitute(result.ledger, 0))
    with pytest.raises(ValueError):
        sw.minimality_report(result.ledger)


def test_minimality_rejects_blowup_pattern():
    # a pair {K+E, K-E} of equal value with E^2 = -1 is exactly what a
    # blow-up produces, so such a ledger never certifies minimality
    entries = (
        sw.Entry(cls=(1, -1), value=LinExpr(3, 0), square=-1),
        sw.Entry(cls=(1, 1), value=LinExpr(3, 0), square=-1),
    )
    led = sw.Ledger(label="x", e=13, sigma=-9, basis=("T", "E1"), entries=entries)
    assert not sw.minimality_report(led)


def test_ledger_report_deterministic():
    led = sw.knot_surgery_ledger(
        [sw.alexander_twist(1), sw.alexander_twist()], label="V_n")
    assert sw.ledger_report(led) == (
        "ledger V_n: e=12 sigma=-8 entries=4\n"
        "  (-3) -> 0 - 1*n\n"
        "  (-1) -> -1 + 2*n  [unverified]\n"
        "  (1) -> 1 - 2*n  [unverified]\n"
        "  (3) -> 0 + 1*n"
    )


def test_ledger_report_of_a_wide_blow_up_writes_base_lines():
    # 63 names: 2^64 entries, reported as the two base lines with +-1 signs
    blown = sw.blow_up_ledger(sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n"), 63)
    start = time.perf_counter()
    text = sw.ledger_report(blown)
    assert time.perf_counter() - start < 0.1
    signs = ",+-1" * 63
    assert text == (
        f"ledger Y_n: e=75 sigma=-71 entries={2 << 63}\n"
        f"  (-1{signs}) -> 0 - 1*n\n"
        f"  (1{signs}) -> 0 + 1*n"
    )


def test_entries_of_equal_width_compare_by_base():
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    a, b = sw.blow_up_ledger(seed, 63), sw.blow_up_ledger(seed, 63)
    assert a.entries == b.entries and a == b
    base = a.entries.base
    changed = sw.Entries((base[0]._replace(value=LinExpr(0, -2)),) + base[1:], a.entries.free)
    assert a.entries != changed
    wide, twin = sw.blow_up_ledger(seed, 20).entries, sw.blow_up_ledger(seed, 20).entries
    start = time.perf_counter()
    assert wide == twin
    assert time.perf_counter() - start < 0.1


def test_entries_of_different_width_compare_by_rebasing(monkeypatch):
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    wide = sw.blow_up_ledger(seed, 20).entries
    one = sw.blow_up_ledger(seed, 1)
    written = sw.Ledger(one.label, one.e, one.sigma, one.basis, tuple(one.entries))
    narrow = sw.blow_up_ledger(written, 19).entries
    assert (wide.m, narrow.m) == (20, 19)
    start = time.perf_counter()
    assert wide == narrow and narrow == wide
    assert time.perf_counter() - start < 0.1
    base = narrow.base
    changed = sw.Entries(base[:1] + (base[1]._replace(value=LinExpr(1, 1)),) + base[2:],
                         narrow.free)
    assert wide != changed and changed != wide
    # different counts are unequal before any entry is read
    monkeypatch.setattr(sw, "_spread", None)
    three, two = sw.blow_up_ledger(seed, 3).entries, sw.blow_up_ledger(seed, 2).entries
    assert three != two and two != three


def test_conjugation_symmetry_concrete():
    """Charge conjugation: the ledger is symmetric under negating classes."""
    led = sw.knot_surgery_ledger(
        [sw.alexander_twist(2), sw.alexander_twist(3)], label="c")
    for ent in led.entries:
        mirror = led.entry(tuple(-x for x in ent.cls))
        assert mirror.value == -ent.value
        assert mirror.verified == ent.verified


# --- independent oracles for the fast paths --------------------------------------


def random_ledger(rng, rank):
    """Distinct random classes in [-3, 3]^rank (so +-T, +-3T, even and negative
    coefficients), random values and flags; squares 0 on e = 12, sigma = -8,
    so every class has formal dimension 0, as on a knot-surgery seed."""
    classes = {tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(1, 12))}
    entries = tuple(
        sw.Entry(cls, LinExpr(rng.randint(-3, 3), rng.randint(-2, 2)), 0, rng.random() < 0.5)
        for cls in sorted(classes)
    )
    # draws kept so that each seed still gives the cases the survivor-count
    # floors of the tests below were set on
    for _ in range(rank):
        rng.randint(-2, 2)
    return sw.Ledger("seed", 12, -8, tuple(f"G{i}" for i in range(rank)), entries)


def eager_blow_up(ledger, count, names):
    """The blow-up as a sorted `replace` over every sign pattern."""
    entries = [
        ent._replace(cls=ent.cls + signs, square=ent.square - count)
        for ent in ledger.entries
        for signs in product((1, -1), repeat=count)
    ]
    return sw.Ledger(ledger.label, ledger.e + count, ledger.sigma - count,
                     ledger.basis + names, tuple(sorted(entries, key=lambda e: e.cls)))


def test_blow_up_ledger_matches_eager_construction():
    rng = random.Random(1997)
    for _ in range(60):
        base = random_ledger(rng, rng.randint(1, 3))
        count = rng.randint(1, 4)
        names = tuple(f"E{i}" for i in range(1, count + 1))
        assert sw.blow_up_ledger(base, count, names) == eager_blow_up(base, count, names)


def test_blown_entries_view_reads_like_the_eager_tuple():
    rng = random.Random(5)
    for _ in range(40):
        base = random_ledger(rng, rng.randint(1, 3))
        first, second = rng.randint(1, 3), rng.randint(1, 3)
        names = tuple(f"E{i}" for i in range(1, first + second + 1))
        lazy = sw.blow_up_ledger(sw.blow_up_ledger(base, first, names[:first]),
                                 second, names[first:])
        eager = eager_blow_up(eager_blow_up(base, first, names[:first]), second, names[first:])
        assert lazy == eager
        view, entries = lazy.entries, tuple(eager.entries)
        # a stacked blow-up pads the base with a 0 per name, lowers its
        # squares by the count and adds to the free places; the eager
        # construction is written out (m = 0)
        m = first + second
        assert (view.base, view.m) == (tuple(e._replace(cls=e.cls + (0,) * m, square=e.square - m)
                                             for e in base.entries.base), m)
        assert eager.entries.m == 0
        assert len(view) == len(entries) and tuple(view) == entries and view == eager.entries
        classes = {ent.cls: ent for ent in entries}
        rank = len(lazy.basis)
        probes = list(classes) + [tuple(rng.randint(-3, 3) for _ in range(rank))
                                  for _ in range(30)]
        probes += [(1,) * (rank - 1), (1,) * (rank + 1)]
        for cls in probes:
            if cls in classes:
                assert lazy.entry(cls) == lazy.entry(list(cls)) == classes[cls]
            else:
                for probe in (cls, list(cls)):
                    with pytest.raises(KeyError, match=re.escape(f"no ledger entry for class {cls}")):
                        lazy.entry(probe)


def random_view(rng):
    """A view of m <= 6 free places, leading, interleaved or trailing, over a
    sorted base of 1-6 classes, some of them repeated, each with its own value."""
    m, fixed = rng.randint(0, 6), rng.randint(1, 4)
    free = tuple(sorted(rng.sample(range(m + fixed), m)))
    core = [tuple(rng.randint(-2, 2) for _ in range(fixed)) for _ in range(rng.randint(1, 4))]
    core += rng.choices(core, k=rng.randint(0, 2))  # duplicate base classes
    base = []
    for i, c in enumerate(sorted(core)):
        coords = iter(c)
        cls = tuple(0 if j in free else next(coords) for j in range(m + fixed))
        base.append(sw.Entry(cls, LinExpr(i, rng.randint(-1, 1)), -m, rng.random() < 0.5))
    return sw.Entries(tuple(base), free)


def written_out(view):
    """(class, base index) per entry: every sign pattern written into each base
    class, stably sorted by class, so ties keep base order."""
    out = []
    for i, ent in enumerate(view.base):
        for signs in product((-1, 1), repeat=view.m):
            cls = list(ent.cls)
            for place, sign in zip(view.free, signs):
                cls[place] = sign
            out.append((tuple(cls), i))
    return sorted(out, key=lambda pair: pair[0])


def test_view_reads_match_a_sorted_write_out():
    rng = random.Random(2026)
    for _ in range(300):
        view = random_view(rng)
        order = written_out(view)
        assert list(view) == [sw.Entry(cls, *view.base[i][1:]) for cls, i in order]
        marked = sw.Entries(tuple(ent._replace(restriction=(i,)) for i, ent in enumerate(view.base)),
                            view.free)
        ledger = sw.Ledger("v", 0, 0, tuple(f"G{j}" for j in range(len(view.base[0].cls))), marked)
        chambered = rng.random() < 0.5
        result = sw.BlowdownResult(ledger, chambered)
        assert list(result.restrictions) == [(cls, (i,)) for cls, i in order]
        shifts = (-1, 0, 1) if chambered else (0,)
        assert list(result.value_sets) == [
            (cls, tuple(LinExpr(view.base[i].value.c0 + d, view.base[i].value.c1) for d in shifts))
            for cls, i in order]


def eager_blowdown(ledger, chain, rows, chambered):
    """Survivors by scanning every entry: the dense restriction sum, then the
    characteristic test and the Smith-form discriminant image mod p."""
    order, coeffs = smith_coeffs(chain)
    p = math.isqrt(order)
    entries, restrictions, value_sets = [], [], []
    for ent in sorted(ledger.entries, key=lambda e: e.cls):
        r = tuple(sum(c * row[i] for c, row in zip(ent.cls, rows)) for i in range(len(chain)))
        if any((x - w) % 2 for x, w in zip(r, chain)):
            continue
        if sum(x * c for x, c in zip(r, coeffs)) % p:
            continue
        square = ent.square - thomas_inverse_form(chain, r)
        assert square.denominator == 1, (chain, r)
        entries.append((ent.cls, ent.value, int(square), ent.verified))
        restrictions.append((ent.cls, r))
        v = ent.value
        shifted = (LinExpr(v.c0 - 1, v.c1), v, LinExpr(v.c0 + 1, v.c1))
        value_sets.append((ent.cls, tuple(sorted(shifted)) if chambered else (v,)))
    return entries, restrictions, value_sets


def cpq_chains_by_length(max_len):
    out = {}
    for p in range(2, 40):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                chain = hirzebruch.chain_for_cpq(p, q)
                if len(chain) <= max_len:
                    out.setdefault(len(chain), set()).add(chain)
    return {k: sorted(v) for k, v in out.items()}


def blow_up_both_ways(base, counts):
    """`base` blown up `counts[0]`, then `counts[1]`, ... times: lazily through
    `blow_up_ledger`, and written out through `eager_blow_up`."""
    lazy = eager = base
    for count in counts:
        lazy = sw.blow_up_ledger(lazy, count)
        eager = eager_blow_up(eager, count, lazy.basis[len(eager.basis):])
    return lazy, eager


def check_blowdown(lazy, eager, chain, rows):
    """Blow down the lazy ledger, its copy with the entries written out (m = 0,
    so the filter only scans) and, by the eager scan, the eager construction;
    all three must agree.  Returns the survivor count."""
    flat = lazy._replace(entries=tuple(lazy.entries))
    for chambered in (False, True):
        if chambered:
            result = sw.chambered_blowdown_ledger(lazy, chain, rows)
            assert sw.chambered_blowdown_ledger(flat, chain, rows) == result
        else:
            result = sw.rational_blowdown_ledger(lazy, chain, rows, corrections=(True, True))
            assert sw.rational_blowdown_ledger(
                flat, chain, rows, corrections=(True, True)) == result
        entries, restrictions, value_sets = eager_blowdown(eager, chain, rows, chambered)
        assert [(e.cls, e.value, e.square, e.verified)
                for e in result.ledger.entries] == entries, (chain, rows)
        assert list(result.restrictions) == restrictions
        assert list(result.value_sets) == value_sets
        assert (result.ledger.e, result.ledger.sigma) == (
            lazy.e - len(chain), lazy.sigma + len(chain))
    return len(entries)


def test_blowdown_filter_matches_eager_scan():
    rng = random.Random(20040528)
    chains = cpq_chains_by_length(8)

    def row(chain):
        # zero, even and weight-parity rows all occur in the bundled constructions
        kind = rng.randrange(4)
        if kind == 0:
            return (0,) * len(chain)
        if kind == 1:
            return tuple(rng.choice((-2, 0, 2)) for _ in chain)
        if kind == 2:
            return tuple(rng.choice((-3, -1, 1, 3) if w % 2 else (-2, 0, 2)) for w in chain)
        return tuple(rng.randint(-3, 3) for _ in chain)

    survivors = cases_with_survivors = tested = 0
    for _ in range(100):
        chain = rng.choice(chains[rng.randint(1, 8)])
        base = random_ledger(rng, rng.randint(1, 3))
        blowups = rng.choice((0, 0, 1, 2, 3, 4))
        lazy, eager = blow_up_both_ways(base, (blowups,) if blowups else ())
        rows = [row(chain) for _ in lazy.basis]
        kept = check_blowdown(lazy, eager, chain, rows)
        tested += len(eager.entries)
        survivors += kept
        cases_with_survivors += bool(kept)
    # the comparison is not vacuous: both outcomes occur often
    assert cases_with_survivors >= 20 and 150 <= survivors <= tested // 2


def test_blowdown_walk_matches_eager_scan_on_stacked_blowups_and_large_p():
    # stacked blow-ups, exceptional rows of residue 0 but nonzero mask, and
    # chains with p >= 100, where a random sign pattern rarely survives
    rng = random.Random(1997)
    chains = [chain for p in range(100, 130) for q in range(1, p) if math.gcd(p, q) == 1
              if len(chain := hirzebruch.chain_for_cpq(p, q)) <= 11]
    small = [c for cs in cpq_chains_by_length(6).values() for c in cs]

    def row_pool(chain, p):
        # the canonical vector, a Gram column plus p times a {-1, 0, 1} vector
        # (residue 0, nonzero mask) and a random vector; rows drawn from a
        # small pool repeat, so their masks and residues can cancel
        j, sign = rng.randrange(len(chain)), rng.choice((-1, 1))
        column = tuple(sign * (w if i == j else int(abs(i - j) == 1)) + p * rng.randint(-1, 1)
                       for i, w in enumerate(chain))
        return [tuple(w + 2 for w in chain), column, tuple(rng.randint(-3, 3) for _ in chain)]

    def scaled(c, row):
        return tuple(c * x for x in row)

    large_p_survivors = stacked_survivors = zero_residue_rows = 0
    unpruned_cases = unpruned_survivors = 0
    for case in range(60):
        chain = rng.choice(chains if case % 2 else small)
        order, coeffs = smith_coeffs(chain)
        p = math.isqrt(order)
        base = random_ledger(rng, rng.randint(1, 2))
        counts = (rng.randint(1, 3), rng.randint(1, 3)) if case % 3 else (rng.randint(1, 6),)
        lazy, eager = blow_up_both_ways(base, counts)
        pool = row_pool(chain, p)
        rows = [scaled(rng.choice((-2, -1, 1, 2)), rng.choice(pool)) for _ in lazy.basis]
        kept = check_blowdown(lazy, eager, chain, rows)
        zero_residue_rows += sum(
            1 for r in rows[len(base.basis):]
            if sum(x * c for x, c in zip(r, coeffs)) % p == 0 and any(x % 2 for x in r))
        large_p_survivors += kept if p >= 100 else 0
        stacked_survivors += kept if len(counts) == 2 else 0
        # p above 2^ceil(m/2): the walk's top levels accept every residue
        if kept and p > 1 << (sum(counts) + 1) // 2:
            unpruned_cases += 1
            unpruned_survivors += kept
    assert large_p_survivors >= 20 and stacked_survivors >= 20 and zero_residue_rows >= 20, (
        large_p_survivors, stacked_survivors, zero_residue_rows)
    # only 9 of the 60 cases keep any survivor, so the floor counts survivors
    assert unpruned_cases >= 5 and unpruned_survivors >= 20, (unpruned_cases, unpruned_survivors)


def test_blowdown_keeps_trailing_zero_rows_as_free_signs():
    # the last z exceptional rows are zero (blow-ups away from the chain), and
    # often one more before a nonzero row: the result keeps every sign with a
    # zero row free, as its view's m, and must read like the eager scan of the
    # written-out blow-up and equal the blow-down of the written-out twin
    rng = random.Random(2601)
    chains = [c for cs in cpq_chains_by_length(6).values() for c in cs]
    free_cases = inner_cases = free_kept = inner_kept = 0
    for case in range(80):
        chain = rng.choice(chains)
        base = random_ledger(rng, rng.randint(1, 2))
        count = rng.randint(1, 5)
        lazy, eager = blow_up_both_ways(base, (count,))
        z = rng.randint(1, count) if case % 4 else 0
        # canonical-type rows for the seed's classes and nonzero even rows for
        # the walked signs, so an odd class is characteristic and the residue
        # decides
        rows = [tuple(w + 2 + 2 * rng.randint(-1, 1) for w in chain) for _ in base.basis]
        rows += [(2 * rng.choice((-1, 1)),) + tuple(2 * rng.randint(-1, 1) for _ in chain[1:])
                 for _ in range(count - z)]
        inner = count - z >= 2 and rng.random() < 0.8
        if inner:
            rows[rng.randrange(len(base.basis), len(rows) - 1)] = (0,) * len(chain)
            inner_cases += 1
        rows += [(0,) * len(chain)] * z
        kept = check_blowdown(lazy, eager, chain, rows)
        flat = lazy._replace(entries=tuple(lazy.entries))
        zero_rows = sum(not any(row) for row in rows[len(base.basis):])
        results = []
        for blowdown in (partial(sw.rational_blowdown_ledger, corrections=(True, True)),
                         sw.chambered_blowdown_ledger):
            result, twin = blowdown(lazy, chain, rows), blowdown(flat, chain, rows)
            results.append(result)
            assert result.ledger.entries.m == zero_rows and twin.ledger.entries.m == 0
            assert result == twin and twin == result and not result != twin
            assert all(len(ent.restriction) == len(chain) for ent in result.ledger.entries.base)
            for cls, r in twin.restrictions:
                assert result.restriction_of(cls) == r
                assert result.value_set_of(list(cls)) == twin.value_set_of(cls)
        # the exact and the chambered result differ in their value sets
        assert results[0] != results[1] and not results[0] == results[1]
        free_cases += z >= 1
        free_kept += bool(kept) if z else 0
        inner_kept += bool(kept) if inner else 0
    assert free_cases >= 20 and inner_cases >= 20, (free_cases, inner_cases)
    assert free_kept >= 20 and inner_kept >= 12, (free_kept, inner_kept)


def test_blowdown_walk_accepts_every_start_residue_above_the_capped_levels():
    # 4 names on C_{p,q} with p > 2^2, so the residue sets stop two levels
    # below the top.  The T row is the canonical vector plus 2j on the first
    # sphere (coefficient 1, p odd), so as j runs over Z_p the start residue
    # does too; the exceptional rows are even, so every class is characteristic.
    rng = random.Random(4)
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    for p, q in ((11, 3), (13, 5), (17, 4)):
        chain = hirzebruch.chain_for_cpq(p, q)
        canonical = hirzebruch.canonical_vector(chain)
        exceptional = [(2 * rng.randrange(1, p),) + (0,) * (len(chain) - 1) for _ in range(4)]
        lazy, eager = blow_up_both_ways(seed, (4,))
        kept = [check_blowdown(lazy, eager, chain,
                               [(canonical[0] + 2 * j,) + canonical[1:]] + exceptional)
                for j in range(p)]
        assert sum(map(bool, kept)) >= p // 2, (p, kept)


def test_blowdown_walk_matches_eager_scan_where_p_sits_just_above_the_level_cap():
    # 11 walked names on chains with 2^6 < p < 2^7: X_n's C_{71,8} with its
    # rows, and C_{67,8} and C_{73,8} with the canonical T row and random even
    # exceptional rows.  On the last two, walking back from the target, some
    # level would hold more than 2^ceil(m/2) = 64 of the p residues, so the
    # level rule decides where the backward pass stops.
    rng = random.Random(6771)
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    lazy, eager = blow_up_both_ways(seed, (11,))
    assert check_blowdown(lazy, eager, hirzebruch.chain_for_cpq(71, 8), XN_ROWS) == 2
    for p, q in ((67, 8), (73, 8)):
        chain = hirzebruch.chain_for_cpq(p, q)
        canonical = hirzebruch.canonical_vector(chain)
        exceptional = [(2 * rng.randrange(1, p),) + (0,) * (len(chain) - 1) for _ in range(11)]
        _order, coeffs = smith_coeffs(chain)
        reach, widest = {0}, 1
        for row in reversed(exceptional):
            x = sum(a * c for a, c in zip(row, coeffs))
            reach = {(s + a * x) % p for s in reach for a in (-1, 1)}
            widest = max(widest, len(reach))
        assert 1 << 6 < widest <= p < 1 << 7, (p, widest)
        assert check_blowdown(lazy, eager, chain, [canonical] + exceptional) >= 20


def test_ledgers_built_out_of_order_are_sorted_by_class():
    # construction sorts a hand-built ledger's entries into a written-out view,
    # so lookups, blow-ups and blow-downs read it like the sorted one
    rng = random.Random(8)
    chains = [c for cs in cpq_chains_by_length(4).values() for c in cs]
    survivors = 0
    for _ in range(30):
        ordered = random_ledger(rng, rng.randint(1, 3))
        shuffled = list(ordered.entries)
        rng.shuffle(shuffled)
        led = ordered._replace(entries=shuffled)
        assert led == ordered and led.entries.m == 0
        assert tuple(led.entries) == tuple(ordered.entries)
        assert sw.blow_up_ledger(led, 2).entries == sw.blow_up_ledger(ordered, 2).entries
        for ent in shuffled:
            assert led.entry(ent.cls) == ent
        count = rng.randint(0, 2)
        lazy, eager = blow_up_both_ways(led, (count,) if count else ())
        chain = rng.choice(chains)
        rows = [tuple(rng.randint(-3, 3) for _ in chain) for _ in lazy.basis]
        survivors += check_blowdown(lazy, eager, chain, rows)
    assert survivors >= 10, survivors


def test_blowdown_filter_cost_follows_entries_and_rank():
    # X_n's seed +-T blown up at E1..E11 (the scenario's rows) and at Z1..Z4
    # away from the chain: 65,536 entries.  The Z signs are free, so the
    # survivors are X_n's two classes times 16 sign patterns.
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    names = tuple(f"E{i}" for i in range(1, 12)) + ("Z1", "Z2", "Z3", "Z4")
    blown = sw.blow_up_ledger(seed, 15, names)
    assert len(blown.entries) == 65536
    rows = XN_ROWS + ((0,) * 15,) * 4
    start = time.perf_counter()
    result = sw.chambered_blowdown_ledger(blown, hirzebruch.chain_for_cpq(71, 8), rows)
    assert time.perf_counter() - start < 0.5
    assert {e.cls for e in result.ledger.entries} == {
        (s,) * 12 + z for s in (1, -1) for z in product((1, -1), repeat=4)}


def test_blowdown_with_no_characteristic_class_builds_no_residue_level():
    # C_{1000003,621999} (32 spheres) after 21 names on the +-T seed.  The T
    # row is the canonical vector and each exceptional row differs from it by
    # an even vector, so all 22 rows have the chain's parity and every class's
    # mask is their XOR, 0: no class is characteristic.  The filter must see
    # that before building residue levels, which could hold 2^11 residues.
    rng = random.Random(21)
    chain = hirzebruch.chain_for_cpq(1000003, 621999)
    canonical = hirzebruch.canonical_vector(chain)
    rows = (canonical,) + tuple(
        tuple(x + 2 * rng.randint(-3, 3) for x in canonical) for _ in range(21))
    test = hirzebruch.chain_data(chain)
    assert len(chain) == 32 and test.parity != 0
    assert {test.invariants(row)[0] for row in rows} == {test.parity}
    blown = sw.blow_up_ledger(sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n"), 21)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = sw.chambered_blowdown_ledger(blown, chain, rows)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tuple(result.ledger.entries) == ()
    assert elapsed < 0.1 and peak < 1_000_000, (elapsed, peak)


LARGE_P_NAMES = 24


def meet_in_the_middle_survivors(chain, rows):
    """(class, restriction) of each survivor of the +-T seed blown up at
    len(rows) - 1 names, sorted: the residue sums of the two halves of the
    signs joined on the Smith-form residue 0 mod p (Horowitz-Sahni), then the
    parity check on each joined class."""
    order, coeffs = smith_coeffs(chain)
    p = math.isqrt(order)
    residues = [sum(x * c for x, c in zip(row, coeffs)) % p for row in rows]
    half = len(rows) // 2

    def sums(part):
        return [(signs, sum(a * x for a, x in zip(signs, part)) % p)
                for signs in product((-1, 1), repeat=len(part))]

    right = {}
    for signs, s in sums(residues[half:]):
        right.setdefault(s, []).append(signs)
    out = []
    for left, s in sums(residues[:half]):
        for signs in right.get(-s % p, ()):
            cls = left + signs
            r = tuple(sum(c * row[i] for c, row in zip(cls, rows)) for i in range(len(chain)))
            if all((x - w) % 2 == 0 for x, w in zip(r, chain)):
                out.append((cls, r))
    return sorted(out)


def test_blowdown_on_a_large_p_chain_costs_half_the_signs():
    # C_{1000003,621999} (32 spheres) after 24 names on the +-T seed.  The T
    # row is the canonical vector and each exceptional row differs from it by
    # an even vector, so with an even number of names every one of the 2^25
    # classes is characteristic and only the residue mod p decides.  The
    # backward residue sets stop at 2^12, so neither time nor memory follows p.
    rng = random.Random(24)
    chain = hirzebruch.chain_for_cpq(1000003, 621999)
    canonical = hirzebruch.canonical_vector(chain)
    rows = (canonical,) + tuple(
        tuple(x + 2 * rng.randint(-3, 3) for x in canonical) for _ in range(LARGE_P_NAMES))
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    blown = sw.blow_up_ledger(seed, LARGE_P_NAMES)
    start = time.perf_counter()
    result = sw.chambered_blowdown_ledger(blown, chain, rows)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        sw.chambered_blowdown_ledger(blown, chain, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    survivors = meet_in_the_middle_survivors(chain, rows)
    assert survivors and list(result.restrictions) == survivors
    assert [e.cls for e in result.ledger.entries] == [cls for cls, _r in survivors]
    assert elapsed < 0.5 and peak < 20_000_000, (elapsed, peak)



def test_blowdown_on_a_large_p_chain_builds_restrictions_for_survivors_only():
    # the large-p guard's row recipe at 28 names (2^29 classes, 492 survivors):
    # a sign pattern carries its residue, not its 32-entry restriction, so the
    # walk's peak stays near its 2^14 patterns
    rng = random.Random(24)
    chain = hirzebruch.chain_for_cpq(1000003, 621999)
    canonical = hirzebruch.canonical_vector(chain)
    rows = (canonical,) + tuple(
        tuple(x + 2 * rng.randint(-3, 3) for x in canonical) for _ in range(28))
    blown = sw.blow_up_ledger(sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n"), 28)
    tracemalloc.start()
    try:
        result = sw.chambered_blowdown_ledger(blown, chain, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    survivors = meet_in_the_middle_survivors(chain, rows)
    assert len(survivors) == 492 and list(result.restrictions) == survivors
    assert peak < 10_000_000, peak


def test_blowdown_filter_memory_follows_survivors():
    # the same 65,536-entry X_n blow-up and chambered blow-down: the view and
    # the residue walk build the 32 survivors, not the 65,536 entries
    tracemalloc.start()
    try:
        seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
        names = tuple(f"E{i}" for i in range(1, 12)) + ("Z1", "Z2", "Z3", "Z4")
        blown = sw.blow_up_ledger(seed, 15, names)
        result = sw.chambered_blowdown_ledger(
            blown, hirzebruch.chain_for_cpq(71, 8), XN_ROWS + ((0,) * 15,) * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.ledger.entries) == 32
    assert peak < 1_000_000, peak


# --- one Entry per survivor, lazy substitution --------------------------------------

# the benchmark's Q_n ledger: the two-knot seed blown up at E1, E2 and at Z1..Z8
# away from the chain (rows of zero), 4,096 entries of which 512 survive C_{7,1}
QN_WIDE_NAMES = ("E1", "E2") + tuple(f"Z{i}" for i in range(1, 9))
QN_WIDE_ROWS = QN_ROWS + ((0,) * 6,) * 8


QN_ROW_OF = dict(zip(("T",) + QN_WIDE_NAMES, QN_WIDE_ROWS))


def qn_wide_ledger(knot=None, names=QN_WIDE_NAMES):
    seed = sw.knot_surgery_ledger([sw.alexander_twist(1), sw.alexander_twist(knot)], label="V_n")
    return sw.blow_up_ledger(seed, len(names), tuple(names))


def qn_wide_blowdowns(blown):
    return (sw.rational_blowdown_ledger(blown, QN_CHAIN, QN_WIDE_ROWS, corrections=(True, True)),
            sw.chambered_blowdown_ledger(blown, QN_CHAIN, QN_WIDE_ROWS))


def test_blowdown_builds_one_entry_per_survivor(monkeypatch):
    blown = qn_wide_ledger()
    built = []
    entry = sw.Entry

    def counting_entry(*args, **kwargs):
        built.append(entry(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sw, "Entry", counting_entry)
    for blowdown in (
        lambda: sw.rational_blowdown_ledger(blown, QN_CHAIN, QN_WIDE_ROWS, corrections=(True, True)),
        lambda: sw.chambered_blowdown_ledger(blown, QN_CHAIN, QN_WIDE_ROWS),
    ):
        built.clear()
        entries = blowdown().ledger.entries
        # Z1..Z8 stay free signs: each walked survivor is built once, as a
        # base entry of the result, and the 512 entries are read from them
        assert len(built) == 2 and all(a is b for a, b in zip(built, entries.base))
        assert entries.m == 8 and len(entries) == 512 and len(list(entries)) == 512


def test_reading_value_sets_builds_no_entry(monkeypatch):
    # the 512-entry Q_n results are read from their two base entries
    results = qn_wide_blowdowns(qn_wide_ledger())
    built = []
    entry = sw.Entry

    def counting_entry(*args, **kwargs):
        built.append(entry(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sw, "Entry", counting_entry)
    for result in results:
        value_sets = list(result.value_sets)
        assert len(value_sets) == 512 and built == []
        assert [cls for cls, _v in value_sets] == [cls for cls, _r in result.restrictions]
        assert all(values == result.value_set_of(cls) for cls, values in value_sets)


def test_blowdown_restricts_each_walked_survivor_once(monkeypatch):
    # Q_n's 4,096 entries: two walked survivors, each restricted once, and no
    # base entry restricted to be tested
    blown = qn_wide_ledger()
    restricted = []
    build = sw._restricted

    def counting(cls, *args):
        restricted.append(cls)
        return build(cls, *args)

    monkeypatch.setattr(sw, "_restricted", counting)
    results = qn_wide_blowdowns(blown)
    assert restricted == [ent.cls for result in results for ent in result.ledger.entries.base]
    assert len(restricted) == 4

def test_blow_up_pads_each_base_entry_once(monkeypatch):
    # a 4,096-entry written-out ledger blown up at 63 names: one padded Entry
    # per base entry, and none of the 4,096 << 63 descendants
    blown = qn_wide_ledger()
    written = blown._replace(entries=tuple(blown.entries))
    built = []
    entry = sw.Entry

    def counting_entry(*args, **kwargs):
        built.append(entry(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sw, "Entry", counting_entry)
    start = time.perf_counter()
    wide = sw.blow_up_ledger(written, 63)
    elapsed = time.perf_counter() - start
    assert len(built) == 4096 and sw.entry_count(wide) == 4096 << 63
    assert elapsed < 0.1, elapsed


def qn_placed_ledger(names):
    """The benchmark's Q_n ledger blown up in the order `names`, a
    permutation of QN_WIDE_NAMES, and its chain-pairing rows."""
    blown = qn_wide_ledger(names=names)
    return blown, [QN_ROW_OF[g] for g in blown.basis]


def placed(e1, e2):
    """Z1..Z8 in order, with E1 put at index e1 and E2 at index e2 > e1."""
    names = list(QN_WIDE_NAMES[2:])
    names.insert(e1, "E1")
    names.insert(e2, "E2")
    return names


# Z1 Z2 E1 Z3 Z4 Z5 E2 Z6 Z7 Z8: free signs before, between and after E1 E2
INNER_PLACEMENT = placed(2, 6)


def test_blowdown_keeps_zero_rows_free_wherever_they_sit(monkeypatch):
    # each of the 45 places of E1 and E2 among Z1..Z8, as the benchmark's
    # shuffle draws them: every Z sign stays free, the blow-down builds only
    # the two walked survivors, and it equals its written-out twin's.  The two
    # blow-downs filter alike, so the costly twin (4,096 entries scanned) is
    # blown down once, chambered, and the exact result matches the chambered
    # one's ledger and restrictions.
    built = []
    entry = sw.Entry

    def counting_entry(*args, **kwargs):
        built.append(entry(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sw, "Entry", counting_entry)
    for e1, e2 in combinations(range(10), 2):
        blown, rows = qn_placed_ledger(placed(e1, e2))
        flat = blown._replace(entries=tuple(blown.entries))
        results = []
        for blowdown in (partial(sw.rational_blowdown_ledger, corrections=(True, True)),
                         sw.chambered_blowdown_ledger):
            built.clear()
            results.append(blowdown(blown, QN_CHAIN, rows))
            entries = results[-1].ledger.entries
            assert len(built) == 2 and all(a is b for a, b in zip(built, entries.base))
            assert entries.m == 8 and len(entries) == 512 and len(list(entries)) == 512
        exact, chambered = results
        assert chambered == sw.chambered_blowdown_ledger(flat, QN_CHAIN, rows)
        assert exact.ledger == chambered.ledger
        assert list(exact.restrictions) == list(chambered.restrictions)


def test_blowdown_results_compare_without_writing_out_shared_signs(monkeypatch):
    # Q_n's blow-down with 16 zero-row names after E1 and E2: the two results
    # share their 16 free places, so equality writes out no sign, where a
    # written-out comparison would put 2^16 signs per base entry and side
    names = QN_WIDE_NAMES[:2] + tuple(f"Z{i}" for i in range(1, 17))
    rows = QN_ROWS + ((0,) * 6,) * 16
    result, twin = (sw.rational_blowdown_ledger(
        qn_wide_ledger(names=names), QN_CHAIN, rows, corrections=(True, True)) for _ in range(2))
    assert result is not twin and result.ledger.entries.m == 16
    calls = []
    put = sw._put
    monkeypatch.setattr(sw, "_put", lambda *args: calls.append(args) or put(*args))
    assert result == twin
    # at most a few classes per base entry, never one per sign
    assert len(calls) <= 4 * len(result.ledger.entries.base), len(calls)
    assert not result != twin
    # one base restriction negated: unequal
    entries = twin.ledger.entries
    first = entries.base[0]
    changed = twin._replace(ledger=twin.ledger._replace(entries=sw.Entries(
        (first._replace(restriction=tuple(-x for x in first.restriction)),) + entries.base[1:],
        entries.free)))
    assert result != changed and changed != result


def test_blowdown_of_a_view_with_inner_free_signs_matches_eager_scan():
    # a Q_n blow-down keeps its Z names as free signs wherever they sit; that
    # view is blown up again and blown down on a second chain, on which some
    # of those signs have nonzero rows and are walked, some with a base
    # coordinate after them, and the others stay free
    rng = random.Random(2702)
    chains = [c for cs in cpq_chains_by_length(4).values() for c in cs]
    inner_cases = written_cases = kept_free_cases = cases_with_survivors = 0
    for _ in range(60):
        zs = tuple(f"Z{i}" for i in range(1, rng.randint(2, 5)))
        names = ["E1", "E2", *zs]
        rng.shuffle(names)
        blown, rows = qn_placed_ledger(names)
        first = sw.rational_blowdown_ledger(
            blown, QN_CHAIN, rows, corrections=(True, True)).ledger
        assert first.entries.m == len(zs)
        # a free place precedes a base coordinate
        inner_cases += first.entries.free[0] < len(first.basis) - first.entries.m
        lazy = sw.blow_up_ledger(first, rng.randint(1, 3))
        eager = eager_blow_up(first._replace(entries=tuple(first.entries)),
                              len(lazy.basis) - len(first.basis), lazy.basis[len(first.basis):])
        chain = rng.choice(chains)
        # a canonical-type T row and even rows elsewhere, so every class (its
        # T coefficient is odd) is characteristic and the residue decides
        rows = [tuple(w + 2 + 2 * rng.randint(-1, 1) for w in chain)]
        rows += [(0,) * len(chain) if rng.random() < 0.4 else
                 (2 * rng.choice((-1, 1)),) + tuple(2 * rng.randint(-1, 1) for _ in chain[1:])
                 for _ in lazy.basis[1:]]
        free = [i for i, g in enumerate(lazy.basis) if g in zs or g not in first.basis]
        # a sign walked in place, with a base coordinate after it
        last_base = max(i for i in range(len(rows)) if i not in free)
        written_cases += any(any(rows[i]) and i < last_base for i in free)
        kept = check_blowdown(lazy, eager, chain, rows)
        result = sw.chambered_blowdown_ledger(lazy, chain, rows)
        zero = [i for i in free if not any(rows[i])]
        assert result.ledger.entries.m == len(zero)
        kept_free_cases += bool(kept) and any(i < len(rows) - len(zero) for i in zero)
        cases_with_survivors += bool(kept)
    assert inner_cases >= 40 and written_cases >= 30, (inner_cases, written_cases)
    assert cases_with_survivors >= 25 and kept_free_cases >= 20, (
        cases_with_survivors, kept_free_cases)


def test_blowdown_sorts_survivors_that_an_inner_walked_sign_interleaves():
    # G blown up at Z and E on C_{2,1}: Z's row is zero and stays free at
    # index 1, E is walked into the base, so (g, 0, -1) and (g, 0, 1) are
    # base entries.  On a second C_{2,1} Z is walked at index 1, before E, so
    # each base entry's survivors differ from the other's after the walked
    # place, and the two lists interleave in class order.
    seed = sw.Ledger("L", 12, -8, ("G",), [sw.Entry((g,), LinExpr(g, 0), 0) for g in (1, 3)])
    blown = sw.blow_up_ledger(seed, 2, ("Z", "E"))
    first = sw.rational_blowdown_ledger(blown, (-4,), [(0,), (0,), (2,)],
                                        corrections=(True, True)).ledger
    assert first.entries.free == (1,) and len(first.entries.base) == 4
    flat = first._replace(entries=tuple(first.entries))
    assert check_blowdown(first, flat, (-4,), [(0,), (2,), (0,)]) == 8
    result = sw.rational_blowdown_ledger(first, (-4,), [(0,), (2,), (0,)], corrections=(True, True))
    assert [e.cls for e in result.ledger.entries][:4] == [
        (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]


def test_blow_up_of_a_blown_down_ledger_writes_no_restriction():
    # a restriction is to the chain just blown down: a descendant K +- E has
    # none that the ledger knows, and a second blow-down restricts afresh, as
    # the eager scan does
    rng = random.Random(4301)
    chains = [c for cs in cpq_chains_by_length(4).values() for c in cs]
    survivors = 0
    for names in (["E1", "E2", "Z1"], ["Z1", "E1", "Z2", "E2"], ["E2", "Z1", "Z2", "Z3", "E1"]):
        blown, rows = qn_placed_ledger(names)
        first = sw.rational_blowdown_ledger(blown, QN_CHAIN, rows, corrections=(True, True)).ledger
        assert all(len(ent.restriction) == len(QN_CHAIN) for ent in first.entries.base)
        lazy = sw.blow_up_ledger(first, 2)
        assert all(ent.restriction is None for ent in lazy.entries.base)
        eager = eager_blow_up(first._replace(entries=tuple(first.entries)), 2,
                              lazy.basis[len(first.basis):])
        for chain in rng.sample(chains, 4):
            # a canonical-type T row and even rows elsewhere, as above
            rows = [tuple(w + 2 + 2 * rng.randint(-1, 1) for w in chain)]
            rows += [(2 * rng.choice((-1, 1)),) + tuple(2 * rng.randint(-1, 1) for _ in chain[1:])
                     for _ in lazy.basis[1:]]
            survivors += check_blowdown(lazy, eager, chain, rows)
    assert survivors >= 60, survivors


def test_ledger_report_writes_free_signs_in_place():
    # Z1 Z2 E1 Z3 Z4 Z5 E2 Z6 Z7 Z8: +-1 at each Z place, between E1 and E2
    blown, rows = qn_placed_ledger(INNER_PLACEMENT)
    result = sw.rational_blowdown_ledger(blown, QN_CHAIN, rows, corrections=(True, True))
    assert sw.ledger_report(result.ledger) == (
        "ledger V_n (chain blown down): e=16 sigma=-12 entries=512\n"
        "  (-3,+-1,+-1,-1,+-1,+-1,+-1,-1,+-1,+-1,+-1) -> 0 - 1*n\n"
        "  (3,+-1,+-1,1,+-1,+-1,+-1,1,+-1,+-1,+-1) -> 0 + 1*n"
    )


def test_ledger_report_of_a_blowdown_with_free_signs_writes_base_lines():
    # Z1..Z8 trail with zero rows, so the 512 survivors of each blow-down are
    # dumped as Q_n's two base lines with 8 trailing +-1 signs
    signs = ",+-1" * 8
    for result in qn_wide_blowdowns(qn_wide_ledger()):
        assert sw.ledger_report(result.ledger) == (
            "ledger V_n (chain blown down): e=16 sigma=-12 entries=512\n"
            f"  (-3,-1,-1{signs}) -> 0 - 1*n\n"
            f"  (3,1,1{signs}) -> 0 + 1*n"
        )


def test_substitute_keeps_concrete_entries():
    for result in qn_wide_blowdowns(qn_wide_ledger(5)):
        led = result.ledger
        concrete = sw.substitute(led, 7)
        assert concrete == led and len(led.entries.base) == 2
        assert all(a is b for a, b in zip(concrete.entries.base, led.entries.base))
    # a symbolic ledger still gets new values
    led = qn_wide_blowdowns(qn_wide_ledger())[0].ledger
    assert [(e.cls, e.value, e.square) for e in sw.substitute(led, 7).entries] == [
        (e.cls, LinExpr(e.value.subst(7), 0), e.square) for e in led.entries]


def test_substitute_keeps_each_survivors_restriction():
    for result in qn_wide_blowdowns(qn_wide_ledger()):
        base = result.ledger.entries.base
        concrete = sw.substitute(result.ledger, 7).entries.base
        assert all(ent.value.c1 for ent in base)  # every entry gets a new value
        assert [ent.restriction for ent in concrete] == [ent.restriction for ent in base]
        assert all(len(ent.restriction) == len(QN_CHAIN) for ent in concrete)


def test_blowdown_and_substitute_do_not_sort_the_survivors_again(monkeypatch):
    # the blow-down orders its own survivors and substitute keeps that order,
    # so neither result goes through the sort a hand-built ledger gets; nor
    # does a blow-up of a survivor ledger or a substitution of that view
    sorts = []
    sort = sw._sorted_entries

    def counting_sort(entries):
        sorts.append(len(entries))
        return sort(entries)

    concrete_seed, symbolic_seed = qn_wide_ledger(5), qn_wide_ledger()
    monkeypatch.setattr(sw, "_sorted_entries", counting_sort)
    for result in qn_wide_blowdowns(concrete_seed):
        concrete = sw.substitute(result.ledger, 7)
        assert len(concrete.entries) == 512 and concrete.entries == result.ledger.entries
    for result in qn_wide_blowdowns(symbolic_seed):
        concrete = sw.substitute(sw.blow_up_ledger(result.ledger, 2, ("F1", "F2")), 7)
        assert sorts == []
        assert concrete.entries.m == 10 and sw.entry_count(concrete) == 2048
        assert all(ent.value.c1 == 0 for ent in concrete.entries.base)
    # a hand-built ledger is still sorted, once
    sw.Ledger("L", 12, -8, ("G",), [sw.Entry((1,), LinExpr(1, 0), 0)] * 3)
    assert sorts == [3]


def test_blowdown_and_substitute_memory_follow_new_objects():
    # on the 512-survivor Q_n ledger: a survivor costs one Entry, one class
    # and one restriction, and substituting a concrete ledger copies no entry
    def peak(fn):
        fn()  # warm
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blown = qn_wide_ledger(5)
    result, blowdown_peak = peak(lambda: sw.rational_blowdown_ledger(
        blown, QN_CHAIN, QN_WIDE_ROWS, corrections=(True, True)))
    _concrete, substitute_peak = peak(lambda: sw.substitute(result.ledger, 7))
    assert len(result.ledger.entries) == 512
    assert blowdown_peak < 120_000, blowdown_peak
    assert substitute_peak < 32_000, substitute_peak


def test_substitute_keeps_a_blown_up_view():
    rng = random.Random(31)
    for _ in range(40):
        base = random_ledger(rng, rng.randint(1, 3))
        m = rng.randint(1, 6)
        blown = sw.blow_up_ledger(base, m)
        n = rng.randint(-5, 5)
        concrete = sw.substitute(blown, n)
        assert isinstance(concrete.entries, sw.Entries) and concrete.entries.m == m
        written = tuple(blown.entries)
        assert tuple(concrete.entries) == tuple(
            sw.Entry(e.cls, LinExpr(e.value.subst(n), 0), e.square, e.verified) for e in written)
        flat = sw.substitute(blown._replace(entries=written), n)
        assert concrete == flat
        assert sw.minimality_report(concrete) == sw.minimality_report(flat)


def test_substitute_and_minimality_of_a_wide_blow_up_stay_lazy():
    # 16 names on the one-knot seed: 131,072 entries, never written out
    seed = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    blown = sw.blow_up_ledger(seed, 16)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        concrete = sw.substitute(blown, 3)
        minimal = sw.minimality_report(concrete)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sw.entry_count(concrete) == 131_072 and not minimal
    assert concrete.entry((1,) * 17).value == LinExpr(3, 0)
    assert peak < 1_000_000, peak
    assert elapsed < 0.25, elapsed


def test_survivor_lookups_match_a_linear_scan():
    def scan(pairs, cls, message):
        for c, x in pairs:
            if c == cls:
                return x
        raise KeyError(f"{message} {cls}")

    # Z1..Z8 after E1 E2, and Z1 Z2 E1 Z3 Z4 Z5 E2 Z6 Z7 Z8
    for names in (QN_WIDE_NAMES, INNER_PLACEMENT):
        blown, rows = qn_placed_ledger(names)
        result = sw.chambered_blowdown_ledger(blown, QN_CHAIN, rows)
        classes = [c for c, _r in result.restrictions]
        assert classes == sorted(classes) and len(classes) == 512
        first, last = classes[0], classes[-1]
        absent = [
            first[:-1] + (first[-1] - 1,),  # before the first
            (0,) * len(first),  # between the -T and the +T survivors
            last[:-1] + (last[-1] + 1,),  # after the last
            first[:-1], first + (1,), (),  # wrong length
        ]
        # 0 or +-3 at a free place
        absent += [cls[:i] + (x,) + cls[i + 1:] for cls in (first, last)
                   for i, g in enumerate(blown.basis) if g.startswith("Z") for x in (0, 3, -3)]
        assert not set(absent) & set(classes)
        lookups = (
            (result.restriction_of, list(result.restrictions), "no surviving class"),
            (result.value_set_of, list(result.value_sets), "no surviving class"),
            (result.ledger.entry, [(e.cls, e) for e in result.ledger.entries],
             "no ledger entry for class"))
        for cls in classes + absent:
            for lookup, pairs, message in lookups:
                try:
                    want = scan(pairs, cls, message)
                except KeyError as exc:
                    with pytest.raises(KeyError) as got:
                        lookup(list(cls))
                    assert got.value.args == exc.args
                else:
                    assert lookup(list(cls)) == want
