"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
advertised guarantee of the package.

Each test is self-contained and states its own tolerance; the timed ones
use wall-clock budgets generous enough for CI noise but tight enough to
catch algorithmic regressions.
"""

import itertools
import math
import random
import time
from importlib import resources

from blowdown import hirzebruch, homcalc, mcg, scenario, swledger as sw
from blowdown.swledger import LinExpr
from ledger_rows import QN_ROWS, XN_ROWS, det, enumerate_box, gram_matrix


def _corpus() -> dict[str, str]:
    root = resources.files("blowdown") / "corpus"
    return {e.name[:-4]: e.read_text()
            for e in root.iterdir() if e.name.endswith(".plm")}


CORPUS = _corpus()
_REPORTS: dict[str, scenario.Report] = {}


def report_for(name: str) -> scenario.Report:
    if name not in _REPORTS:
        s = scenario.parse_scenario(CORPUS[name], name=name)
        _REPORTS[name] = scenario.run_scenario(s)
    return _REPORTS[name]


def records(name: str, description: str):
    return [r for r in report_for(name).records if r.description == description]


def test_acceptance_1_mcg_identity_suite():
    t0 = time.monotonic()
    results = mcg.relation_suite()
    assert len(results) == 7
    assert all(flag for _name, flag in results), results
    facts = mcg.standard_factorizations()
    assert set(facts) == {"I7", "I8", "I6"}
    for name, twists in facts.items():
        rep = mcg.verify_fibration(twists, expected_twists=12)
        assert rep.passed and rep.twist_count == 12, name
    assert time.monotonic() - t0 < 1.0


NINE_CHAINS = {
    (7, 1): "(-9,-2,-2,-2,-2,-2)",
    (71, 8): "(-9,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2)",
    (212, 55): "(-4,-7,-10,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2)",
    (44, 9): "(-5,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2)",
    (79, 44): "(-2,-5,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-3)",
    (89, 9): "(-10,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2,-2)",
    (169, 89): "(-2,-10,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-2,-2,-2,-3)",
    (301, 62): "(-5,-7,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2,-2)",
    (540, 301): "(-2,-5,-7,-11,-2,-2,-2,-2,-2,-2,-3,-2,-2,-2,-2,-3,-2,-2,-3)",
}


def test_acceptance_2_nine_chains_byte_exact():
    t0 = time.monotonic()
    for (p, q), expected in NINE_CHAINS.items():
        chain = hirzebruch.chain_for_cpq(p, q)
        assert hirzebruch.chain_to_str(chain) == expected, (p, q)
        assert hirzebruch.identify_cpq(hirzebruch.parse_chain(expected)) == (p, q)
    assert time.monotonic() - t0 < 1.0


def test_acceptance_3_blowup_pipelines():
    t0 = time.monotonic()
    xn = scenario.run_scenario(scenario.parse_scenario(CORPUS["xn"], name="xn"))
    dt_x = time.monotonic() - t0
    assert xn.all_passed
    by_desc = {r.description: r for r in xn.records}
    assert by_desc["square of sigma"].actual == "-9"
    assert by_desc["chain C identified"].actual == "C_{71,8}"

    t0 = time.monotonic()
    qn = scenario.run_scenario(scenario.parse_scenario(CORPUS["qn"], name="qn"))
    dt_q = time.monotonic() - t0
    assert qn.all_passed
    by_desc = {r.description: r for r in qn.records}
    assert by_desc["chain C weights"].actual == "(-9,-2,-2,-2,-2,-2)"
    assert dt_x < 1.0 and dt_q < 1.0, (dt_x, dt_q)


EXOTIC = ("qn", "xn", "c44", "c79", "c89", "c169", "c212", "c301", "c540")


def test_acceptance_4_characteristic_numbers():
    for name in EXOTIC:
        rep = report_for(name)
        assert rep.all_passed, name
        assert records(name, "euler characteristic")[-1].actual == "8", name
        assert records(name, "signature")[-1].actual == "-4", name
        fp = records(name, "homeomorphism fingerprint")
        assert len(fp) == 1 and fp[0].actual == "CP2 # 5 CP2bar", name

    # knot surgery preserves (e, sigma): the Y_n and V_n intermediates both
    # sit at (12, -8)
    cfg = homcalc.CurveConfig(gram={"S": {"S": -1}}, curves={}, e=12, sigma=-8, label="E(1)",
                              flags=frozenset({"simply-connected", "odd"}))
    y_n = homcalc.knot_surgery_shadow(cfg, "Y_n")
    assert (y_n.e, y_n.sigma) == (12, -8)
    v_n = homcalc.knot_surgery_shadow(y_n, "V_n")
    assert (v_n.e, v_n.sigma) == (12, -8)

    # the unsurgered comparison manifold goes (14, -10) -> (8, -4)
    r = report_for("r")
    assert r.all_passed
    eulers = [rec.actual for rec in records("r", "euler characteristic")]
    sigmas = [rec.actual for rec in records("r", "signature")]
    assert eulers == ["14", "8"] and sigmas == ["-10", "-4"]


def test_acceptance_5_sw_pipeline():
    t0 = time.monotonic()
    qchain = hirzebruch.chain_for_cpq(7, 1)

    # one twist knot: exactly +-T -> +-n
    single = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    assert {e.cls: e.value for e in single.entries} == {
        (1,): LinExpr(0, 1), (-1,): LinExpr(0, -1)}

    # two twist knots K_1, K_n: the extreme classes +-3T carry +-n
    double = sw.knot_surgery_ledger(
        [sw.alexander_twist(1), sw.alexander_twist()], label="V_n")
    assert double.entry((3,)).value == LinExpr(0, 1)
    assert double.entry((-3,)).value == LinExpr(0, -1)

    # symbolic Q_n pipeline: 2 blow-ups, then blow down C_{7,1}
    blown = sw.blow_up_ledger(double, 2)
    assert len(blown.entries) == 16
    res = sw.rational_blowdown_ledger(blown, qchain, QN_ROWS,
                                      corrections=(True, True), new_label="Q_n")
    assert {e.cls: e.value for e in res.ledger.entries} == {
        (3, 1, 1): LinExpr(0, 1), (-3, -1, -1): LinExpr(0, -1)}

    # the same pipeline with concrete n gives the concrete values
    for n in range(1, 51):
        led = sw.knot_surgery_ledger(
            [sw.alexander_twist(1), sw.alexander_twist(n)], label="V")
        bl = sw.blow_up_ledger(led, 2)
        rn = sw.rational_blowdown_ledger(bl, qchain, QN_ROWS,
                                         corrections=(True, True))
        values = sorted(e.value.subst(0) for e in rn.ledger.entries)
        assert values == [-n, n], n
    assert time.monotonic() - t0 < 5.0


def value_profile(value_sets, n: int) -> frozenset[int]:
    """All integer values a manifold's surviving classes can take at concrete n."""
    return frozenset(v.subst(n) for _cls, vs in value_sets for v in vs)


def distinguishable(profile_a, profile_b) -> bool:
    """Two manifolds are told apart when their possible value sets are disjoint."""
    return not set(profile_a) & set(profile_b)


def test_acceptance_6_distinguishability():
    # X_n side: chambered blow-down of C_{71,8} leaves value sets
    # {n-1, n, n+1} and its negative
    led = sw.knot_surgery_ledger([sw.alexander_twist()], label="Y_n")
    blown = sw.blow_up_ledger(led, 11)
    xres = sw.chambered_blowdown_ledger(
        blown, hirzebruch.chain_for_cpq(71, 8), XN_ROWS, new_label="X_n")
    n = LinExpr(0, 1)
    assert {cls: frozenset(vals) for cls, vals in xres.value_sets} == {
        tuple([1] * 12): frozenset({n.shift(-1), n, n.shift(1)}),
        tuple([-1] * 12): frozenset({-n.shift(-1), -n, -n.shift(1)}),
    }
    for conc in range(2, 21):
        base = value_profile(xres.value_sets, conc)
        assert not distinguishable(base, base)
        for k in range(1, 6):
            other = value_profile(xres.value_sets, conc + 3 * k)
            assert distinguishable(base, other), (conc, k)

    # Q_n side: profiles are pairwise disjoint and each Q_n is minimal
    double = sw.knot_surgery_ledger(
        [sw.alexander_twist(1), sw.alexander_twist()], label="V_n")
    qres = sw.rational_blowdown_ledger(
        sw.blow_up_ledger(double, 2), hirzebruch.chain_for_cpq(7, 1),
        QN_ROWS, corrections=(True, True), new_label="Q_n")
    profiles = [value_profile(qres.value_sets, conc) for conc in range(1, 51)]
    for pa, pb in itertools.combinations(profiles, 2):
        assert distinguishable(pa, pb)
    for conc in range(1, 51):
        assert sw.minimality_report(sw.substitute(qres.ledger, conc)), conc


def test_acceptance_7_property_suites():
    t0 = time.monotonic()
    rng = random.Random(214748)

    pairs = []
    while len(pairs) < 200:
        p = rng.randrange(2, 601)
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    for p, q in pairs:
        chain = hirzebruch.chain_for_cpq(p, q)
        k = len(chain)
        assert hirzebruch.identify_cpq(chain) == (p, q)
        assert det(gram_matrix(chain)) == (-1) ** k * p * p
        vc = hirzebruch.canonical_vector(chain)
        assert hirzebruch.extends_over_ball(chain, vc)
        assert hirzebruch.gram_inverse_form(chain, vc) == -k

    # ledger conjugation symmetry on random twist-knot products
    for trial in range(30):
        count = rng.randint(1, 4)
        params: list[int | None] = [rng.randint(1, 6) for _ in range(count)]
        if rng.random() < 0.5:
            params[rng.randrange(count)] = None  # one symbolic factor at most
        knots = [sw.alexander_twist(m) if m is not None else sw.alexander_twist()
                 for m in params]
        led = sw.knot_surgery_ledger(knots, label=f"t{trial}")
        assert led.entries
        for ent in led.entries:
            mirror = led.entry(tuple(-x for x in ent.cls))
            assert mirror.value == -ent.value
            assert mirror.verified == ent.verified

    # parser round-trip on the whole corpus
    for name, text in CORPUS.items():
        s1 = scenario.parse_scenario(text, name=name)
        s2 = scenario.parse_scenario(scenario.print_scenario(s1), name=name)
        assert s2.directives == s1.directives, name

    assert time.monotonic() - t0 < 30.0


def _in_coset(chain, v, p):
    """Independent test: v = G x (mod p) for some x, componentwise."""
    gram = gram_matrix(chain)
    k = len(chain)
    for xs in itertools.product(range(p), repeat=k):
        if all((v[i] - sum(gram[i][j] * xs[j] for j in range(k))) % p == 0
               for i in range(k)):
            return True
    return False


def test_acceptance_8_oracle_calibration():
    for p, q, total, accepted in [(2, 1, 5, 5), (3, 1, 18, 6)]:
        chain = hirzebruch.chain_for_cpq(p, q)
        box = enumerate_box(chain)
        assert len(box) == total
        kept = [v for v in box if hirzebruch.extends_over_ball(chain, v)]
        assert len(kept) == accepted
        for v in box:
            assert hirzebruch.extends_over_ball(chain, v) == _in_coset(chain, v, p), v
    assert set(kept) == {
        (-5, -2), (-3, 0), (-1, 2), (1, -2), (3, 0), (5, 2)}
