import copy
import random
import time

import pytest

from blowdown import hirzebruch, homcalc
from blowdown.homcalc import ConfigError, Curve, CurveConfig


def e1_with_section():
    """Rational elliptic surface shadow: section S and one (-2) fiber piece."""
    gram = {"S": {"S": -1, "T": 1}, "T": {"S": 1, "T": -2}}
    cfg = CurveConfig(gram=gram, curves={}, e=12, sigma=-8, label="E(1)",
                      flags=frozenset({"simply-connected", "odd", "section"}))
    cfg = homcalc.add_curve(cfg, Curve("s", {"S": 1}))
    cfg = homcalc.add_curve(cfg, Curve("t", {"T": 1}))
    return cfg


def test_pairing_and_square():
    cfg = e1_with_section()
    assert homcalc.square(cfg, "s") == -1
    assert homcalc.square(cfg, "t") == -2
    assert homcalc.pairing(cfg, "s", "t") == 1


def test_set_pairing_names_a_missing_generator():
    cfg = homcalc.new_config("X", 3, 1, (), ("S",))
    snapshot = copy.deepcopy(cfg)
    for g1, g2 in (("S", "Q"), ("Q", "S"), ("Q", "Q")):
        with pytest.raises(ConfigError, match="^no generator named 'Q'$"):
            homcalc.set_pairing(cfg, g1, g2, 1)
    assert cfg == snapshot


def test_add_curve_rejects_duplicates_and_bad_rank():
    cfg = e1_with_section()
    with pytest.raises(ConfigError):
        homcalc.add_curve(cfg, Curve("s", {"T": 1}))
    with pytest.raises(ConfigError):
        homcalc.add_curve(cfg, Curve("x", {"S": 1, "X": 1}))


def test_blow_up_generic():
    cfg = homcalc.blow_up(e1_with_section(), "E1")
    assert tuple(cfg.gram) == ("S", "T", "E1")
    assert cfg.e == 13 and cfg.sigma == -9
    assert homcalc.square(cfg, "E1") == -1
    # existing curves are untouched
    assert homcalc.square(cfg, "s") == -1
    assert homcalc.pairing(cfg, "s", "E1") == 0


def test_blow_up_at_point_on_curves():
    cfg = homcalc.blow_up(e1_with_section(), "E1", at=[("s", 1), ("t", 1)])
    assert homcalc.square(cfg, "s") == -2
    assert homcalc.square(cfg, "t") == -3
    assert homcalc.pairing(cfg, "s", "t") == 0  # their intersection was separated
    assert homcalc.pairing(cfg, "s", "E1") == 1


def test_blow_up_double_point():
    cfg = e1_with_section()
    cfg = homcalc.add_curve(cfg, Curve("ps", {"S": 1}, genus=0, double_points=1))
    out = homcalc.blow_up(cfg, "E1", at=[("ps", 2)], double_point_of="ps")
    ps = out.curve("ps")
    assert ps.double_points == 0
    assert homcalc.square(out, "ps") == -5


def test_blow_up_validation():
    cfg = e1_with_section()
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "E1", at=[("nope", 1)])
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "E1", at=[("s", 0)])
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "E1", at=[("s", 1), ("s", 1)])
    # resolving a double point needs multiplicity exactly 2 and a dp to spend
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "E1", at=[("s", 2)], double_point_of="s")
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "E1", at=[("s", 1)], double_point_of="s")
    with pytest.raises(ConfigError):
        homcalc.blow_up(cfg, "s", at=[("t", 1)])  # name collision
    # on a curve that has a double point, the multiplicity check itself
    cfg = homcalc.add_curve(cfg, Curve("f", {"S": 1}, 0, 1))
    for m in (1, 3):
        with pytest.raises(ConfigError, match="multiplicity exactly 2"):
            homcalc.blow_up(cfg, "E1", at=[("f", m)], double_point_of="f")


def test_smooth_pair():
    cfg = e1_with_section()
    out = homcalc.smooth(cfg, "u", "s", "t")
    assert "s" not in out.curves and "t" not in out.curves
    u = out.curve("u")
    assert u.cls == {"S": 1, "T": 1}
    # (-1) + (-2) + 2*1 = -1
    assert homcalc.square(out, "u") == -1
    assert u.genus == 0 and u.double_points == 0


def test_smooth_needs_positive_pairing():
    cfg = CurveConfig(gram={"A": {"A": -1}, "B": {"B": -1}}, curves={}, e=4, sigma=-2, label="x")
    cfg = homcalc.add_curve(cfg, Curve("a", {"A": 1}))
    cfg = homcalc.add_curve(cfg, Curve("b", {"B": 1}))
    with pytest.raises(ConfigError):
        homcalc.smooth(cfg, "c", "a", "b")


def test_smooth_excess_pairing_becomes_double_points():
    cfg = CurveConfig(gram={"A": {"B": 3}, "B": {"A": 3}}, curves={}, e=4, sigma=0, label="x")
    cfg = homcalc.add_curve(cfg, Curve("a", {"A": 1}))
    cfg = homcalc.add_curve(cfg, Curve("b", {"B": 1}))
    out = homcalc.smooth(cfg, "c", "a", "b")
    assert out.curve("c").double_points == 2


def test_extract_chain():
    cfg = e1_with_section()
    cfg = homcalc.blow_up(cfg, "E1", at=[("s", 2)])
    # s is now (-5), t still (-2), s.t = 1
    assert homcalc.extract_chain(cfg, ("s", "t")) == (-5, -2)


def test_extract_chain_diagnoses_violations():
    cfg = e1_with_section()
    with pytest.raises(ConfigError, match="square"):
        homcalc.extract_chain(cfg, ("s", "t"))  # s has square -1
    # separate the intersection, then the curves are no longer adjacent
    cfg2 = homcalc.blow_up(cfg, "E1", at=[("s", 1), ("t", 1)])
    with pytest.raises(ConfigError, match="adjacency"):
        homcalc.extract_chain(cfg2, ("s", "t"))
    cfg3 = homcalc.add_curve(cfg2, Curve("g", {"T": 1}, genus=1))
    with pytest.raises(ConfigError, match="genus"):
        homcalc.extract_chain(cfg3, ("t", "g"))


def test_extract_chain_reports_the_first_curves_defect():
    # the checks run curve by curve: a square defect in the first curve is
    # reported before a genus or double-point defect in a later one
    cfg = e1_with_section()  # s squares to -1, t to -2
    cfg = homcalc.add_curve(cfg, Curve("g", {"T": 1}, genus=1))
    cfg = homcalc.add_curve(cfg, Curve("d", {"T": 1}, double_points=1))
    for names, message in [
        (("s", "g"), "chain curve 's' has square -1, expected <= -2"),
        (("s", "d"), "chain curve 's' has square -1, expected <= -2"),
        (("d", "g"), "chain curve 'd' still has 1 double point(s)"),
        (("g", "s"), "chain curve 'g' has genus 1, expected 0"),
    ]:
        with pytest.raises(ConfigError) as exc:
            homcalc.extract_chain(cfg, names)
        assert str(exc.value) == message


def test_knot_surgery_shadow():
    cfg = e1_with_section()
    out = homcalc.knot_surgery_shadow(cfg, "Y_n", add_flags=("pseudo-section",))
    assert out.label == "Y_n"
    assert out.e == 12 and out.sigma == -8
    assert "pseudo-section" in out.flags
    assert "simply-connected" in out.flags
    # curve data carries across unchanged
    assert homcalc.square(out, "s") == -1


def test_rational_blowdown_counts():
    cfg = e1_with_section()
    cfg = homcalc.blow_up(cfg, "E1", at=[("s", 2)])
    # (-5,-2) is C_{3,1}
    out = homcalc.rational_blowdown(cfg, homcalc.extract_chain(cfg, ("s", "t")), new_label="Z")
    assert out.e == 13 - 2 and out.sigma == -9 + 2
    assert out.label == "Z"
    assert out.gram == {} and out.curves == {}


def test_rational_blowdown_keeps_no_generators_or_curves():
    cfg = homcalc.blow_up(e1_with_section(), "E1", at=[("s", 2)])
    snapshot = copy.deepcopy(cfg)
    # (-5,-2) is C_{3,1}
    out = homcalc.rational_blowdown(cfg, homcalc.extract_chain(cfg, ("s", "t")))
    assert cfg == snapshot
    assert out == CurveConfig({}, {}, 11, -7, "E(1) (C_{3,1} blown down)",
                              frozenset({"simply-connected", "odd", "section"}))
    with pytest.raises(ConfigError, match="'S', not an ambient generator"):
        homcalc.add_curve(out, Curve("s", {"S": 1}))
    with pytest.raises(ConfigError, match="^no curve named 's'$"):
        out.curve("s")


def test_rational_blowdown_requires_plumbing():
    cfg = e1_with_section()
    cfg = homcalc.blow_up(cfg, "E1", at=[("s", 3)])
    # (-7,-2) is not any C_{p,q}
    with pytest.raises(ConfigError):
        homcalc.rational_blowdown(cfg, homcalc.extract_chain(cfg, ("s", "t")))


def test_rational_blowdown_counts_on_a_long_chain():
    # longer than any corpus chain (C_{540,301} has 19 spheres)
    chain = hirzebruch.chain_for_cpq(1000003, 621999)
    assert len(chain) == 32
    cfg = CurveConfig(gram={}, curves={}, e=100, sigma=-60, label="big")
    out = homcalc.rational_blowdown(cfg, chain)
    assert (out.e, out.sigma) == (68, -28)


def test_homeo_fingerprint():
    def fingerprint(e, sigma, flags=("simply-connected", "odd")):
        return homcalc.homeo_fingerprint(CurveConfig({}, {}, e, sigma, "X", frozenset(flags)))

    assert fingerprint(8, -4) == "CP2 # 5 CP2bar"
    # wrong signature for the Euler characteristic
    assert fingerprint(8, -2) is None
    # without the parity flag nothing is claimed
    assert fingerprint(8, -4, ("simply-connected",)) is None
    # the blown-up projective plane itself
    assert fingerprint(4, 0) == "CP2 # 1 CP2bar"
    assert fingerprint(2, -1) is None
    # e < 3 fits no k >= 0, even where sigma = 1 - k would hold at k = -1
    assert fingerprint(2, 2) is None


def test_pair_vectors_matches_dense_sum():
    rng = random.Random(4127)

    def vector(rank):
        if rng.random() < 0.2:
            return (0,) * rank
        return tuple(rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(rank))

    for trial in range(400):
        rank = 1 if trial < 40 else rng.randint(1, 12)
        upper = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(rank)) for i in range(rank))
        v1, v2 = vector(rank), vector(rank)
        dense = 0
        for i in range(rank):
            for j in range(rank):
                dense += v1[i] * gram[i][j] * v2[j]
        names = [f"g{i}" for i in range(rank)]
        got = homcalc.pair_vectors(sparse_gram(names, gram), sparse(names, v1), sparse(names, v2))
        assert got == dense, (gram, v1, v2)


def test_pairing_table_matches_dense_sums():
    """Each row against sum_ij u_i G_ij v_j over dense lists, with zero,
    repeated and cancelling classes, negative coefficients and empty sides."""
    rng = random.Random(2719)
    seen = dict.fromkeys(("zero class", "repeated class", "empty us", "empty vs",
                          "negative coefficient", "cancelled to 0", "nonzero"), 0)
    for trial in range(300):
        rank = rng.randint(1, 10)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                if rng.random() < 0.3:
                    gram[i][j] = gram[j][i] = rng.choice((-3, -2, -1, 1, 2))
        names = [f"g{i}" for i in range(rank)]

        def dense_class():
            if rng.random() < 0.1:
                return [0] * rank
            return [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(rank)]

        us = [dense_class() for _ in range(0 if trial % 10 == 0 else rng.randint(1, 5))]
        vs = [dense_class() for _ in range(0 if trial % 10 == 5 else rng.randint(1, 6))]
        if us and vs and rng.random() < 0.3:
            us.append(list(rng.choice(vs)))
            vs.append(list(rng.choice(vs)))
        table = homcalc.pairing_table(
            sparse_gram(names, gram), [sparse(names, u) for u in us], [sparse(names, v) for v in vs])
        assert len(table) == len(us)
        for u, row in zip(us, table):
            want = {}
            for j, v in enumerate(vs):
                total = 0
                for a in range(rank):
                    for b in range(rank):
                        total += u[a] * gram[a][b] * v[b]
                if total:
                    want[j] = total
                    seen["nonzero"] += 1
                elif any(u[a] * gram[a][b] * v[b] for a in range(rank) for b in range(rank)):
                    seen["cancelled to 0"] += 1
            assert row == want, (gram, u, vs)
        seen["empty us"] += not us
        seen["empty vs"] += not vs
        classes = [tuple(c) for c in us + vs]
        seen["zero class"] += any(not any(c) for c in classes)
        seen["repeated class"] += len(set(classes)) < len(classes)
        seen["negative coefficient"] += any(x < 0 for c in classes for x in c)
    assert min(seen.values()) >= 20, seen


def sparse(names, vec):
    return {g: x for g, x in zip(names, vec) if x}


def sparse_gram(names, gram):
    return {g: sparse(names, row) for g, row in zip(names, gram)}


def dense_vec(names, cls):
    return [cls.get(g, 0) for g in names]


def dense_chain(cfg, names):
    """Oracle for `extract_chain`: the weights, or the message of the first
    ConfigError, from full G.v products over every coordinate of the Gram
    matrix and classes written out densely in basis order."""
    basis = list(cfg.gram)
    gram = [dense_vec(basis, cfg.gram[g]) for g in basis]
    rank = len(gram)

    def pair(u, v):
        u, v = dense_vec(basis, u), dense_vec(basis, v)
        gv = [sum(gram[i][j] * v[j] for j in range(rank)) for i in range(rank)]
        return sum(u[i] * gv[i] for i in range(rank))

    curves = [cfg.curve(n) for n in names]
    for c in curves:
        if c.genus != 0:
            return f"chain curve {c.name!r} has genus {c.genus}, expected 0"
        if c.double_points != 0:
            return f"chain curve {c.name!r} still has {c.double_points} double point(s)"
        if pair(c.cls, c.cls) > -2:
            return f"chain curve {c.name!r} has square {pair(c.cls, c.cls)}, expected <= -2"
    for i, a in enumerate(curves):
        for b in curves[i + 1:]:
            want = 1 if b is curves[i + 1] else 0
            if pair(a.cls, b.cls) != want:
                return (f"chain adjacency violated: {a.name!r}.{b.name!r} = "
                        f"{pair(a.cls, b.cls)}, expected {want}")
    return tuple(pair(c.cls, c.cls) for c in curves)


def random_chain_config(rng):
    """A plumbing chain in a lattice with extra diagonal classes, seen through
    a random unimodular change of basis, then perhaps spoiled."""
    k = rng.randint(1, 7)
    rank = k + rng.randint(0, 5)
    weights = [-rng.randint(2, 6) for _ in range(k)]
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = weights[i] if i < k else rng.choice((-1, 1))
    for i in range(k - 1):
        gram[i][i + 1] = gram[i + 1][i] = 1
    vectors = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(0, 3 * rank) if rank > 1 else 0):
        # new basis b' = b (I + c E_ij): G -> S^T G S, coordinates v_i -= c v_j
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1, 2))
        for row in gram:
            row[j] += c * row[i]
        gram[j] = [x + c * y for x, y in zip(gram[j], gram[i])]
        for v in vectors:
            v[i] -= c * v[j]
    basis = [f"g{i}" for i in range(rank)]
    curves = [Curve(f"c{i}", sparse(basis, v)) for i, v in enumerate(vectors[:k])]
    spoil = rng.random()
    if spoil < 0.15:
        i = rng.randrange(k)
        curves[i] = Curve(curves[i].name, curves[i].cls, genus=rng.randint(1, 2))
    elif spoil < 0.3:
        i = rng.randrange(k)
        curves[i] = Curve(curves[i].name, curves[i].cls, double_points=1)
    elif spoil < 0.45:
        # an extra class of square +-1, or the zero class
        i = rng.randrange(k)
        cls = sparse(basis, rng.choice(vectors[k:])) if rank > k else {}
        curves[i] = Curve(curves[i].name, cls)
    elif spoil < 0.65:
        i = rng.randrange(k)
        bump = [rng.choice((-1, 0, 0, 1)) for _ in range(rank)]
        cls = [x + y for x, y in zip(dense_vec(basis, curves[i].cls), bump)]
        curves[i] = Curve(curves[i].name, sparse(basis, cls))
    cfg = CurveConfig(sparse_gram(basis, gram), {c.name: c for c in curves}, rank + 2, 0, "x")
    names = [c.name for c in curves]
    if rng.random() < 0.2:
        rng.shuffle(names)
    elif rng.random() < 0.2:
        names.reverse()
    return cfg, names


def test_extract_chain_matches_dense_oracle():
    rng = random.Random(8080)
    outcomes = {}
    for _ in range(800):
        cfg, names = random_chain_config(rng)
        want = dense_chain(cfg, names)
        if isinstance(want, tuple):
            assert homcalc.extract_chain(cfg, names) == want, (cfg, names)
            kind = "accepted"
        else:
            with pytest.raises(ConfigError) as exc:
                homcalc.extract_chain(cfg, names)
            assert str(exc.value) == want, (cfg, names)
            kind = next(w for w in ("genus", "double point", "square", "adjacency") if w in want)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"accepted", "genus", "double point", "square", "adjacency"}, outcomes
    assert min(outcomes.values()) >= 30, outcomes


def test_long_chain_extracts_in_output_time():
    # C_{401,400}: one -402 sphere and 399 -2 spheres, in a rank-400 lattice.
    k = 400
    weights = (-402,) + (-2,) * (k - 1)
    gram = {
        f"g{i}": {f"g{j}": weights[i] if j == i else 1 for j in (i - 1, i, i + 1) if 0 <= j < k}
        for i in range(k)
    }
    curves = {f"c{i}": Curve(f"c{i}", {f"g{i}": 1}) for i in range(k)}
    cfg = CurveConfig(gram=gram, curves=curves, e=k + 2, sigma=0, label="long")
    t0 = time.perf_counter()
    got = homcalc.extract_chain(cfg, list(curves))
    elapsed = time.perf_counter() - t0
    assert got == weights
    assert elapsed < 0.25, elapsed


def test_max_chain_extracts_in_output_time():
    # C_{4097,4096} at the chain length bound: one -4098 sphere and 4,095 -2
    # spheres, each sphere the sum of its generator and a shared -1 class
    k = hirzebruch.MAX_CHAIN
    weights = hirzebruch.chain_for_cpq(k + 1, k)
    assert len(weights) == k
    gram = {
        f"g{i}": {f"g{j}": weights[i] + 1 if j == i else 1 for j in (i - 1, i, i + 1) if 0 <= j < k}
        for i in range(k)
    }
    gram.update({f"e{i}": {f"e{i}": -1} for i in range(k)})
    curves = {f"c{i}": Curve(f"c{i}", {f"g{i}": 1, f"e{i}": 1}) for i in range(k)}
    cfg = CurveConfig(gram=gram, curves=curves, e=2 * k + 2, sigma=0, label="max")
    start = time.perf_counter()
    got = homcalc.extract_chain(cfg, list(curves))
    elapsed = time.perf_counter() - start
    assert got == weights
    assert elapsed < 0.25, elapsed


class DenseModel:
    """The oracle for the moves: a list-of-lists Gram matrix and dense class
    lists over `basis`, with e, sigma, the label and the flags, written out
    here with no call into `homcalc`."""

    def __init__(self, basis, e, sigma, label):
        self.basis = list(basis)
        self.gram = [[0] * len(basis) for _ in basis]
        self.curves = {}  # name -> [class list, genus, double points]
        self.e, self.sigma, self.label, self.flags = e, sigma, label, set()

    def image(self, v):
        return [sum(x * y for x, y in zip(row, v)) for row in self.gram]

    def pair(self, u, v):
        return sum(x * y for x, y in zip(u, self.image(v)))

    def set_pairing(self, g1, g2, value):
        i, j = self.basis.index(g1), self.basis.index(g2)
        self.gram[i][j] = self.gram[j][i] = value

    def add_curve(self, name, cls, genus, dps):
        self.curves[name] = [list(cls), genus, dps]

    def blow_up(self, name, at, double_point_of):
        self.e, self.sigma = self.e + 1, self.sigma - 1
        for row in self.gram:
            row.append(0)
        self.gram.append([0] * len(self.basis) + [-1])
        self.basis.append(name)
        mults = dict(at)
        if double_point_of is not None:
            mults.setdefault(double_point_of, 2)
        for cname, rec in self.curves.items():
            rec[0].append(-mults.get(cname, 0))
            rec[2] -= cname == double_point_of
        self.curves[name] = [[0] * (len(self.basis) - 1) + [1], 0, 0]

    def smooth(self, name, c1, c2):
        (u, g1, d1), (v, g2, d2) = self.curves.pop(c1), self.curves.pop(c2)
        p = self.pair(u, v)
        self.curves[name] = [[x + y for x, y in zip(u, v)], g1 + g2, d1 + d2 + p - 1]

    def relabel(self, label, add_flags):
        self.label = label
        self.flags.update(add_flags)


def check_against_dense(cfg, model):
    assert (cfg.e, cfg.sigma, cfg.label) == (model.e, model.sigma, model.label)
    assert cfg.flags == frozenset(model.flags)
    assert tuple(cfg.gram) == tuple(model.basis)
    for g, row in cfg.gram.items():
        assert all(row.values()), (g, row)  # no stored zero
        assert all(cfg.gram[h][g] == x for h, x in row.items())
    assert list(cfg.curves) == list(model.curves)
    images = {name: model.image(vec) for name, (vec, _g, _d) in model.curves.items()}
    for name, (vec, genus, dps) in model.curves.items():
        c = cfg.curve(name)
        assert all(c.cls.values()) and dense_vec(model.basis, c.cls) == vec, name
        assert (c.genus, c.double_points) == (genus, dps), name
        for other, image in images.items():
            want = sum(x * y for x, y in zip(vec, image))
            assert homcalc.pairing(cfg, name, other) == want, (name, other)


def test_moves_match_a_dense_model_and_copy_on_write():
    rng = random.Random(31337)
    moves = dict.fromkeys(("pair", "pair to 0", "curve", "blowup", "double point", "smooth",
                           "smooth with excess", "relabel", "relabel with flags", "rejected"), 0)
    for _walk in range(12):
        basis = [f"g{i}" for i in range(rng.randint(1, 4))]
        model = DenseModel(basis, 3, 1, "x")
        cfg = homcalc.new_config("x", 3, 1, (), basis)
        history = [(cfg, copy.deepcopy(cfg))]
        fresh = 0
        for _step in range(40):
            roll = rng.random()
            gens = model.basis
            if roll < 0.3:
                g1, g2 = rng.choice(gens), rng.choice(gens)
                value = rng.choice((-3, -2, -1, 0, 1, 2, 3))
                cfg = homcalc.set_pairing(cfg, g1, g2, value)
                model.set_pairing(g1, g2, value)
                moves["pair" if value else "pair to 0"] += 1
            elif roll < 0.45 or not model.curves:
                fresh += 1
                cls = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in gens]
                genus, dps = rng.choice((0, 0, 1)), rng.choice((0, 1, 2))
                cfg = homcalc.add_curve(cfg, Curve(f"c{fresh}", sparse(gens, cls), genus, dps))
                model.add_curve(f"c{fresh}", cls, genus, dps)
                moves["curve"] += 1
            elif roll < 0.7:
                fresh += 1
                names = rng.sample(list(model.curves), rng.randint(0, min(3, len(model.curves))))
                with_dp = [n for n in names if model.curves[n][2] > 0]
                dp_of = with_dp[0] if with_dp and rng.random() < 0.6 else None
                at = [(n, 2 if n == dp_of else rng.randint(1, 2)) for n in names]
                cfg = homcalc.blow_up(cfg, f"E{fresh}", at, double_point_of=dp_of)
                model.blow_up(f"E{fresh}", at, dp_of)
                moves["double point" if dp_of else "blowup"] += 1
            elif roll < 0.85:
                pairs = [(a, b) for a in model.curves for b in model.curves
                         if a < b and model.pair(model.curves[a][0], model.curves[b][0]) >= 1]
                if not pairs:
                    continue
                a, b = rng.choice(pairs)
                fresh += 1
                excess = model.pair(model.curves[a][0], model.curves[b][0]) > 1
                cfg = homcalc.smooth(cfg, f"c{fresh}", a, b)
                model.smooth(f"c{fresh}", a, b)
                moves["smooth with excess" if excess else "smooth"] += 1
            elif roll < 0.93:
                fresh += 1
                flags = rng.sample(("odd", "pseudo-section", "f g", f"k{fresh}"),
                                   rng.choice((0, 0, 1, 2)))
                cfg = homcalc.knot_surgery_shadow(cfg, f"Y{fresh}", flags)
                model.relabel(f"Y{fresh}", flags)
                moves["relabel with flags" if flags else "relabel"] += 1
            else:
                # a rejected move raises and leaves its input as it was
                c = rng.choice(list(model.curves))
                move = rng.choice((
                    lambda: homcalc.set_pairing(cfg, rng.choice(gens), "missing", 1),
                    lambda: homcalc.add_curve(cfg, Curve(c, {})),
                    lambda: homcalc.blow_up(cfg, rng.choice(gens)),
                    lambda: homcalc.smooth(cfg, f"c{fresh + 1}", c, c),
                ))
                with pytest.raises(ConfigError):
                    move()
                moves["rejected"] += 1
            check_against_dense(cfg, model)
            history.append((cfg, copy.deepcopy(cfg)))
            for old, snapshot in history:
                assert old == snapshot
    assert min(moves.values()) >= 10, moves
