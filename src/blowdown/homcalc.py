"""Homology-level bookkeeping for curve configurations in 4-manifolds.

A configuration is one record: an integer lattice (Gram rows), the curves
on it, by name, each a class with a genus and a count of positive double
points, and the Euler characteristic, signature, label and assumption
flags of the manifold.  The lattice is sparse: the Gram form maps each
generator to its nonzero pairings, in basis order, and a class maps
generators to nonzero coefficients.  The operations are the moves the
constructions are made of: setting a pairing, blow-ups (including
infinitely close ones, via incidence with the previous exceptional curve),
smoothing of transverse intersections, chain extraction, the knot-surgery
relabeling, and rational blow-down of a recognized chain, which leaves no
generators and no curves.  Each move returns a new configuration and never
changes its input: it copies the outer generator and curve maps it
changes, which grow with the rank, and only the rows and classes it
changes, sharing the rest; a table of pairings (`pairing_table`) costs its
nonzero products.
"""

from __future__ import annotations

from collections import namedtuple

from . import hirzebruch


class ConfigError(ValueError):
    pass


# Curve.cls: generator -> nonzero coefficient
Curve = namedtuple("Curve", "name cls genus double_points", defaults=(0, 0))


# CurveConfig.gram: generator -> {generator: nonzero pairing}
class CurveConfig(namedtuple("CurveConfig", "gram curves e sigma label flags",
                             defaults=(frozenset(),))):
    __slots__ = ()

    def curve(self, name: str) -> Curve:
        try:
            return self.curves[name]
        except KeyError:
            raise ConfigError(f"no curve named {name!r}") from None


def new_config(label: str, e: int, sigma: int, flags, basis) -> CurveConfig:
    """No curves yet over the generators `basis`, in order; every pairing 0."""
    return CurveConfig({g: {} for g in basis}, {}, e, sigma, label, frozenset(flags))


def pair_vectors(gram, u, v) -> int:
    """u^T G v: the row image of u, dotted with v."""
    return _dot(_row_image(gram, u), v)


def pairing_table(gram, us, vs) -> list[dict[int, int]]:
    """For each class u of `us`, its nonzero pairings {j: u^T G v_j} with `vs`.

    `vs` is indexed by generator once and each u's row image is built once, so
    the cost is the number of nonzero products, not len(us) * len(vs) dots."""
    index: dict[str, list[tuple[int, int]]] = {}
    for j, v in enumerate(vs):
        for g, y in v.items():
            index.setdefault(g, []).append((j, y))
    table = []
    for u in us:
        row: dict[int, int] = {}
        for h, x in _row_image(gram, u).items():
            for j, y in index.get(h, ()):
                row[j] = row.get(j, 0) + x * y
        table.append({j: z for j, z in row.items() if z})
    return table


def _row_image(gram, u) -> dict[str, int]:
    """u^T G, summed over the nonzero coefficients of u and their rows."""
    if len(u) == 1:
        (g, x), = u.items()
        row = gram[g]
        return row if x == 1 else {h: x * y for h, y in row.items()}
    image: dict[str, int] = {}
    for g, x in u.items():
        for h, y in gram[g].items():
            image[h] = image.get(h, 0) + x * y
    return image


def _dot(image, v) -> int:
    return sum(image[h] * y for h, y in v.items() if h in image)


def pairing(cfg: CurveConfig, c1: str, c2: str) -> int:
    return pair_vectors(cfg.gram, cfg.curve(c1).cls, cfg.curve(c2).cls)


def square(cfg: CurveConfig, c: str) -> int:
    return pairing(cfg, c, c)


def set_pairing(cfg: CurveConfig, g1: str, g2: str, value: int) -> CurveConfig:
    """Set the (symmetric) Gram entry of two generators; a 0 drops the entry."""
    for g in (g1, g2):
        if g not in cfg.gram:
            raise ConfigError(f"no generator named {g!r}")
    gram = dict(cfg.gram)
    for a, b in ((g1, g2), (g2, g1)):
        row = dict(gram[a])
        if value:
            row[b] = value
        else:
            row.pop(b, None)
        gram[a] = row
    return CurveConfig(gram, cfg.curves, cfg.e, cfg.sigma, cfg.label, cfg.flags)


def add_curve(cfg: CurveConfig, curve: Curve) -> CurveConfig:
    for g in curve.cls:
        if g not in cfg.gram:
            raise ConfigError(f"class of {curve.name!r} names {g!r}, not an ambient generator")
    if curve.name in cfg.curves:
        raise ConfigError(f"curve {curve.name!r} already exists")
    return CurveConfig(cfg.gram, {**cfg.curves, curve.name: curve}, cfg.e, cfg.sigma, cfg.label,
                       cfg.flags)


def blow_up(cfg: CurveConfig, name: str, at=(), double_point_of: str | None = None) -> CurveConfig:
    """Blow up a point; `at` lists (curve name, multiplicity) incidences.

    The new exceptional generator (and a curve of the same name carrying its
    class) squares to -1 and is orthogonal to the old lattice; each incident
    curve's class drops by multiplicity * (new generator).  Blowing up the
    double point of a curve requires multiplicity exactly 2 on that curve and
    decrements its double-point count.  Only the incident curves are rebuilt.
    """
    if name in cfg.gram:
        raise ConfigError(f"generator {name!r} already exists")
    if name in cfg.curves:
        raise ConfigError(f"curve {name!r} already exists")
    incidences = dict()
    for cname, mult in at:
        if cname not in cfg.curves:
            raise ConfigError(f"no curve named {cname!r}")
        if mult < 1:
            raise ConfigError(f"multiplicity for {cname!r} must be >= 1, got {mult}")
        if cname in incidences:
            raise ConfigError(f"curve {cname!r} listed twice")
        incidences[cname] = mult
    if double_point_of is not None:
        dp_curve = cfg.curve(double_point_of)
        if dp_curve.double_points < 1:
            raise ConfigError(f"curve {double_point_of!r} has no double point to blow up")
        if incidences.setdefault(double_point_of, 2) != 2:
            raise ConfigError("a double-point blow-up carries multiplicity exactly 2")

    curves = dict(cfg.curves)
    for cname, mult in incidences.items():
        c = curves[cname]
        dps = c.double_points - (1 if cname == double_point_of else 0)
        curves[cname] = Curve(cname, {**c.cls, name: -mult}, c.genus, dps)
    curves[name] = Curve(name, {name: 1})
    return CurveConfig({**cfg.gram, name: {name: -1}}, curves, cfg.e + 1, cfg.sigma - 1, cfg.label,
                       cfg.flags)


def smooth(cfg: CurveConfig, name: str, c1: str, c2: str) -> CurveConfig:
    """Smooth one transverse intersection of two curves into one curve.

    Class adds, genus adds, and any remaining intersection points become
    double points of the result.
    """
    a, b = cfg.curve(c1), cfg.curve(c2)
    if a.name == b.name:
        raise ConfigError("cannot smooth a curve with itself")
    p = pair_vectors(cfg.gram, a.cls, b.cls)
    if p < 1:
        raise ConfigError(f"curves {c1!r} and {c2!r} have pairing {p}; need >= 1 to smooth")
    merged = Curve(
        name=name,
        cls={g: x for g in {**a.cls, **b.cls} if (x := a.cls.get(g, 0) + b.cls.get(g, 0))},
        genus=a.genus + b.genus,
        double_points=a.double_points + b.double_points + (p - 1),
    )
    curves = dict(cfg.curves)
    del curves[a.name], curves[b.name]
    if name in curves:
        raise ConfigError(f"curve {name!r} already exists")
    curves[name] = merged
    return CurveConfig(cfg.gram, curves, cfg.e, cfg.sigma, cfg.label, cfg.flags)


def extract_chain(cfg: CurveConfig, names) -> hirzebruch.Chain:
    """Read off a linear plumbing: consecutive pairings 1, all others 0,
    every curve an embedded sphere of square <= -2.  Returns the weights.

    Every square and adjacency is read from one `pairing_table` of the curves
    with themselves, so a chain costs the number of nonzero products between
    the curves' row images and classes, not k^2 pairings.  The checks run in
    order: each curve's genus, double points and square, then the pairings of
    each curve with every later one.
    """
    curves = [cfg.curve(n) for n in names]
    classes = [c.cls for c in curves]
    table = pairing_table(cfg.gram, classes, classes)
    for i, c in enumerate(curves):
        if c.genus != 0:
            raise ConfigError(f"chain curve {c.name!r} has genus {c.genus}, expected 0")
        if c.double_points != 0:
            raise ConfigError(f"chain curve {c.name!r} still has {c.double_points} double point(s)")
        sq = table[i].get(i, 0)
        if sq > -2:
            raise ConfigError(f"chain curve {c.name!r} has square {sq}, expected <= -2")
    for i, row in enumerate(table):
        later = {j: z for j, z in row.items() if j > i}
        want = {i + 1: 1} if i + 1 < len(curves) else {}
        if later != want:
            j = min(j for j in later.keys() | want.keys() if later.get(j) != want.get(j))
            raise ConfigError(
                f"chain adjacency violated: {curves[i].name!r}.{curves[j].name!r} = "
                f"{later.get(j, 0)}, expected {want.get(j, 0)}"
            )
    return tuple(row[i] for i, row in enumerate(table))


def knot_surgery_shadow(cfg: CurveConfig, label: str, add_flags=()) -> CurveConfig:
    """Relabel after a fiber-sum knot surgery: the lattice, curves, e and sigma
    are carried across by the natural correspondence; only the name and the
    recorded assumptions change.
    """
    return CurveConfig(cfg.gram, cfg.curves, cfg.e, cfg.sigma, label,
                       cfg.flags | frozenset(add_flags))


def rational_blowdown(cfg: CurveConfig, chain, new_label: str | None = None) -> CurveConfig:
    """Replace a recognized C_{p,q} chain of `cfg`, given by the weights that
    `extract_chain` read off it, by the rational ball it shares a boundary
    with: e drops by the chain length, sigma rises by it, the flags carry
    across, and no generators or curves are kept.
    """
    pq = hirzebruch.identify_cpq(chain)
    if pq is None:
        raise ConfigError(f"chain {hirzebruch.chain_to_str(chain)} is not a C_{{p,q}} plumbing")
    k = len(chain)
    label = new_label if new_label is not None else f"{cfg.label} (C_{{{pq[0]},{pq[1]}}} blown down)"
    return CurveConfig({}, {}, cfg.e - k, cfg.sigma + k, label, cfg.flags)


def homeo_fingerprint(cfg: CurveConfig):
    """Freedman-style lookup: a simply-connected configuration with an odd
    form, e = 3 + k and sigma = 1 - k (k >= 0) prints as "CP2 # k CP2bar".
    Returns None when no k fits or a required flag is missing.
    """
    if "simply-connected" not in cfg.flags or "odd" not in cfg.flags:
        return None
    k = cfg.e - 3
    if k < 0 or cfg.sigma != 1 - k:
        return None
    return f"CP2 # {k} CP2bar"
