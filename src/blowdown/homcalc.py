"""Homology-level bookkeeping for curve configurations in 4-manifolds.

State is an ambient integer lattice (named basis, Gram matrix, Euler
characteristic, signature, assumption flags) plus a list of curves, each a
class vector with a genus and a count of positive double points.  The
operations are the moves the constructions are made of: blow-ups (including
infinitely close ones, via incidence with the previous exceptional curve),
smoothing of transverse intersections, chain extraction, the knot-surgery
relabeling, and rational blow-down of a recognized chain.  Everything is
immutable; each operation returns a new configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import hirzebruch


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Ambient:
    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    e: int
    sigma: int
    label: str
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Curve:
    name: str
    cls: tuple[int, ...]
    genus: int = 0
    double_points: int = 0


@dataclass(frozen=True)
class CurveConfig:
    ambient: Ambient
    curves: tuple[Curve, ...] = ()

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise ConfigError(f"no curve named {name!r}")

    def has_curve(self, name: str) -> bool:
        return any(c.name == name for c in self.curves)


def pair_vectors(gram, v1, v2) -> int:
    """v1^T G v2, summed over the nonzero coordinates of both vectors only."""
    support2 = [(j, y) for j, y in enumerate(v2) if y]
    total = 0
    for i, x in enumerate(v1):
        if x:
            row = gram[i]
            total += x * sum(row[j] * y for j, y in support2)
    return total


def _resolve(cfg: CurveConfig, c) -> Curve:
    return cfg.curve(c) if isinstance(c, str) else c


def pairing(cfg: CurveConfig, c1, c2) -> int:
    a, b = _resolve(cfg, c1), _resolve(cfg, c2)
    return pair_vectors(cfg.ambient.gram, a.cls, b.cls)


def square(cfg: CurveConfig, c) -> int:
    return pairing(cfg, c, c)


def add_curve(cfg: CurveConfig, curve: Curve) -> CurveConfig:
    if len(curve.cls) != len(cfg.ambient.basis):
        raise ConfigError(
            f"class vector for {curve.name!r} has length {len(curve.cls)}, "
            f"ambient rank is {len(cfg.ambient.basis)}"
        )
    if cfg.has_curve(curve.name):
        raise ConfigError(f"curve {curve.name!r} already exists")
    return replace(cfg, curves=cfg.curves + (curve,))


def blow_up(cfg: CurveConfig, name: str, at=(), double_point_of: str | None = None) -> CurveConfig:
    """Blow up a point; `at` lists (curve name, multiplicity) incidences.

    The new exceptional generator (and a curve of the same name carrying its
    class) squares to -1 and is orthogonal to the old lattice; each incident
    curve's class drops by multiplicity * (new generator).  Blowing up the
    double point of a curve requires multiplicity exactly 2 on that curve and
    decrements its double-point count.
    """
    amb = cfg.ambient
    if name in amb.basis:
        raise ConfigError(f"generator {name!r} already exists")
    if cfg.has_curve(name):
        raise ConfigError(f"curve {name!r} already exists")
    incidences = dict()
    for cname, mult in at:
        if not cfg.has_curve(cname):
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

    rank = len(amb.basis)
    new_gram = tuple(row + (0,) for row in amb.gram) + ((0,) * rank + (-1,),)
    new_amb = replace(
        amb,
        basis=amb.basis + (name,),
        gram=new_gram,
        e=amb.e + 1,
        sigma=amb.sigma - 1,
    )
    new_curves = []
    for c in cfg.curves:
        mult = incidences.get(c.name, 0)
        dps = c.double_points - (1 if c.name == double_point_of else 0)
        new_curves.append(Curve(c.name, c.cls + (-mult,), c.genus, dps))
    exceptional = Curve(name=name, cls=(0,) * rank + (1,))
    return CurveConfig(ambient=new_amb, curves=tuple(new_curves) + (exceptional,))


def smooth(cfg: CurveConfig, name: str, c1: str, c2: str) -> CurveConfig:
    """Smooth one transverse intersection of two curves into one curve.

    Class adds, genus adds, and any remaining intersection points become
    double points of the result.
    """
    a, b = cfg.curve(c1), cfg.curve(c2)
    if a.name == b.name:
        raise ConfigError("cannot smooth a curve with itself")
    p = pairing(cfg, a, b)
    if p < 1:
        raise ConfigError(f"curves {c1!r} and {c2!r} have pairing {p}; need >= 1 to smooth")
    merged = Curve(
        name=name,
        cls=tuple(x + y for x, y in zip(a.cls, b.cls)),
        genus=a.genus + b.genus,
        double_points=a.double_points + b.double_points + (p - 1),
    )
    kept = tuple(c for c in cfg.curves if c.name not in (a.name, b.name))
    if any(c.name == name for c in kept):
        raise ConfigError(f"curve {name!r} already exists")
    return replace(cfg, curves=kept + (merged,))


def extract_chain(cfg: CurveConfig, names) -> hirzebruch.Chain:
    """Read off a linear plumbing: consecutive pairings 1, all others 0,

    every curve an embedded sphere of square <= -2.  Returns the weights.

    Each curve's support and its row image v^T G are built once, in
    O(s * rank) for a curve with s nonzero coordinates; every square and
    adjacency pairing is then a dot of one curve's image with the other
    curve's support.  A chain of k curves costs O(k*s*rank + k^2*s), not k^2
    dense pairings.
    """
    curves = [cfg.curve(n) for n in names]
    gram = cfg.ambient.gram
    supports = []
    images = []
    weights = []
    for c in curves:
        if c.genus != 0:
            raise ConfigError(f"chain curve {c.name!r} has genus {c.genus}, expected 0")
        if c.double_points != 0:
            raise ConfigError(f"chain curve {c.name!r} still has {c.double_points} double point(s)")
        support = [(i, x) for i, x in enumerate(c.cls) if x]
        image = _row_image(gram, support)
        sq = _dot(image, support)
        if sq > -2:
            raise ConfigError(f"chain curve {c.name!r} has square {sq}, expected <= -2")
        supports.append(support)
        images.append(image)
        weights.append(sq)
    for i, a in enumerate(curves):
        image = images[i]
        for j in range(i + 1, len(curves)):
            want = 1 if j == i + 1 else 0
            got = _dot(image, supports[j])
            if got != want:
                raise ConfigError(
                    f"chain adjacency violated: {a.name!r}.{curves[j].name!r} = {got}, "
                    f"expected {want}"
                )
    return tuple(weights)


def _row_image(gram, support) -> tuple[int, ...]:
    """v^T G for the vector v with nonzero coordinates `support`."""
    rows = [gram[i] if x == 1 else [x * g for g in gram[i]] for i, x in support]
    if len(rows) == 1:
        return rows[0]
    return tuple(map(sum, zip(*rows)))


def _dot(image, support) -> int:
    return sum(image[j] * y for j, y in support)


def knot_surgery_shadow(cfg: CurveConfig, label: str, add_flags=()) -> CurveConfig:
    """Relabel after a fiber-sum knot surgery: the lattice, curves, e and sigma

    are carried across by the natural correspondence; only the name and the
    recorded assumptions change.
    """
    amb = replace(cfg.ambient, label=label, flags=cfg.ambient.flags | frozenset(add_flags))
    return replace(cfg, ambient=amb)


def rational_blowdown(amb: Ambient, chain, new_label: str | None = None) -> Ambient:
    """Replace a recognized C_{p,q} chain of `amb`, given by the weights that

    `extract_chain` read off it, by the rational ball it shares a boundary
    with: e drops by the chain length, sigma rises by it, and curve-level
    data is dropped.
    """
    pq = hirzebruch.identify_cpq(chain)
    if pq is None:
        raise ConfigError(f"chain {hirzebruch.chain_to_str(chain)} is not a C_{{p,q}} plumbing")
    k = len(chain)
    label = new_label if new_label is not None else f"{amb.label} (C_{{{pq[0]},{pq[1]}}} blown down)"
    return Ambient(
        basis=(),
        gram=(),
        e=amb.e - k,
        sigma=amb.sigma + k,
        label=label,
        flags=amb.flags,
    )


def homeo_fingerprint(a: Ambient):
    """Freedman-style lookup: a simply-connected ambient with an odd form,

    e = 3 + k and sigma = 1 - k (k >= 0) prints as "CP2 # k CP2bar".
    Returns None when no k fits or a required flag is missing.
    """
    if "simply-connected" not in a.flags or "odd" not in a.flags:
        return None
    k = a.e - 3
    if k < 0 or a.sigma != 1 - k:
        return None
    return f"CP2 # {k} CP2bar"
