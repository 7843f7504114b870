"""Seiberg-Witten bookkeeping as exact symbolic arithmetic.

Values of the invariant are affine expressions c0 + c1*n in one formal twist
parameter n, so a single symbolic run certifies the whole family; concrete
cases are substitutions.  A Ledger records, for one manifold, the tracked
cohomology classes (fiber class T and exceptional classes) together with the
value attached to each characteristic class vector.  The pipeline operations
mirror the geometric ones: knot surgery seeds a ledger from twist knots'
Alexander polynomials in closed form, blow-ups spawn +-E twins, and rational
blow-down keeps exactly the classes whose restriction to the chain extends
over the rational ball.  The seed, SW(X_K) = SW(X)*Delta_K(t^2)
(Fintushel-Stern 1998), runs on plain integers, e_k = a_k + b_k*n as two
int lists, and builds one LinExpr per kept exponent.

Every ledger's entries are one `Entries` view over (base entries sorted by
class, the places of m free exceptional signs); a written-out ledger has
m = 0.  Every class is written over the whole basis: a base class holds 0 at
each free place, a free place is a basis index, and a base entry carries its
descendants' square.  A blow-up pads each base class with a 0 per name and
adds the names' places, so it costs O(base * rank), writes out no sign, and
a ledger of base * 2^m entries holds only its base.  A hand-built ledger's
entries are sorted once, on construction, and each class must have one
coordinate per basis class; the pipeline builds its bases in class order,
and a lookup puts 0 at the free places and bisects.  A view checks that each
base class is 0 at every free place, one `itemgetter` call per entry.

The restriction of a class c is sum c_j*row_j over the tracked generators'
chain-pairing rows, and extension depends only on its parity mask (r mod 2)
and its residue (discriminant image mod p); see `hirzebruch.ChainData`.  Both
are linear, so the filter reads each row's pair off its nonzero (sphere,
pairing) pairs once, and a base entry's is the XOR of its odd coordinates'
masks and sum c_j*residue_j mod p.  Every exceptional sign is odd, so those
rows XOR in one fixed mask: a base entry whose mask is not the chain's parity
has no survivor, and if none is, the filter stops there.  Otherwise a sign
pattern a survives iff res(base) + sum a_i*residue_i is the residue the ball
accepts (`ChainData.target`): a subset sum mod p.  A backward pass from it
gives, per level i, the residues from which the remaining signs can still land
there, until the next level could hold more than 2^ceil(m/2) (twice this
one's); the levels above accept every residue (meet in the middle,
Horowitz-Sahni 1974).  Each base entry expands one level at a time, -1 child
before +1 child, keeping a pattern (signs and residue, no restriction) only
if its residue is live: every level stays sorted, the unpruned ones hold at
most 2^floor(m/2) patterns, and every pattern on a pruned one reaches a
survivor.  Only survivors are restricted, once each, over their z nonzero
pairings: the cost is O(rank*k + b*(rank + 2^floor(m/2)) + m*min(p,
2^ceil(m/2)) + survivors*(rank + z)) for b base entries and k spheres,
instead of O(2^m * rank).

An exceptional class with a zero row changes no restriction, residue or value,
only the square: a blow-up away from the chain commutes with the blow-down,
and SW(K +- E) = SW(K) (Fintushel-Stern 1995).  So every free place with a
zero row stays a free place of the result, at the same index, and m above
counts only the walked ones.  Every other free place is walked where it sits,
and the walk yields each base entry with its survivors' (class, restriction)
pairs; the blow-down builds one Entry per walked survivor, which carries its
restriction: the square is the base's minus v^T G^-1 v, and the dimension
check is shared per base entry.  A walked place before a base coordinate
interleaves the base entries' survivors, so they are sorted by class at the
end.  `substitute` keeps an entry whose value is already concrete and the
view's free places, and substitutes each symbolic value where it sits, so it
costs only the base entries that change.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from heapq import merge
from itertools import compress, product
from math import comb, gcd
from operator import attrgetter, itemgetter

from . import hirzebruch


class LinExpr(namedtuple("LinExpr", "c0 c1", defaults=(0, 0))):
    """c0 + c1*n for the formal parameter n."""

    __slots__ = ()

    def __add__(self, other: "LinExpr") -> "LinExpr":
        return LinExpr(self.c0 + other.c0, self.c1 + other.c1)

    def __neg__(self) -> "LinExpr":
        return LinExpr(-self.c0, -self.c1)

    def shift(self, k: int) -> "LinExpr":
        return LinExpr(self.c0 + k, self.c1)

    def subst(self, n: int) -> int:
        return self.c0 + self.c1 * n

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __str__(self) -> str:
        if self.c1 >= 0:
            return f"{self.c0} + {self.c1}*n"
        return f"{self.c0} - {-self.c1}*n"


def parse_linexpr(text: str) -> LinExpr:
    """Parse forms like "n", "-n", "3", "1-2*n", "0 + 1*n"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty value expression")
    c0 = c1 = 0
    # signed terms: a run of signs, then digits or [digits[*]]n
    for term in re.split(r"(?<=[^+*-])(?=[+-])", s):
        m = re.fullmatch(r"([+-]*)(?:(\d+)|(?:(\d+)\*?)?n)", term)
        if not m:
            raise ValueError(f"bad term in value expression {text!r}")
        sign = -1 if m.group(1).count("-") % 2 else 1
        try:
            if m.group(2):
                c0 += sign * int(m.group(2))
            else:
                c1 += sign * int(m.group(3) or 1)
        except ValueError:  # more digits than Python reads
            raise ValueError(f"bad coefficient in value expression {text!r}") from None
    return LinExpr(c0, c1)


def alexander_twist(n: int | None = None) -> LinExpr:
    """The n-twist knot's one free coefficient: its Alexander polynomial is
    Delta_n(t) = 1 + n*(t - 2 + t^-1).

    With no argument the coefficient n stays symbolic.
    """
    return LinExpr(0, 1) if n is None else LinExpr(n, 0)


Entry = namedtuple("Entry", "cls value square verified restriction", defaults=(True, None))
_class_of = attrgetter("cls")


class Entries:
    """A ledger's entries, as a sorted read-only view.

    Holds the base entries, sorted by class, and `free`, the ascending basis
    indices of m free exceptional signs.  Each base class is written over the
    whole basis with 0 at every free place, and the base entry stands for its
    2^m descendants, its class with a sign +-1 at each free place; they share
    its value, flag, square and restriction.  Each base entry's descendants
    come in class order, as the free places ascend and -1 comes before +1, so
    iteration is one lazy merge of them, ties in base order.  Its length is
    len(base) << m (see `entry_count` for m >= 63), and nothing is built until
    an entry is read.  Two views are equal when their counts are and, once
    each writes out the places that are free in it and not in the other, their
    bases are, restrictions included, which costs the written-out bases' size.
    The base is taken as given, already sorted.  A base class that is not 0 at
    a free place, whose entries lookup could not find, is a ValueError
    (checked in O(base x m), one `itemgetter` over the free places per entry);
    it names the first such place, then the first entry there.
    """

    __slots__ = ("base", "free")

    def __init__(self, base: tuple[Entry, ...], free: tuple[int, ...]):
        if free:
            at_free = itemgetter(*free)  # an int for one place, else a tuple
            zero = at_free((0,) * (max(free) + 1))
            if any(map(zero.__ne__, map(at_free, map(_class_of, base)))):
                for i in free:  # name the first free place, then its first entry
                    for ent in base:
                        if ent.cls[i]:
                            raise ValueError(f"base class {ent.cls} is not 0 at free place {i}")
        self.base = base
        self.free = free

    @property
    def m(self) -> int:
        return len(self.free)

    def __len__(self) -> int:
        return len(self.base) << len(self.free)

    def __iter__(self):
        if not self.free:
            return iter(self.base)
        return (Entry(cls, *self.base[i][1:]) for cls, i in _spread(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Entries):
            return NotImplemented
        if len(self.base) << self.m != len(other.base) << other.m:
            return False

        def written(a, b):  # `a` with the places free in it and not in `b` written out
            return list(Entries(a.base, tuple(i for i in a.free if i not in b.free)))

        return written(self, other) == written(other, self)

    def __repr__(self) -> str:
        return f"Entries({len(self.base)} base entries x 2^{self.m} signs)"


def _put(cls: tuple, places, values) -> tuple:
    """`cls` with `values` set at `places`."""
    out = list(cls)
    for i, x in zip(places, values):
        out[i] = x
    return tuple(out)


def _spread(entries: Entries):
    """Yield (class, base index) per entry of the view: one lazy merge, ties in base order."""
    free = entries.free

    def descendants(cls, i):  # in class order: the free places ascend, -1 before +1
        for signs in product((-1, 1), repeat=len(free)):
            yield _put(cls, free, signs), i

    return merge(*[descendants(ent.cls, i) for i, ent in enumerate(entries.base)])


class Ledger(namedtuple("Ledger", "label e sigma basis entries")):
    """The tracked classes and their entries, an `Entries` view sorted by
    class: any other iterable is sorted into a written-out view (m = 0), so
    lookups bisect and the blow-down walks in that order.  Each class needs
    one coordinate per basis class; of a view, the first is checked (O(1))."""

    __slots__ = ()

    def __new__(cls, label: str, e: int, sigma: int, basis: tuple[str, ...], entries):
        view = isinstance(entries, Entries)
        if not view:
            entries = Entries(_sorted_entries(entries), ())
        for ent in entries.base[:1] if view else entries.base:
            if len(ent.cls) != len(basis):
                raise ValueError(f"class {ent.cls} has {len(ent.cls)} coordinates "
                                 f"for a basis of {len(basis)}")
        return super().__new__(cls, label, e, sigma, basis, entries)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` sorts too

    def entry(self, cls) -> Entry:
        """The entry at `cls` in O(rank + log base) (see `_base_index`)."""
        cls = tuple(cls)
        i = _base_index(self.entries, cls)
        if i < 0:
            raise KeyError(f"no ledger entry for class {cls}")
        return Entry(cls, *self.entries.base[i][1:])


def _base_index(entries: Entries, cls: tuple[int, ...]) -> int:
    """The index of the base entry that `cls` descends from, or -1: the
    coordinates at the m free places must each be +-1, and `cls` with 0 put
    there is bisected."""
    base, free = entries.base, entries.free
    if not base or len(cls) != len(base[0].cls) or any(cls[i] not in (-1, 1) for i in free):
        return -1
    core = _put(cls, free, (0,) * len(free))
    i = bisect_left(base, core, key=_class_of)
    return i if i < len(base) and base[i].cls == core else -1


def entry_count(ledger: Ledger) -> int:
    """The number of entries, len(base) << m, also where `len` cannot return
    it (m >= 63)."""
    return len(ledger.entries.base) << ledger.entries.m


def _sorted_entries(entries) -> tuple[Entry, ...]:
    return tuple(sorted(entries, key=_class_of))


def dimension_from_square(square: int, e: int, sigma: int) -> int:
    """Formal dimension (K^2 - 3*sigma - 2*e)/4 of a class of square K^2, as an
    int; ValueError unless it is a nonnegative integer."""
    num = square - 3 * sigma - 2 * e
    g = gcd(num, 4)  # num/4 in lowest terms is (num/g)/(4/g)
    if g < 4 or num < 0:
        shown = f"{num // g}/{4 // g}" if g < 4 else num // 4
        raise ValueError(f"formal dimension {shown}; need a nonnegative integer")
    return num // 4


MAX_KNOTS = 64


def knot_surgery_ledger(twists, label: str, e: int = 12, sigma: int = -8) -> Ledger:
    """Seed a ledger from fiber-sum knot surgeries along the fiber class T.

    `twists` are `alexander_twist` coefficients n_1..n_r.  With x = t - t^-1,
    each Delta_i(t^2) is 1 + n_i*x^2, so the relative invariant
    (prod Delta_i(t^2) - 1)/x is sum_k e_k*x^(2k-1), e_k the k-th elementary
    symmetric function of the n_i, and x^(2k-1) expands binomially; the
    coefficient of t^j becomes the value at class j*T.  Both steps run on
    integers, e_k = a_k + b_k*n, and one LinExpr is built per kept exponent.
    Extreme exponents carry the quoted leading values; interior entries are
    marked unverified.  At most MAX_KNOTS knots are taken, and the cost
    grows as r^2.
    """
    twists = tuple(twists)
    r = len(twists)
    if r > MAX_KNOTS:
        raise ValueError(f"{r} knots; at most {MAX_KNOTS} are allowed")
    a, b = [1] + [0] * r, [0] * (r + 1)  # e_k = a_k + b_k*n
    for i, (n0, n1) in enumerate(twists, 1):
        for k in range(i, 0, -1):  # e_k += (n0 + n1*n) * e_(k-1)
            if b[k - 1]:
                if n1:
                    raise ValueError("product would be quadratic in n")
                b[k] += n0 * b[k - 1]
            a[k], b[k] = a[k] + n0 * a[k - 1], b[k] + n1 * a[k - 1]
    # the coefficient of t^j, j = 2k-1-2i for i < 2k, at index (j + 2r - 1) // 2
    ca, cb = [0] * (2 * r), [0] * (2 * r)
    for k in range(1, r + 1):
        for i in range(2 * k):
            c = -comb(2 * k - 1, i) if i & 1 else comb(2 * k - 1, i)
            ca[r + k - 1 - i] += c * a[k]
            cb[r + k - 1 - i] += c * b[k]
    kept = [(2 * x - 2 * r + 1, c0, c1) for x, (c0, c1) in enumerate(zip(ca, cb)) if c0 or c1]
    top = max(-kept[0][0], kept[-1][0]) if kept else 0
    return Ledger(label, e, sigma, ("T",), Entries(tuple(
        Entry((j,), LinExpr(c0, c1), 0, abs(j) == top) for j, c0, c1 in kept), ()))


def blow_up_ledger(ledger: Ledger, count: int, names=None) -> Ledger:
    """Blow up `count` times: each entry K spawns K + sum(a_i * E_i) over all
    sign choices a_i = +-1, keeping its value.  Squares drop by count, so the
    formal dimension of every descendant equals its parent's.  The entries are
    an `Entries` view whose base is the old one, each class padded with a 0
    per name, its square lowered by count and no restriction kept (the ledger
    knows none of K +- E to the old chain), and whose free places gain the
    new names' indices at the end of the basis.  So this writes out no sign
    and costs O(len(base) * len(basis)); a blow-down of the result walks
    O(m*min(p, 2^ceil(m/2)) + len(base)*2^floor(m/2)) (signs, residue)
    patterns, not len(base) << m entries, and restricts survivors only; m
    leaves out the names orthogonal to the chain, which stay free signs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if names is None:
        names = tuple(f"E{len(ledger.basis) + i}" for i in range(count))
    names = tuple(names)
    if len(names) != count:
        raise ValueError(f"expected {count} names, got {len(names)}")
    seen: set[str] = set()
    for nm in names:
        if nm in ledger.basis:
            raise ValueError(f"tracked class {nm!r} already exists")
        if nm in seen:
            raise ValueError(f"tracked class {nm!r} is named twice")
        seen.add(nm)
    return Ledger(
        label=ledger.label,
        e=ledger.e + count,
        sigma=ledger.sigma - count,
        basis=ledger.basis + names,
        entries=Entries(
            tuple(Entry(ent.cls + (0,) * count, ent.value, ent.square - count, ent.verified)
                  for ent in ledger.entries.base),
            ledger.entries.free + tuple(range(len(ledger.basis), len(ledger.basis) + count))),
    )


class BlowdownResult(namedtuple("BlowdownResult", "ledger chambered")):
    """The blown-down ledger, whose base entries carry their restrictions, and
    the chamber flag: the view's m free places are the exceptional classes
    whose chain-pairing rows are zero, wherever they sit, and a class shares
    its restriction and value with its sign twins.  `restrictions` and
    `value_sets` yield one (class, ...) pair per entry, in class order, and
    build no Entry; a lookup puts 0 at the m places and bisects the base.  A
    result equals its written-out twin's: equality is the ledgers' view rule,
    restrictions included, and the flags'."""

    __slots__ = ()

    @property
    def restrictions(self):
        base = self.ledger.entries.base
        return ((cls, base[i].restriction) for cls, i in _spread(self.ledger.entries))

    @property
    def value_sets(self):
        values = [self._values(ent.value) for ent in self.ledger.entries.base]
        return ((cls, values[i]) for cls, i in _spread(self.ledger.entries))

    def restriction_of(self, cls) -> tuple[int, ...]:
        return self.ledger.entries.base[self._index(cls)].restriction

    def value_set_of(self, cls) -> tuple[LinExpr, ...]:
        return self._values(self.ledger.entries.base[self._index(cls)].value)

    def _index(self, cls) -> int:
        i = _base_index(self.ledger.entries, cls := tuple(cls))
        if i < 0:
            raise KeyError(f"no surviving class {cls}")
        return i

    def _values(self, v: LinExpr) -> tuple[LinExpr, ...]:
        return (v.shift(-1), v, v.shift(1)) if self.chambered else (v,)


def _survivors(test, base, rows, walked):
    """Yield (base entry, [(class, restriction), ...]) per base entry with
    survivors, in base order, walking the signs at `walked` (0 in every base
    class) as (signs, residue) patterns and restricting survivors only."""
    p, coeffs, pairs, inv = test.p, test.coeffs, [], []
    for row in rows:  # each row's nonzero (sphere, pairing) pairs and (parity mask, residue)
        pairs.append(nz := list(compress(enumerate(row), row)))
        bits = s = 0
        for i, x in nz:
            bits, s = bits | (x & 1) << i, s + x * coeffs[i]
        inv.append((bits, s % p))
    tail, tail_mask = [inv[i][1] for i in walked], 0
    for i in walked:  # every exceptional sign is odd: one fixed mask
        tail_mask ^= inv[i][0]
    starts = []  # each base entry's pair, by linearity over its nonzero coordinates
    for ent in base:
        mask, residue = tail_mask, 0
        for j, c in compress(enumerate(ent.cls), ent.cls):
            bits, s = inv[j]
            mask, residue = mask ^ bits if c & 1 else mask, residue + c * s
        starts.append((mask, residue % p))
    if all(mask != test.parity for mask, _s in starts):
        return  # no class is characteristic: build no level
    # live[i]: the residues from which signs i.. can still land on the target, built
    # back until the next level could hold more than 2^ceil(m/2); the levels above
    # accept every residue
    m, live = len(walked), [{test.target}]
    for x in reversed(tail):
        if len(live[-1]) << 1 > 1 << (m + 1) // 2:
            break
        live.append({(s + a * x) % p for s in live[-1] for a in (-1, 1)})
    live = [range(p)] * (m + 1 - len(live)) + live[::-1]
    for ent, (mask, residue) in zip(base, starts):
        if mask != test.parity or residue not in live[0]:
            continue
        level = [((), residue)]  # sign patterns so far, -1 before +1
        for x, nxt in zip(tail, live[1:]):
            level = [(signs + (a,), t)
                     for signs, s in level for a in (-1, 1) if (t := (s + a * x) % p) in nxt]
        if level:
            yield ent, [_restricted(_put(ent.cls, walked, signs), pairs, len(test.coeffs))
                        for signs, _s in level]


def _restricted(cls: tuple, pairs, k: int):
    """(cls, sum c_j*row_j), read from the nonzero pairs of the rows with c_j != 0."""
    out = [0] * k
    for c, nz in zip(cls, pairs):
        for i, x in nz if c else ():
            out[i] += c * x
    return cls, tuple(out)


def _blowdown_core(ledger: Ledger, chain, chain_pairings, new_label, chambered: bool):
    chain = tuple(chain)
    test = hirzebruch.discriminant(chain)
    if len(chain_pairings) != len(ledger.basis):
        raise ValueError("need one chain-pairing row per tracked class")
    for row in chain_pairings:
        if len(row) != len(chain):
            raise ValueError("chain-pairing row length does not match the chain")
    # a free sign with a zero row stays free at its place: a blow-up away from
    # the chain commutes with the blow-down.  The others are walked in place.
    free = tuple(i for i in ledger.entries.free if not any(chain_pairings[i]))
    walked = [i for i in ledger.entries.free if any(chain_pairings[i])]
    survivors = []
    # survivors come grouped by base entry, which shares its square and its
    # dimension check with them
    for ent, found in _survivors(test, ledger.entries.base, chain_pairings, walked):
        try:
            dimension_from_square(ent.square, ledger.e, ledger.sigma)
        except ValueError as exc:
            first = _put(found[0][0], free, (-1,) * len(free))
            raise ValueError(f"class {first} has {exc}") from None
        for cls, r in found:
            square = ent.square - hirzebruch.gram_inverse_form(chain, r)
            survivors.append(Entry(cls, ent.value, square, ent.verified, r))
    # a walked place before a base coordinate interleaves the base entries'
    # survivors
    survivors.sort(key=_class_of)
    label = new_label if new_label is not None else f"{ledger.label} (chain blown down)"
    out = Ledger(label=label, e=ledger.e - len(chain), sigma=ledger.sigma + len(chain),
                 basis=ledger.basis, entries=Entries(tuple(survivors), free))
    return BlowdownResult(out, chambered)


def rational_blowdown_ledger(
    ledger: Ledger, chain, chain_pairings, corrections, new_label: str | None = None
) -> BlowdownResult:
    """Filter a ledger through a rational blow-down, keeping exact values.

    `corrections` must be (True, True): the two recorded vanishing inputs
    (the auxiliary model manifold and the unsurgered background have
    identically zero invariants) that make the difference formula collapse,
    so survivors keep their parent's value unchanged.  Survivors are exactly
    the entries whose chain restriction extends over the rational ball; each
    must have nonnegative integral formal dimension.  The new square is the old
    one minus v^T G^-1 v, so d' = d - (v^T G^-1 v + k)/4 for a chain of k
    spheres: the dimension is preserved exactly when v^T G^-1 v = -k.  That
    holds for every survivor of the bundled corpus, but nothing checks it here.
    """
    if tuple(corrections) != (True, True):
        raise ValueError(
            "exact blow-down values need both vanishing inputs asserted: corrections=(True, True)"
        )
    return _blowdown_core(ledger, chain, chain_pairings, new_label, chambered=False)


def chambered_blowdown_ledger(
    ledger: Ledger, chain, chain_pairings, new_label: str | None = None
) -> BlowdownResult:
    """Rational blow-down without exactness inputs: survivors are filtered the
    same way, but each value is only pinned up to one wall crossing, i.e. to
    the set {v-1, v, v+1}.
    """
    return _blowdown_core(ledger, chain, chain_pairings, new_label, chambered=True)


def substitute(ledger: Ledger, n: int) -> Ledger:
    """The ledger at twist parameter n, a view over the substituted base with
    the same m: a concrete entry is kept as it is (entries are frozen), each
    symbolic one gets its value at n, and nothing is written out or sorted
    again."""
    base = tuple(Entry(ent.cls, LinExpr(ent.value.subst(n), 0), ent.square, ent.verified,
                       ent.restriction) if ent.value.c1 else ent for ent in ledger.entries.base)
    return Ledger(ledger.label, ledger.e, ledger.sigma, ledger.basis,
                  Entries(base, ledger.entries.free))


def minimality_report(ledger: Ledger) -> bool:
    """True when the ledger pins minimality: exactly two classes +-L with
    nonzero opposite values.  Such a ledger has no partition into blow-up
    pairs {K+E, K-E} of equal value, which is what the blow-up formula would
    force: its only pair is {L, -L}, and L's value v != 0 differs from -v.
    A blown-up view's values are its base's, so only the base is read.
    """
    for ent in ledger.entries.base:
        if ent.value.c1 != 0:
            raise ValueError("minimality needs concrete values; substitute n first")
    if entry_count(ledger) != 2:
        return False
    a, b = ledger.entries
    return b.cls == tuple(-x for x in a.cls) and b.value == -a.value and not a.value.is_zero()


def ledger_report(ledger: Ledger) -> str:
    """Deterministic serialization: one line per base entry, classes in
    lexicographic vector order with +-1 at each of the m free places, values
    as c0 + c1*n.
    """
    lines = [f"ledger {ledger.label}: e={ledger.e} sigma={ledger.sigma} "
             f"entries={entry_count(ledger)}"]
    free = ledger.entries.free
    signs = ("+-1",) * len(free)
    for ent in ledger.entries.base:
        cls = "(" + ",".join(_put(map(str, ent.cls), free, signs)) + ")"
        mark = "" if ent.verified else "  [unverified]"
        lines.append(f"  {cls} -> {ent.value}{mark}")
    return "\n".join(lines)
