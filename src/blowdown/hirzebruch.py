"""Linear plumbing chains from continued fractions, and their lattice data.

A chain C_{p,q} is the linear plumbing of spheres whose weights are the
negated coefficients of the continued fraction expansion

    p^2 / (pq - 1) = c_1 - 1/(c_2 - 1/(... - 1/c_k)),    all c_i >= 2.

Its boundary is the lens space L(p^2, pq-1), which also bounds a rational
homology ball; replacing the chain by the ball is the generalized rational
blow-down.  This module computes the chains, recognizes them, and presents
the discriminant group (cokernel of the Gram matrix) concretely enough to
decide which restriction vectors extend over the ball.

The discriminant group is cyclic, with a closed form.  One signed sweep,
phi_0 = 0, phi_1 = 1, phi_{i+1} = -w_i*phi_i - phi_{i-1}, gives phi_i =
(-1)^(i-1)*D_{i-1} for the prefix continuants D_0 = 1, D_i = w_i*D_{i-1} -
D_{i-2} (det = D_k).  The map v -> sum v_i*phi_i mod |det| kills every Gram
column (phi_{i-1} + w_i*phi_i + phi_{i+1} = 0) and is onto since phi_1 = 1; as
|coker| = |det| = |phi_{k+1}|, it is the cokernel.  With all weights <= -2 the
sweep is positive and increasing, so phi_1..phi_k are already reduced.

The Gram matrix is L*diag(D_i/D_{i-1})*L^T, so v^T G^-1 v = N_k/D_k from one
integer sweep: z_i = v_i*D_{i-1} - z_{i-1}, N_i = (N_{i-1}*D_i + z_i^2)/D_{i-1}.
N_i = v^T adj(G_i) v on the first i spheres is an integer, so each division is
exact; the form is returned as an int, ValueError where D_k does not divide N_k
and ZeroDivisionError where a continuant is zero.

Recognition reads num = phi_{k+1} = |det| and den = phi_k, the determinant
without the last sphere, from the same sweep: num/den is the continued
fraction of the reversed chain.  Reversal maps C_{p,q} to C_{p,p-q}, since
(pq - 1)(p(p - q) - 1) = 1 mod p^2, so r = (den + 1)/p must be an integer
coprime to p with r < p, and then q = p - r.  Hirzebruch-Jung expansions with
all c_i >= 2 are unique, so no round trip is needed, but the gcd is:
(-3,-2,-2,-3) has num 16 and den 7, and would otherwise read as C_{4,2}.

The extension criterion (characteristic + discriminant image divisible by p)
is calibrated against brute-force coset enumeration on the two smallest
chains; see the acceptance tests.  If it ever disagrees with a filtering
result quoted in a scenario, report the discrepancy -- do not patch it here.

The criterion reads two invariants of v, both linear: its parity mask, v mod 2
as one bit per sphere, and its residue, image(v) mod p.  Reduction mod 2 and
mod p are ring maps, so for v = sum c_j*u_j the mask is the XOR of the masks of
the u_j with odd c_j and the residue is sum c_j*residue(u_j) mod p, exactly.
One `ChainData` record thus decides every combination of the u_j from one pair
per u_j.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

Chain = tuple[int, ...]

# At most this many coefficients: C_{p,p-1} has p - 1 spheres, for any p.
MAX_CHAIN = 4096


def hj_expand(num: int, den: int) -> tuple[int, ...]:
    """Coefficients (all >= 2) of num/den = c1 - 1/(c2 - 1/(... - 1/ck)),
    k <= MAX_CHAIN; a longer expansion raises ValueError."""
    if den < 1 or num <= den:
        raise ValueError(f"need num > den >= 1, got {num}/{den}")
    if math.gcd(num, den) != 1:
        raise ValueError(f"{num} and {den} are not coprime")
    out = []
    a, b = num, den
    for _ in range(MAX_CHAIN):
        c = -(-a // b)  # ceiling
        out.append(c)
        a, b = b, c * b - a
        if b == 0:
            return tuple(out)
    # str(int) stops at 4300 digits by default, 640 at the lowest: name a longer one by size
    bits = num.bit_length()
    what = f"{num}/{den}" if bits <= 2000 else f"a fraction with a {bits}-bit numerator"
    raise ValueError(f"the expansion of {what} has more than {MAX_CHAIN} coefficients")


def chain_for_cpq(p: int, q: int) -> Chain:
    if not (p > q > 0):
        raise ValueError(f"need p > q > 0, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} are not coprime")
    return tuple(-c for c in hj_expand(p * p, p * q - 1))


def identify_cpq(chain: Chain):
    """Recognize a chain as C_{p,q}; returns (p, q) or None."""
    data = chain_data(chain)
    return None if data is None else (data.p, data.q)


def chain_to_str(chain: Chain) -> str:
    return "(" + ",".join(str(w) for w in chain) + ")"


def parse_chain(text: str) -> Chain:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"chain must look like (-9,-2,...), got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("empty chain")
    try:
        return tuple(int(part.strip()) for part in body.split(","))
    except ValueError:
        raise ValueError(f"chain entries must be integers: {text!r}") from None


def _parity_mask(v) -> int:
    """v mod 2 as a bit mask: bit i is set iff v_i is odd."""
    mask = 0
    for i, x in enumerate(v):
        if x & 1:
            mask |= 1 << i
    return mask


class ChainData(namedtuple("ChainData", "p q coeffs parity target")):
    """Everything the certifier reads off a C_{p,q} chain, from one sweep (`chain_data`).

    coeffs present coker(Gram) = Z_{p^2}: v maps to sum(v_i * coeffs_i) mod
    p^2, and coeffs[0] = 1, so the first sphere's dual generates.  v extends
    over the ball iff its parity mask equals `parity`, the weights' (v is
    characteristic), and its residue, image(v) mod p, equals `target`, which
    is 0: the image lies in the index-p subgroup of Z_{p^2}.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.p * self.p

    def invariants(self, v) -> tuple[int, int]:
        """(parity mask, residue mod p) of a restriction vector."""
        if len(v) != len(self.coeffs):
            raise ValueError(f"value vector has length {len(v)}, expected {len(self.coeffs)}")
        return _parity_mask(v), sum(map(mul, v, self.coeffs)) % self.p


def chain_data(chain: Chain) -> ChainData | None:
    """The record of a C_{p,q} chain, or None for any other chain, from the
    signed sweep of the module docstring."""
    if not chain or max(chain) > -2:
        return None
    coeffs, den, num = [], 0, 1  # at sphere i: phi_1..phi_{i-1}, phi_{i-1}, phi_i
    for w in chain:
        coeffs.append(num)
        den, num = num, -w * num - den
    p = math.isqrt(num)
    r, rest = divmod(den + 1, p)
    if p * p != num or rest or not p > r or math.gcd(p, r) != 1:
        return None
    return ChainData(p, p - r, tuple(coeffs), _parity_mask(chain), 0)


def discriminant(chain: Chain) -> ChainData:
    """The record of `chain`; ValueError if it is not a C_{p,q} chain."""
    data = chain_data(chain)
    if data is None:
        raise ValueError(f"chain {chain_to_str(chain)} is not a C_{{p,q}} plumbing")
    return data


def canonical_vector(chain: Chain) -> tuple[int, ...]:
    """The restriction of a canonical-type class: v_i = weight_i + 2."""
    return tuple(w + 2 for w in chain)


def extends_over_ball(chain: Chain, v) -> bool:
    """Decide whether a restriction vector extends over the rational ball.

    Requires v characteristic (v_i = weight_i mod 2) and its discriminant
    image to lie in the index-p subgroup of Z_{p^2} -- the image of the
    restriction map from the ball side.
    """
    data = discriminant(chain)
    return data.invariants(v) == (data.parity, data.target)


def gram_inverse_form(chain: Chain, v) -> int:
    """v^T G^{-1} v = N_k/D_k as an int, by the integer sweep of the module
    docstring; -k for the canonical vector.  ValueError if D_k does not divide
    N_k, and ZeroDivisionError if a continuant is zero."""
    if len(v) != len(chain):
        raise ValueError("length mismatch")
    det_prev, det, z, n = 0, 1, 0, 0
    for w, x in zip(chain, v):
        z = x * det - z
        det_prev, det = det, w * det - det_prev
        n = (n * det + z * z) // det_prev
    form, rest = divmod(n, det)
    if rest:
        raise ValueError(f"v^T G^-1 v = N_k/D_k = {n}/{det} is not an integer")
    return form
