"""Independent expected values for the `chains` and `words` workloads.

Nothing here imports the package: each answer comes from a closed form or
from plain integer arithmetic written out separately, so a defect in the
package cannot also hide in its own check.
"""

from __future__ import annotations

import math

# --- linear chains -----------------------------------------------------------


def hj_chain(p: int, q: int) -> tuple[int, ...]:
    """C_{p,q}: negated Hirzebruch-Jung expansion of p^2 / (pq - 1)."""
    num, den = p * p, p * q - 1
    out = []
    while den:
        c = -(-num // den)
        out.append(-c)
        num, den = den, c * den - num
    return tuple(out)


def _continuants(chain):
    """Leading (theta) and trailing (phi) continuants of the tridiagonal Gram.

    theta[i] is the determinant of the top-left i x i block, phi[i] that of
    the block from row i (1-based) to the end; theta[0] = phi[k+1] = 1.
    """
    k = len(chain)
    theta = [1, chain[0]]
    for i in range(1, k):
        theta.append(chain[i] * theta[-1] - theta[-2])
    phi = [0] * (k + 2)
    phi[k + 1], phi[k] = 1, chain[-1]
    for i in range(k - 1, 0, -1):
        phi[i] = chain[i - 1] * phi[i + 1] - phi[i + 2]
    return theta, phi


def det(chain) -> int:
    return _continuants(chain)[0][-1]


def adjugate_image(chain, v) -> tuple[int, ...]:
    """det(G) * G^{-1} v, exactly, from the continuant form of G^{-1}:

    (G^{-1})_{ij} = (-1)^{i+j} theta_{i-1} phi_{j+1} / det   for i <= j.
    """
    theta, phi = _continuants(chain)
    k = len(chain)
    out = []
    for i in range(1, k + 1):
        s = 0
        for j in range(1, k + 1):
            lo, hi = (i, j) if i <= j else (j, i)
            term = theta[lo - 1] * phi[hi + 1] * v[j - 1]
            s += -term if (i + j) % 2 else term
        out.append(s)
    return tuple(out)


def extends(chain, v) -> bool:
    """v extends over the rational ball iff it is characteristic and its class

    in coker(G) = Z/p^2 has order dividing p, i.e. p * G^{-1} v is integral.
    """
    if any((x - w) % 2 for x, w in zip(v, chain)):
        return False
    d = abs(det(chain))
    p = math.isqrt(d)
    return all(x % p == 0 for x in adjugate_image(chain, v))


def inverse_form(chain, v):
    """v^T G^{-1} v as an exact (numerator, denominator) pair in lowest terms."""
    d = det(chain)
    num = sum(a * b for a, b in zip(v, adjugate_image(chain, v)))
    g = math.gcd(num, d)
    num, d = num // g, d // g
    if d < 0:
        num, d = -num, -d
    return num, d


def non_chain_perturbation(chain) -> tuple[int, ...]:
    """Lower one weight by 1 so that |det| is not a perfect square.

    Every C_{p,q} chain has |det| = p^2, so the result is certainly not one.
    """
    for i in range(len(chain) - 1, -1, -1):
        cand = chain[:i] + (chain[i] - 1,) + chain[i + 1:]
        d = abs(det(cand))
        if math.isqrt(d) ** 2 != d:
            return cand
    raise ValueError(f"no non-square perturbation of {chain}")


# --- SL(2, Z) -----------------------------------------------------------------

IDENTITY = ((1, 0), (0, 1))


def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_pow(m, e: int):
    out = IDENTITY
    while e:
        if e & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        e >>= 1
    return out


def letter(tag: str, exp: int):
    """a -> ((1, 1), (0, 1)), b -> ((1, 0), (-1, 1)), raised to exp."""
    return ((1, exp), (0, 1)) if tag == "a" else ((1, 0), (-exp, 1))


def eval_letters(letters):
    m = IDENTITY
    for tag, exp in letters:
        m = mat_mul(m, letter(tag, exp))
    return m


def parse_printed_word(text: str):
    """Read the printed word form "a^3 B a" back into (tag, exponent) letters."""
    if text == "1":
        return []
    out = []
    for tok in text.split(" "):
        base, _, e = tok.partition("^")
        exp = int(e) if e else 1
        if base not in ("a", "b", "A", "B") or exp < 1:
            raise ValueError(f"bad printed letter {tok!r}")
        out.append((base.lower(), -exp if base.isupper() else exp))
    return out


def primitive_cycle(m, cycle: str):
    """Image of (1,0) (cycle a) or (0,1) (cycle b) under m, primitive, sign-normalized."""
    c = (1, 0) if cycle == "a" else (0, 1)
    u = m[0][0] * c[0] + m[0][1] * c[1]
    v = m[1][0] * c[0] + m[1][1] * c[1]
    g = math.gcd(u, v)
    u, v = u // g, v // g
    if u < 0 or (u == 0 and v < 0):
        u, v = -u, -v
    return (u, v)
