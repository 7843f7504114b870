"""Chain data and oracles shared by the test modules: Gram matrices, the
inverse-form, Smith-form and characteristic-box oracles, and ledger rows."""

import itertools
from fractions import Fraction


def gram_matrix(chain):
    """The tridiagonal Gram matrix: weights on the diagonal, 1 beside it."""
    k = len(chain)
    g = [[0] * k for _ in range(k)]
    for i, w in enumerate(chain):
        g[i][i] = w
        if i + 1 < k:
            g[i][i + 1] = g[i + 1][i] = 1
    return tuple(tuple(row) for row in g)


def gram_solve(chain, v):
    """Solve G x = v exactly for the tridiagonal Gram matrix (Thomas algorithm).

    The oracle for `hirzebruch.gram_inverse_form`: a general Fraction
    elimination that shares nothing with the integer continuant sweep.
    """
    k = len(chain)
    if len(v) != k:
        raise ValueError("length mismatch")
    diag = [Fraction(w) for w in chain]
    rhs = [Fraction(x) for x in v]
    # forward sweep (off-diagonals are 1; the chain Gram is nondegenerate)
    for i in range(1, k):
        f = 1 / diag[i - 1]
        diag[i] -= f
        rhs[i] -= f * rhs[i - 1]
    x = [Fraction(0)] * k
    x[-1] = rhs[-1] / diag[-1]
    for i in range(k - 2, -1, -1):
        x[i] = (rhs[i] - x[i + 1]) / diag[i]
    return tuple(x)


def thomas_inverse_form(chain, v):
    """v^T G^-1 v as a Fraction, by `gram_solve`."""
    return sum(Fraction(a) * b for a, b in zip(v, gram_solve(chain, v)))


def det(matrix):
    """The determinant by Gaussian elimination over the rationals, on rows
    kept as {column: nonzero entry}, so a banded matrix costs its band."""
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]
    out = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if col in rows[r]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        top = rows[col]
        out *= top[col]
        for row in rows[col + 1:]:
            if col in row:
                f = row[col] / top[col]
                for j, y in top.items():
                    x = row.get(j, 0) - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    return int(out)


def _smith_left(mat):
    """Diagonalize an integer matrix by row and column operations.

    Returns (diag, U) with U * mat * V = diag(d_1..d_k) for some unimodular V,
    d_i >= 0 and d_i | d_{i+1}.  Only the row transform U is tracked; it is
    what presents the cokernel Z^k / im(mat).
    """
    a = [list(row) for row in mat]
    k = len(a)
    u = [[int(i == j) for j in range(k)] for i in range(k)]

    def add_row(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in a:
            row[i] += c * row[j]

    for t in range(k):
        while True:
            piv = None
            for i in range(t, k):
                for j in range(t, k):
                    if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv[0] != t:
                a[t], a[piv[0]] = a[piv[0]], a[t]
                u[t], u[piv[0]] = u[piv[0]], u[t]
            if piv[1] != t:
                for row in a:
                    row[t], row[piv[1]] = row[piv[1]], row[t]
            clean = True
            for i in range(t + 1, k):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    clean = clean and a[i][t] == 0
            for j in range(t + 1, k):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    clean = clean and a[t][j] == 0
            if not clean:
                continue
            # pivot divides everything below-right, or pull a bad row up
            bad = None
            for i in range(t + 1, k):
                for j in range(t + 1, k):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return [a[i][i] for i in range(k)], u


def smith_coeffs(chain):
    """(order, coefficients) of coker(Gram) from its Smith form, first entry 1."""
    diag, u = _smith_left(gram_matrix(chain))
    order = diag[-1]
    assert all(d == 1 for d in diag[:-1]), f"cokernel {diag} is not cyclic"
    coeffs = [c % order for c in u[-1]]
    unit = pow(coeffs[0], -1, order)
    return order, tuple(c * unit % order for c in coeffs)


def enumerate_box(weights):
    """All characteristic vectors v with |v_i| <= |w_i|, brute force."""
    return list(itertools.product(*(range(w, -w + 1, 2) for w in weights)))


# pairings of the ledger basis classes with the chain spheres, as computed
# from the curve geometry by the bundled scenarios (Q_n: T,E1,E2 against
# C_{7,1}; X_n: T,E1..E11 against C_{71,8})
QN_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
)
XN_ROWS = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)
