"""Chain data shared by the test modules: Gram matrices, the inverse-form
oracle and ledger rows."""

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
