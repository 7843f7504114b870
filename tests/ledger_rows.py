"""Chain data shared by the test modules: Gram matrices and ledger rows."""

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
