"""Chain data shared by the test modules: Gram matrices and ledger rows."""


def gram_matrix(chain):
    """The tridiagonal Gram matrix: weights on the diagonal, 1 beside it."""
    k = len(chain)
    g = [[0] * k for _ in range(k)]
    for i, w in enumerate(chain):
        g[i][i] = w
        if i + 1 < k:
            g[i][i + 1] = g[i + 1][i] = 1
    return tuple(tuple(row) for row in g)


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
