"""Smith normal form: transform identities, divisibility chain, unimodularity,
and agreement with an independent implementation (sympy).

The transform identities are checked on the dense elimination kept here as
the oracle, which also forms U; ``smith_sparse`` must return its diagonal,
V and V^{-1} exactly.
"""

import random

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from wittkit.snf import smith_sparse


def det(mat):
    """Exact determinant (fraction-free Bareiss), for unimodularity checks."""
    n = len(mat)
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(a, b):
    nb = len(b[0])
    return [
        [sum(ra[t] * b[t][j] for t in range(len(b))) for j in range(nb)] for ra in a
    ]


def _dense_v_and_vinv(mat):
    """V and V^{-1} of smith_sparse(mat) as dense matrices."""
    nc = len(mat[0])
    _, v_cols, vinv_rows = smith_sparse(mat)
    v = [[col.get(r, 0) for col in v_cols] for r in range(nc)]
    vinv = [[row.get(j, 0) for j in range(nc)] for row in vinv_rows]
    return v, vinv


def _check_snf(mat):
    """The oracle's U*M*V = D, |det U| = |det V| = 1 and divisibility chain;
    returns smith_sparse's diagonal, which must be the oracle's."""
    w = _DenseWorker(mat)
    w.run()
    u, d, v = w.u, w.d, w.v
    assert matmul(matmul(u, mat), v) == d
    nr, nc = len(mat), len(mat[0])
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)
    assert smith_sparse(mat)[0] == diag
    return diag


def test_identity():
    diag = _check_snf([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_two_by_two_gcd_example():
    # diag(2,3) ~ diag(1,6): by-hand gcd steps
    diag = _check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_zero_matrix():
    diag = _check_snf([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_random_matrices_vs_sympy():
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        diag = _check_snf(mat)
        want = sympy_snf(Matrix(mat))
        want_diag = [abs(int(want[i, i])) for i in range(min(nr, nc))]
        assert diag == want_diag, (mat, diag, want_diag)


def test_vinv_tracks_inverse():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        v, vinv = _dense_v_and_vinv(mat)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert matmul(v, vinv) == ident
        assert matmul(vinv, v) == ident


# --- differential test against the dense elimination --------------------------


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _DenseWorker:
    """The dense elimination the sparse worker replaced, kept as its oracle:
    every step on full lists, with U formed."""

    def __init__(self, mat):
        self.d = [list(map(int, row)) for row in mat]
        self.nr = len(self.d)
        self.nc = len(self.d[0]) if self.nr else 0
        self.u = _identity(self.nr)
        self.v = _identity(self.nc)
        self.vinv = _identity(self.nc)

    # row ops (mirror on U)
    def row_swap(self, i, j):
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def row_addmul(self, i, j, q):
        # row_i += q * row_j
        self.d[i] = [a + q * b for a, b in zip(self.d[i], self.d[j])]
        self.u[i] = [a + q * b for a, b in zip(self.u[i], self.u[j])]

    def row_neg(self, i):
        self.d[i] = [-a for a in self.d[i]]
        self.u[i] = [-a for a in self.u[i]]

    # column ops (mirror on V; inverse op on Vinv rows)
    def col_swap(self, i, j):
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def col_addmul(self, i, j, q):
        # col_i += q * col_j ; Vinv row_j -= q * row_i
        for row in self.d:
            row[i] += q * row[j]
        for row in self.v:
            row[i] += q * row[j]
        self.vinv[j] = [a - q * b for a, b in zip(self.vinv[j], self.vinv[i])]

    def _find_pivot(self, k):
        best = None
        for i in range(k, self.nr):
            for j in range(k, self.nc):
                a = self.d[i][j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
                    if best[0] == 1:
                        return best
        return best

    def run(self):
        d = self.d
        k = 0
        while k < min(self.nr, self.nc):
            piv = self._find_pivot(k)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != k:
                self.row_swap(k, pi)
            if pj != k:
                self.col_swap(k, pj)
            while True:
                # clear column k by gcd steps
                dirty = False
                for i in range(k + 1, self.nr):
                    while d[i][k]:
                        q = d[i][k] // d[k][k]
                        self.row_addmul(i, k, -q)
                        if d[i][k]:
                            self.row_swap(i, k)
                            dirty = True
                for j in range(k + 1, self.nc):
                    while d[k][j]:
                        q = d[k][j] // d[k][k]
                        self.col_addmul(j, k, -q)
                        if d[k][j]:
                            self.col_swap(j, k)
                            dirty = True
                if dirty:
                    continue
                # pivot must divide the remaining submatrix
                offender = None
                for i in range(k + 1, self.nr):
                    for j in range(k + 1, self.nc):
                        if d[i][j] % d[k][k]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                self.row_addmul(k, offender, 1)
            if d[k][k] < 0:
                self.row_neg(k)
            k += 1
        return k


def _assert_same_as_dense(mat):
    w = _DenseWorker(mat)
    w.run()
    diag, v_cols, vinv_rows = smith_sparse(mat)
    nc = w.nc
    assert diag == [w.d[i][i] for i in range(min(w.nr, nc))], mat
    assert [[col.get(r, 0) for r in range(nc)] for col in v_cols] == [list(c) for c in zip(*w.v)]
    assert [[row.get(j, 0) for j in range(nc)] for row in vinv_rows] == w.vinv
    for sparse in (*v_cols, *vinv_rows):
        assert all(sparse.values())


def test_sparse_elimination_matches_the_dense_one_on_random_matrices():
    rng = random.Random(13)
    densities = (0.05, 0.15, 0.3, 0.6, 1.0)
    for nr in range(1, 13):
        for nc in range(1, 13):
            for density in densities * 2:
                mat = [
                    [rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(nc)]
                    for _ in range(nr)
                ]
                _assert_same_as_dense(mat)


def test_sparse_elimination_matches_the_dense_one_on_edge_cases():
    cases = [
        [[0]],
        [[-5]],
        [[0, 0, 0], [0, 0, 0]],
        [[0, 3, 0], [0, 0, 0], [0, 0, -6]],  # zero rows and columns
        [[-2, 0], [0, -3]],  # negative pivots
        [[0, -1, 4], [-7, 2, 0]],
        [[2, 0], [0, 3]],  # the divisibility fix
        [[4, 0], [0, 6]],
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[3]] * 4,
        [[0, 0, 7, 0, -7]],
    ]
    for mat in cases:
        _assert_same_as_dense(mat)


def test_sparse_elimination_matches_the_dense_one_on_omega1_relations():
    from wittkit.kaehler import omega1_for_ring
    from wittkit.rings import CyclotomicTruncation

    for shape in [(3, 2, 1), (3, 3, 3), (5, 2, 2), (3, 4, 1), (5, 3, 2)]:
        _assert_same_as_dense(omega1_for_ring(CyclotomicTruncation(*shape)).relations)
