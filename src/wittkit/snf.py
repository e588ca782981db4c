"""Smith normal form over the integers, with transform matrices.

smith_normal_form(M) returns (U, D, V) with U*M*V = D, D diagonal with
d_i | d_{i+1}, and U, V unimodular.  Pivoting picks the smallest nonzero
absolute value and reduces by gcd steps, which keeps entries from blowing up
on the cyclotomic relation matrices this package feeds it.

All matrices are lists of lists of Python ints (exact).
"""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _Worker:
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
        return k  # rank of the diagonal part


def smith_normal_form(mat):
    """(U, D, V) with U*mat*V = D, D diagonal, d_i | d_{i+1}, U, V unimodular."""
    w = _Worker(mat)
    w.run()
    return w.u, w.d, w.v


def smith_with_inverse(mat):
    """As smith_normal_form, plus V^{-1} (tracked, not recomputed)."""
    w = _Worker(mat)
    w.run()
    return w.u, w.d, w.v, w.vinv


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
