"""Smith normal form over the integers: the diagonal, V and V^{-1}.

smith_sparse(M) eliminates M by row and column operations to a diagonal D
with d_i | d_{i+1} and d_i >= 0, and returns that diagonal together with
the unimodular V and its inverse, both tracked through the column
operations (V^{-1} is not recomputed).  Some unimodular U has U*M*V = D;
it is not formed.  Pivoting picks the smallest nonzero absolute value and
reduces by gcd steps, which keeps entries from blowing up on the
cyclotomic relation matrices this package feeds it.

The elimination runs on sparse rows, as ``modlin.solve_mod_pp`` does: each
row of D is a ``{column: value}`` dict of its nonzero entries, keyed by
original column, and a column swap only updates the two permutation lists
(position -> column and column -> position).  V is kept by columns and
V^{-1} by rows, both sparse and keyed by original column, so a column swap
moves neither.  The relation matrices of Omega^1 are almost diagonal
(cyc(5,3,2): 200 x 100 with 100 nonzeros), so a step costs the entries it
touches, not a scan of the submatrix.

The step rule is fixed.  The pivot is the entry of smallest absolute value,
first in row-major order over the remaining rows (in their current order)
and the current column positions, found early at 1.  Then column k is
cleared by gcd steps, then row k, with a swap whenever a remainder is left;
then the first row holding an entry the pivot does not divide is added to
row k, and finally the pivot is made positive.  Another rule gives another
V and V^{-1}: ``PresentedModule.normal_form`` reads coordinates in the
basis V and ``PresentedModule.torsion`` reports its generators from the rows
of V^{-1}, so the report bytes depend on it.

Matrix entries are Python ints (exact).
"""

from itertools import compress, count
from math import gcd


def _addmul(dst, src, q):
    """dst += q * src on sparse dicts, keeping no zero entries."""
    if not q:
        return
    for j, s in src.items():
        r = dst.get(j, 0) + q * s
        if r:
            dst[j] = r
        else:
            del dst[j]


def _sparse(row):
    """{index: entry} for the nonzero entries of a dense row."""
    row = list(row)
    return dict(zip(compress(count(), row), compress(row, row)))


class _Worker:
    """One elimination run; see the module docstring for the step rule."""

    def __init__(self, mat):
        self.nr = len(mat)
        self.nc = len(mat[0]) if self.nr else 0
        self.rows = [_sparse(map(int, row)) for row in mat]
        self.col_at = list(range(self.nc))  # position -> column
        self.pos = list(range(self.nc))  # column -> position
        # for each column c of D: the column of V, and the row of V^{-1},
        # that sit at position pos[c]
        self.v_cols = [{j: 1} for j in range(self.nc)]
        self.vinv_rows = [{j: 1} for j in range(self.nc)]
        self.rank = self._run()

    def _swap_positions(self, j, k):
        col_at, pos = self.col_at, self.pos
        cj, ck = col_at[j], col_at[k]
        col_at[j], col_at[k] = ck, cj
        pos[cj], pos[ck] = k, j

    def _run(self):
        rows, nr = self.rows, self.nr
        col_at, pos = self.col_at, self.pos
        # rows at or below k that may be nonempty: a row that is empty when
        # a pivot has been placed stays empty through the steps for it
        live = range(nr)
        k = 0
        while k < min(nr, self.nc):
            best = None
            for i in live:
                row = rows[i]
                if row:
                    a = min(map(abs, row.values()))
                    if best is None or a < best[0]:
                        best = (a, i)
                        if a == 1:
                            break
            if best is None:
                break
            a, pi = best
            pj = min(pos[c] for c, x in rows[pi].items() if abs(x) == a)
            if pi != k:
                rows[k], rows[pi] = rows[pi], rows[k]
            if pj != k:
                self._swap_positions(k, pj)
            below = [i for i in live if i > k and rows[i]]
            while True:
                dirty = False
                # clear column k by gcd steps
                ck = col_at[k]
                for i in below:
                    while ck in rows[i]:
                        q = rows[i][ck] // rows[k][ck]
                        _addmul(rows[i], rows[k], -q)
                        if ck in rows[i]:
                            rows[i], rows[k] = rows[k], rows[i]
                            dirty = True
                # clear row k; an operation on positions j and k leaves row k
                # unchanged at every other position
                for j in sorted(pos[c] for c in rows[k] if pos[c] > k):
                    while True:
                        cj, ck = col_at[j], col_at[k]
                        x = rows[k].get(cj)
                        if not x:
                            break
                        q = x // rows[k][ck]
                        if q:
                            # column j -= q * column k, on D and V; V^{-1}
                            # row k += q * row j.  Rows above k are zero at k.
                            for i in (k, *below):
                                row = rows[i]
                                y = row.get(ck)
                                if y:
                                    z = row.get(cj, 0) - q * y
                                    if z:
                                        row[cj] = z
                                    else:
                                        del row[cj]
                            _addmul(self.v_cols[cj], self.v_cols[ck], -q)
                            _addmul(self.vinv_rows[ck], self.vinv_rows[cj], q)
                        if cj in rows[k]:
                            self._swap_positions(j, k)
                            dirty = True
                if dirty:
                    continue
                # the pivot must divide the remaining submatrix; rows below k
                # are zero at positions <= k now
                piv = rows[k][ck]
                offender = None
                if piv != 1:
                    for i in below:
                        if gcd(*rows[i].values()) % piv:
                            offender = i
                            break
                if offender is None:
                    break
                _addmul(rows[k], rows[offender], 1)
            ck = col_at[k]
            if rows[k][ck] < 0:
                rows[k][ck] = -rows[k][ck]  # row k is the pivot alone by now
            live = below
            k += 1
        return k  # rank of the diagonal part


def smith_sparse(mat):
    """The diagonal of D (length min(rows, columns)), the columns of V and
    the rows of V^{-1}, in order, each a sparse ``{index: value}`` dict."""
    w = _Worker(mat)
    return (
        [w.rows[i][c] if i < w.rank else 0 for i, c in enumerate(w.col_at[: w.nr])],
        [w.v_cols[c] for c in w.col_at],
        [w.vinv_rows[c] for c in w.col_at],
    )
