"""Linear algebra over Z/p^M.

Z/p^M is a chain ring: every nonzero element is unit * p^v, so Gaussian
elimination works once pivots are chosen by minimal p-valuation.  These
routines back divide_exact and the annihilators on the finite quotient
rings, the fixed-point solver's F_p-linear levels, and every membership
test on finitely presented modules with a p-power modulus.

``Elimination`` eliminates one matrix on sparse rows: each row is a
``{column: value}`` dict of its nonzero residues, keyed by original column.
A column swap only updates the two permutation lists (position -> column and
column -> position), and a pivot step touches only the rows holding the
pivot column and only the pivot row's entries.

The pivot is the first entry of minimal p-valuation in row-major order over
the remaining rows, in their current order, and the current column
positions.  The rule is fixed: any other choice can return a different
solution, and callers (``divide_exact``, ``check_p_surjectivity``) report
the solution as a witness, so the report bytes depend on it.

The rule reads only the matrix, so the elimination is recorded once and
replayed on each right-hand side.  Each pivot step records the row it swaps
into place, the inverse of its pivot's unit part, and the multiplier of the
pivot row subtracted from each row below; ``Elimination.solve`` applies those
steps to a right-hand side, in order, and back-substitutes through the
eliminated rows.  So one elimination answers any number of right-hand sides,
given now or later, and each answer is the one a fresh elimination of the
matrix with that right-hand side would give.  ``solve_mod_pp`` and
``solve_mod_pp_many`` eliminate and solve at once; ``divide_exact`` keeps
the elimination of each divisor's multiplication matrix and replays it.

Over F_p (M = 1) the eliminated rows also give the kernel: ``kernel()``
sets one column without a pivot to 1 and back-substitutes, and
``solutions(rhs, cap)`` lists the solution ``solve`` returns plus every
combination of that basis.  So one elimination answers a solution set too.
"""

from math import gcd


class Elimination:
    """The recorded elimination of one matrix over Z/p^M.

    ``rank`` is the number of pivots.  ``solve(rhs)`` returns one solution
    x (list) of A x = rhs, or None; solving leaves the elimination as it was.
    With M = 1, ``kernel()`` and ``solutions(rhs, cap)`` give a kernel basis
    and the whole solution set.
    """

    def __init__(self, rows, p, M):
        self.pm = pm = p**M
        nr = len(rows)
        self.nc = nc = len(rows[0]) if nr else 0
        a = [{j: r for j, r in enumerate([c % pm for c in row]) if r} for row in rows]
        col_at = list(range(nc))  # position -> column
        pos = list(range(nc))  # column -> position
        pw = [p**v for v in range(M + 1)]
        val_of = {pw[v]: v for v in range(M)}  # gcd(p^M, row) = p^(min valuation)
        pivots = []  # pivots[k] = p^v: row k's pivot entry, at position k
        steps = []  # steps[k] = (bi, inv_unit, rows below, their multipliers)
        k = 0
        kmax = min(nr, nc)
        while k < kmax:
            best = None
            for i in range(k, nr):
                row = a[i]
                if row:
                    v = val_of[gcd(pm, *row.values())]
                    if best is None or v < best[0]:
                        best = (v, i)
                        if v == 0:
                            break
            if best is None:
                break
            v, bi = best
            # the first position in row bi holding an entry of valuation v
            q = pw[v + 1]
            bj = min(pos[col] for col, c in a[bi].items() if c % q)
            a[k], a[bi] = a[bi], a[k]
            ck, col = col_at[k], col_at[bj]
            col_at[k], col_at[bj] = col, ck
            pos[col], pos[ck] = k, bj
            piv = a[k]
            pv = pw[v]
            # the pivot entry is p^v once normalized; it is dropped, so the
            # elimination below and the back substitution skip it
            inv_unit = pow(piv.pop(col) // pv, -1, pm)
            for j in piv:
                piv[j] = piv[j] * inv_unit % pm
            # forward elimination only: below the pivot every entry of the pivot
            # column has valuation >= v (the pivot was minimal over the submatrix),
            # so w * p^v cancels it exactly
            below, ws = [], []
            for i in range(k + 1, nr):
                row = a[i]
                c = row.pop(col, 0)
                if c:
                    w = c // pv
                    below.append(i)
                    ws.append(w)
                    for j, cj in piv.items():
                        r = (row.get(j, 0) - w * cj) % pm
                        if r:
                            row[j] = r
                        else:
                            row.pop(j, None)
            steps.append((bi, inv_unit, tuple(below), tuple(ws)))
            pivots.append(pv)
            k += 1
        self.rank = k
        # past its dropped pivot, row i < rank holds entries of later
        # positions only; the rows from rank on are empty
        self._rows = a[:k]
        self._pivots = pivots
        self._cols = col_at[:k]
        self._free = sorted(col_at[k:])
        self._steps = steps

    def solve(self, rhs):
        """One solution x (list) of A x = rhs, or None: the recorded steps
        replayed on rhs, then back substitution."""
        pm = self.pm
        b = [c % pm for c in rhs]
        for k, (bi, inv_unit, below, ws) in enumerate(self._steps):
            b[k], b[bi] = b[bi], b[k]
            bk = b[k] = b[k] * inv_unit % pm
            if bk:
                for i, w in zip(below, ws):
                    b[i] = (b[i] - w * bk) % pm
        # rows below the pivot block are empty, so b must vanish there
        if any(b[self.rank :]):
            return None
        x = [0] * self.nc
        for i in range(self.rank - 1, -1, -1):
            c = (b[i] - sum([e * x[j] for j, e in self._rows[i].items()])) % pm
            pv = self._pivots[i]
            if c % pv:
                return None
            x[self._cols[i]] = c // pv
        return x

    def kernel(self):
        """A basis of the kernel of A over F_p (M = 1): for each column
        without a pivot, in column order, the vector with 1 there and 0 at
        the other such columns, back-substituted through the pivot rows."""
        basis = []
        for f in self._free:
            x = [0] * self.nc
            x[f] = 1
            for i in range(self.rank - 1, -1, -1):
                x[self._cols[i]] = -sum([e * x[j] for j, e in self._rows[i].items()]) % self.pm
            basis.append(x)
        return basis

    def solutions(self, rhs, cap=None):
        """Every solution of A x = rhs over F_p (M = 1), as tuples: the
        solution ``solve`` returns plus each combination of the kernel
        basis, in ``itertools.product`` order of the coefficients.  [] if
        there is none, None if there are more than cap."""
        p = self.pm
        part = self.solve(rhs)
        if part is None:
            return []
        if cap is not None and p ** (self.nc - self.rank) > cap:
            return None
        out = [tuple(part)]
        for vec in self.kernel():
            out = [tuple([(x + c * y) % p for x, y in zip(u, vec)]) for u in out for c in range(p)]
        return out


def solve_mod_pp(rows, rhs, p, M):
    """One solution x (list) of A x = rhs over Z/p^M, or None.

    ``rows`` is the matrix as a list of rows.  Any solution is returned;
    callers treat it as a witness.
    """
    return Elimination(rows, p, M).solve(rhs)


def solve_mod_pp_many(rows, rhss, p, M):
    """For each right-hand side in ``rhss``, the solution that
    ``solve_mod_pp(rows, rhs, p, M)`` returns, or None: one elimination
    carries them all, since the pivot rule reads only the matrix.
    """
    elim = Elimination(rows, p, M)
    return [elim.solve(rhs) for rhs in rhss]
