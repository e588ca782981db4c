"""Prime-power linear solving, cross-checked by brute force on tiny systems,
against the dense elimination the sparse solver replaced, and against the
one-pass many-rhs loop the recorded elimination replaced."""

import itertools
import random
from math import gcd

import pytest

from wittkit.modlin import Elimination, solve_mod_pp, solve_mod_pp_many


def pval(c, p, M):
    """p-valuation of c as a residue mod p^M (valuation of 0 is M)."""
    c %= p**M
    if c == 0:
        return M
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def test_pval():
    assert pval(0, 3, 3) == 3
    assert pval(9, 3, 3) == 2
    assert pval(5, 3, 3) == 0
    assert pval(27, 3, 3) == 3  # 27 = 0 mod 27


def _brute_solutions(rows, rhs, mod, nc):
    sols = []
    for x in itertools.product(range(mod), repeat=nc):
        if all(
            sum(r * xi for r, xi in zip(row, x)) % mod == b % mod
            for row, b in zip(rows, rhs)
        ):
            sols.append(x)
    return sols


def test_solve_mod_pp_against_brute_force():
    rng = random.Random(2)
    p, M = 3, 2
    mod = p**M
    for trial in range(120):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        rows = [[rng.randrange(mod) for _ in range(nc)] for _ in range(nr)]
        rhs = [rng.randrange(mod) for _ in range(nr)]
        got = solve_mod_pp(rows, rhs, p, M)
        brute = _brute_solutions(rows, rhs, mod, nc)
        if brute:
            assert got is not None, (rows, rhs)
            assert tuple(x % mod for x in got) in brute
        else:
            assert got is None, (rows, rhs, got)


def _dense_solve_mod_pp(rows, rhs, p, M):
    """The dense Gaussian elimination solve_mod_pp replaced, kept as the
    oracle: the sparse solver must return this exact list."""
    pm = p**M
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [[c % pm for c in row] for row in rows]
    b = [c % pm for c in rhs]
    col_of = list(range(nc))
    pivots = []
    k = 0
    while k < min(nr, nc):
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j]:
                    v = pval(a[i][j], p, M)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best and best[0] == 0:
                break
        if best is None:
            break
        v, bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        b[k], b[bi] = b[bi], b[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        col_of[k], col_of[bj] = col_of[bj], col_of[k]
        inv_unit = pow(a[k][k] // p**v, -1, pm)
        a[k] = [c * inv_unit % pm for c in a[k]]
        b[k] = b[k] * inv_unit % pm
        for i in range(k + 1, nr):
            if a[i][k]:
                w = a[i][k] // p**v
                a[i] = [(c - w * ck) % pm for c, ck in zip(a[i], a[k])]
                b[i] = (b[i] - w * b[k]) % pm
        pivots.append((k, v))
        k += 1
    for i in range(k, nr):
        if b[i] % pm:
            return None
    x = [0] * nc
    for i, v in reversed(pivots):
        c = b[i]
        for j in range(i + 1, nc):
            if a[i][j]:
                c -= a[i][j] * x[col_of[j]]
        c %= pm
        if c % p**v:
            return None
        x[col_of[i]] = c // p**v
    return x


def _one_pass_solve_many(rows, rhss, p, M):
    """The many-rhs solver the recorded elimination replaced, kept as the
    oracle: one pass of the elimination loop carries every right-hand side
    along, and an Elimination must answer each exactly as it does."""
    pm = p**M
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [{j: r for j, r in enumerate([c % pm for c in row]) if r} for row in rows]
    bs = [[c % pm for c in rhs] for rhs in rhss]
    col_at = list(range(nc))
    pos = list(range(nc))
    pw = [p**v for v in range(M + 1)]
    val_of = {pw[v]: v for v in range(M)}
    pivots = []
    k = 0
    while k < min(nr, nc):
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
        bj = min(pos[col] for col, c in a[bi].items() if c % pw[v + 1])
        a[k], a[bi] = a[bi], a[k]
        for b in bs:
            b[k], b[bi] = b[bi], b[k]
        ck, col = col_at[k], col_at[bj]
        col_at[k], col_at[bj] = col, ck
        pos[col], pos[ck] = k, bj
        piv = a[k]
        pv = pw[v]
        inv_unit = pow(piv.pop(col) // pv, -1, pm)
        for j in piv:
            piv[j] = piv[j] * inv_unit % pm
        live = []
        for b in bs:
            bk = b[k] = b[k] * inv_unit % pm
            if bk:
                live.append((b, bk))
        for i in range(k + 1, nr):
            row = a[i]
            c = row.pop(col, 0)
            if c:
                w = c // pv
                for j, cj in piv.items():
                    r = (row.get(j, 0) - w * cj) % pm
                    if r:
                        row[j] = r
                    else:
                        row.pop(j, None)
                for b, bk in live:
                    b[i] = (b[i] - w * bk) % pm
        pivots.append(pv)
        k += 1
    out = []
    for b in bs:
        if any(b[len(pivots) :]):
            out.append(None)
            continue
        x = [0] * nc
        for i in range(len(pivots) - 1, -1, -1):
            c = (b[i] - sum([e * x[j] for j, e in a[i].items()])) % pm
            if c % pivots[i]:
                x = None
                break
            x[col_at[i]] = c // pivots[i]
        out.append(x)
    return out


def _random_system(rng, p, M, nr, nc, density, scale):
    """A seeded system: entries nonzero with probability density, each a
    multiple of scale; some rows and columns zeroed; a consistent or a random
    right-hand side."""
    pm = p**M
    rows = [
        [rng.randrange(pm) * scale % pm if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]
    if rng.random() < 0.3:
        rows[rng.randrange(nr)] = [0] * nc
    if rng.random() < 0.3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0
    if rng.random() < 0.5:
        x = [rng.randrange(pm) for _ in range(nc)]
        rhs = [sum(c * xi for c, xi in zip(row, x)) % pm for row in rows]
    else:
        rhs = [rng.randrange(pm) for _ in range(nr)]
    return rows, rhs


SHAPES = [(1, 1), (1, 4), (4, 1), (3, 3), (5, 9), (9, 5), (12, 12), (8, 24), (24, 8), (24, 48)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_sparse_solver_matches_dense_oracle(p, M):
    rng = random.Random(100 * p + M)
    pm = p**M
    solved = unsolvable = 0
    for nr, nc in SHAPES:
        for density in (0.05, 0.2, 0.5, 1.0):
            # scale p: every entry a multiple of p, so pivots are non-units
            for scale in (1, p) if M > 1 else (1,):
                rows, rhs = _random_system(rng, p, M, nr, nc, density, scale)
                want = _dense_solve_mod_pp(rows, rhs, p, M)
                got = solve_mod_pp(rows, rhs, p, M)
                assert got == want, (rows, rhs)
                if got is None:
                    unsolvable += 1
                    continue
                solved += 1
                assert all(
                    sum(c * xi for c, xi in zip(row, got)) % pm == b % pm
                    for row, b in zip(rows, rhs)
                )
    assert solved and unsolvable


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_many_rhs_solver_matches_dense_oracle_per_rhs(p, M):
    # one elimination for several right-hand sides, solvable and unsolvable
    # mixed in one call, returns what the dense solver returns for each
    rng = random.Random(300 * p + M)
    pm = p**M
    mixed = 0
    for nr, nc in SHAPES:
        for density in (0.05, 0.2, 0.5, 1.0):
            for scale in (1, p) if M > 1 else (1,):
                rows, _ = _random_system(rng, p, M, nr, nc, density, scale)
                rhss = []
                for _ in range(4):
                    x = [rng.randrange(pm) for _ in range(nc)]
                    rhss.append([sum(c * xi for c, xi in zip(row, x)) for row in rows])
                    rhss.append([rng.randrange(-pm, 2 * pm) for _ in range(nr)])
                got = solve_mod_pp_many(rows, rhss, p, M)
                want = [_dense_solve_mod_pp(rows, rhs, p, M) for rhs in rhss]
                assert got == want, (rows, rhss)
                assert all(sol is not None for sol in got[::2])
                mixed += None in got
    assert mixed


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_elimination_replays_the_one_pass_loop(p, M):
    # one recorded elimination answers every right-hand side as the one-pass
    # loop does, in any order and however often it is asked: solving leaves
    # no state behind
    rng = random.Random(500 * p + M)
    pm = p**M
    for nr, nc in SHAPES:
        for density in (0.05, 0.2, 0.5, 1.0):
            for scale in (1, p) if M > 1 else (1,):
                rows, _ = _random_system(rng, p, M, nr, nc, density, scale)
                rhss = []
                for _ in range(3):
                    x = [rng.randrange(pm) for _ in range(nc)]
                    rhss.append([sum(c * xi for c, xi in zip(row, x)) for row in rows])
                    rhss.append([rng.randrange(-pm, 2 * pm) for _ in range(nr)])
                want = _one_pass_solve_many(rows, rhss, p, M)
                elim = Elimination(rows, p, M)
                assert [elim.solve(rhs) for rhs in rhss] == want, (rows, rhss)
                order = list(range(len(rhss)))
                rng.shuffle(order)
                assert [elim.solve(rhss[i]) for i in order] == [want[i] for i in order]
                assert [elim.solve(rhs) for rhs in reversed(rhss)] == want[::-1]
                assert elim.solve(rhss[0]) == want[0]
                assert solve_mod_pp_many(rows, rhss, p, M) == want


def test_elimination_degenerate_inputs():
    p, M = 3, 2
    cases = [
        ([], [[], []]),
        ([[0, 0], [0, 0]], [[0, 0], [0, 3], [9, 0]]),
        ([[3]], [[1], [6]]),
        ([[3]], []),
        ([[-1, 9, 30], [0, 0, 0], [4, -18, 3]], [[5, 0, -2], [0, 1, 0]]),
        ([[0, 0]], [[0], [3]]),
    ]
    for rows, rhss in cases:
        elim = Elimination(rows, p, M)
        want = _one_pass_solve_many(rows, rhss, p, M)
        for _ in range(2):
            assert [elim.solve(rhs) for rhs in rhss] == want, (rows, rhss)
    assert Elimination([], p, M).rank == 0
    assert Elimination([[0, 0], [0, 0]], p, M).rank == 0
    assert Elimination([[3, 0], [0, 1]], p, M).rank == 2


def test_many_rhs_solver_degenerate_inputs():
    p, M = 3, 2
    assert solve_mod_pp_many([], [[], []], p, M) == [[], []]
    assert solve_mod_pp_many([[0, 0], [0, 0]], [[0, 0], [0, 3], [9, 0]], p, M) == [
        [0, 0],
        None,
        [0, 0],
    ]
    assert solve_mod_pp_many([[3]], [[1], [6]], p, M) == [None, [2]]
    assert solve_mod_pp_many([[3]], [], p, M) == []


def test_sparse_solver_unreduced_and_degenerate_inputs():
    p, M = 3, 2
    rows = [[-1, 9, 30], [0, 0, 0], [4, -18, 3]]
    assert solve_mod_pp(rows, [5, 0, -2], p, M) == _dense_solve_mod_pp(rows, [5, 0, -2], p, M)
    assert solve_mod_pp(rows, [0, 1, 0], p, M) is None  # zero row, nonzero rhs
    assert solve_mod_pp([[0, 0]], [0], p, M) == [0, 0]
    assert solve_mod_pp([[0, 0]], [3], p, M) is None
    assert solve_mod_pp([[3]], [1], p, M) is None  # 3 x = 1 has no root mod 9
    assert solve_mod_pp([[3]], [6], p, M) == [2]
    assert solve_mod_pp([], [], p, M) == []


def _span(basis, p, nc):
    """Every F_p-combination of the basis vectors, as a set of tuples."""
    return {
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p for i in range(nc))
        for cs in itertools.product(range(p), repeat=len(basis))
    }


def test_elimination_kernel():
    rng = random.Random(4)
    p = 3
    for _ in range(60):
        nr, nc = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        basis = Elimination(rows, p, 1).kernel()
        # every basis vector is in the kernel
        for vec in basis:
            assert all(
                sum(r * v for r, v in zip(row, vec)) % p == 0 for row in rows
            )
        # the kernel size matches the brute-force count
        brute = _brute_solutions(rows, [0] * nr, p, nc)
        assert p ** len(basis) == len(brute)


@pytest.mark.parametrize("p", [3, 5])
def test_elimination_kernel_spans_the_brute_kernel(p):
    # the pivot rule is not Gauss-Jordan's, so on a general matrix the basis
    # can differ from the reduced echelon one; the span may not
    rng = random.Random(40 + p)
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 4 if p == 3 else 3)
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [
            [rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        elim = Elimination(rows, p, 1)
        basis = elim.kernel()
        assert len(basis) == nc - elim.rank
        assert _span(basis, p, nc) == set(_brute_solutions(rows, [0] * nr, p, nc))


@pytest.mark.parametrize("p", [3, 5])
def test_elimination_solutions_are_the_brute_solution_set(p):
    rng = random.Random(60 + p)
    unsolvable = 0
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 4 if p == 3 else 3)
        rows = [
            [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(nc)] for _ in range(nr)
        ]
        x = [rng.randrange(p) for _ in range(nc)]
        solvable = [sum(c * xi for c, xi in zip(row, x)) for row in rows]
        elim = Elimination(rows, p, 1)
        for rhs in (solvable, [rng.randrange(-p, 2 * p) for _ in range(nr)]):
            brute = _brute_solutions(rows, rhs, p, nc)
            got = elim.solutions(rhs)
            assert len(got) == len(set(got)) == len(brute)
            assert set(got) == set(brute), (rows, rhs)
            unsolvable += not brute
            if brute:
                # the first is the solution solve returns; the cap bounds the count
                assert list(got[0]) == elim.solve(rhs)
                assert elim.solutions(rhs, len(brute)) == got
                assert elim.solutions(rhs, len(brute) - 1) is None
            else:
                assert elim.solutions(rhs, 0) == []
    assert unsolvable


def test_elimination_solutions_run_in_product_order():
    # the particular solution plus c_1 k_1 + ... + c_r k_r, the last
    # coefficient varying fastest
    p = 3
    rows = [[1, 1, 0, 2], [0, 0, 0, 0]]
    elim = Elimination(rows, p, 1)
    part, basis = elim.solve([2, 0]), elim.kernel()
    want = [
        tuple((x + sum(c * k[i] for c, k in zip(cs, basis))) % p for i, x in enumerate(part))
        for cs in itertools.product(range(p), repeat=len(basis))
    ]
    assert elim.solutions([2, 0]) == want
    assert Elimination([], p, 1).solutions([]) == [()]
    assert Elimination([[0, 0]], p, 1).solutions([1]) == []
