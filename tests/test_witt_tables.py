"""Universal Witt polynomials: ghost identities and frozen forms.

The independent oracle is the ghost map itself: the programs of the
compiled sum and product, evaluated on polynomials, must satisfy their
defining polynomial identities over Z (verified symbolically with exact
dict arithmetic), and numeric evaluations over Z must commute with the
ghost map.
"""

import random

import pytest

from wittkit._compiler import _MAX_INLINE_DEPTH, _inline_single_uses
from wittkit.rings import IntegerRing
from wittkit.witt import (
    WittTableError,
    WittUniversalTable,
    WittVector,
    _pdiv_exact,
    get_table,
    ghost,
    verify_ghost_symbolic,
    witt_add,
    witt_mul,
    witt_neg,
)


def test_frozen_forms_p3(run_program):
    # the textbook S_0, P_0, S_1 and P_1, as the programs that run compute them
    t1 = get_table(3, 1)
    assert run_program(t1._program("sum"), 2) == [{(1, 0): 1, (0, 1): 1}]  # S_0 = x_0 + y_0
    assert run_program(t1._program("prod"), 2) == [{(1, 1): 1}]  # P_0 = x_0 y_0
    t2 = get_table(3, 2)
    assert run_program(t2._program("sum"), 4)[1] == {
        (0, 1, 0, 0): 1,
        (0, 0, 0, 1): 1,
        (2, 0, 1, 0): -1,
        (1, 0, 2, 0): -1,
    }  # S_1 = x_1 + y_1 - x_0^2 y_0 - x_0 y_0^2
    assert run_program(t2._program("prod"), 4)[1] == {
        (3, 0, 0, 1): 1,
        (0, 1, 3, 0): 1,
        (0, 1, 0, 1): 3,
    }  # P_1 = x_0^p y_1 + x_1 y_0^p + p x_1 y_1


def test_frozen_p1_general_p(run_program):
    for p in (3, 5, 7):
        t = get_table(p, 2)
        assert run_program(t._program("prod"), 4)[1] == {
            (p, 0, 0, 1): 1,
            (0, 1, p, 0): 1,
            (0, 1, 0, 1): p,
        }


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_ghost_identities_symbolic(p, n):
    assert verify_ghost_symbolic(get_table(p, n)) is None


def test_ghost_oracle_sum_over_integers():
    # derived value: (1,0) + (1,0) = (2,-2) at p=3, because ghosts add to (2,2)
    Z = IntegerRing()
    u = WittVector(Z, 3, (Z.from_int(1), Z.from_int(0)))
    s = witt_add(u, u)
    assert [c.data for c in s.coords] == [2, -2]
    assert [c.data for c in ghost(s)] == [2, 2]


def test_ghost_homomorphism_numeric():
    Z = IntegerRing()
    rng = random.Random(0)
    for p, n in [(3, 3), (5, 2)]:
        for _ in range(50):
            u = WittVector(Z, p, tuple(Z.from_int(rng.randint(-5, 5)) for _ in range(n)))
            v = WittVector(Z, p, tuple(Z.from_int(rng.randint(-5, 5)) for _ in range(n)))
            gu, gv = ghost(u), ghost(v)
            assert [c.data for c in ghost(witt_add(u, v))] == [
                a.data + b.data for a, b in zip(gu, gv)
            ]
            assert [c.data for c in ghost(witt_mul(u, v))] == [
                a.data * b.data for a, b in zip(gu, gv)
            ]
            # negation is coordinatewise for odd p: ghost flips sign
            assert [c.data for c in ghost(witt_neg(u))] == [-a.data for a in gu]


def test_exact_division_fails_loudly():
    with pytest.raises(WittTableError):
        _pdiv_exact({(1, 0): 1}, 3)


def test_practical_length_cap():
    with pytest.raises(ValueError):
        get_table(3, 6)


def test_corrupted_table_detected():
    # a carry that the compiled sum reads, eta_1 = -s q in s = x + y and
    # q = xy, with q added: the negative control corrupted-witt-table
    table = WittUniversalTable(3, 2)
    table.eta_sym_polys[1][(0, 1)] = 1
    assert verify_ghost_symbolic(table) == "sum polynomial violates ghost identity at i=1 (p=3, n=2)"


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_eta_polys_are_the_sum_of_two_teichmuller_vectors(p, n, oracle_table, run_program):
    # eta_k(x + y, xy) is coordinate k of [x] + [y]: the sum polynomial S_k
    # with every coordinate but x_0 and y_0 set to zero.  The program puts
    # s = x + y and q = xy into the carries.
    table = WittUniversalTable(p, n)
    program = [(({(1, 0): 1, (0, 1): 1}, {(1, 1): 1}), (0, 1)), (table.eta_sym_polys, (2, 3))]
    carries = run_program((program, range(4, 4 + n)), 2)
    for k in range(n):
        restricted = {
            (mono[0], mono[n]): c
            for mono, c in oracle_table(p, n)["sum_polys"][k].items()
            if not any(mono[i] for i in range(2 * n) if i not in (0, n))
        }
        assert carries[k] == restricted
        assert all(sum(mono) == p**k for mono in carries[k])


def test_corrupted_eta_polynomial_is_named():
    # the compiled sum reads eta_1..eta_{n-1}, so a change there fails the
    # sum program
    table = WittUniversalTable(3, 3)
    table.eta_sym_polys[2][(1, 4)] += 1
    assert verify_ghost_symbolic(table) == "sum polynomial violates ghost identity at i=2 (p=3, n=3)"


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (7, 3)])
def test_eta_polys_are_polynomials_in_the_sum_and_the_product(p, n, oracle_carries):
    # eta_k(x, y) = H_k(x + y, xy), H_k of weighted degree p^k, with at
    # most half the monomials of eta_k in x and y
    table = WittUniversalTable(p, n)
    assert table.eta_sym_polys[0] == {(1, 0): 1}
    for k in range(1, n):
        sym = table.eta_sym_polys[k]
        assert all(a + 2 * b == p**k for a, b in sym)
        assert 2 * len(sym) <= len(oracle_carries(p, n)[k]) + 1
    assert verify_ghost_symbolic(table) is None


def test_inlining_keeps_long_chains_compilable():
    # each temporary is read once, by the next: substituted all the way, the
    # chain would nest 2,000 calls deep, past what CPython compiles
    body = ["    t0 = f(a0)"] + [f"    t{k} = f(t{k - 1})" for k in range(1, 2000)]
    body, outs = _inline_single_uses(body, ["t1999"])
    assert 2000 // (_MAX_INLINE_DEPTH + 1) <= len(body) < 2000
    ns = {"f": lambda x: x + 1}
    exec("\n".join(["def g(a0):", *body, f"    return {outs[0]}"]), ns)  # noqa: S102
    assert ns["g"](5) == 2005
