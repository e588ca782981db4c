"""The packed-monomial polynomial engine of wittkit.witt against the tuple
oracle of conftest.

The oracle is the engine as it was before monomials were packed: each
monomial an exponent tuple, each product a new tuple.  Every table field
built on packed monomials must equal the oracle's: the carries, which the
table builds in s = x + y and q = xy, must be the symmetric form of the
oracle's carries in x and y, up to the top lengths (3, 5) and (5, 4).  The
programs that the compiled sum, product and Frobenius run, evaluated
symbolically on the oracle's arithmetic, must be the oracle's expanded
polynomials: that ties what runs to the ghost map.  Both verifiers must
name the same first failure on a changed table or a changed program,
including one whose powers outgrow a fixed 8-bit exponent field.
"""

import pytest

from wittkit import witt
from wittkit.rings import IntegerRing
from wittkit.witt import (
    WittTableError,
    WittUniversalTable,
    _ghost_components,
    _Packing,
    _padd,
    _ppow,
    _psubst,
    _verify_bound,
    get_table,
    verify_ghost_symbolic,
)

TABLES = [(3, n) for n in range(1, 5)] + [(p, n) for p in (5, 7) for n in range(1, 4)]


def _programs(table):
    return [table._program("sum"), table._program("prod")]


@pytest.mark.parametrize("p,n", TABLES)
def test_every_table_field_equals_the_oracles(p, n, oracle_table):
    table, want = get_table(p, n), oracle_table(p, n)
    for field in ("frob_polys", "eta_sym_polys"):
        assert getattr(table, field) == want[field], field
    assert verify_ghost_symbolic(table) is None
    assert _verify_bound(table, _programs(table)) == p ** (n - 1)


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
def test_the_carries_at_the_top_lengths_equal_the_oracles(p, n, oracle_carries, symmetric_form):
    # the carries alone, without the oracle's 2n-variable expansion
    table = WittUniversalTable(p, n)
    assert table.eta_sym_polys == [symmetric_form(eta) for eta in oracle_carries(p, n)]


@pytest.mark.parametrize("p,n", TABLES)
def test_the_compiled_programs_evaluate_to_the_oracles_polynomials(
    p, n, oracle_table, run_program
):
    table, want = get_table(p, n), oracle_table(p, n)
    assert run_program(table._program("sum"), 2 * n) == want["sum_polys"]
    assert run_program(table._program("prod"), 2 * n) == want["prod_polys"]
    assert run_program(table._program("frob"), n) == want["frob_polys"]


def test_a_changed_carry_changes_the_evaluated_programs(oracle_table, run_program):
    # eta_1 in x + y and xy is read by the sum's carries and, through the
    # sum of length 2, by the product
    table = WittUniversalTable(3, 3)
    _bump("eta_sym_polys", 1, (3, 0), 1)(table)
    want = oracle_table(3, 3)
    assert run_program(table._program("sum"), 6) != want["sum_polys"]
    assert run_program(table._program("prod"), 6) != want["prod_polys"]


def test_editing_a_sum_block_in_place_changes_no_other_program(oracle_table, run_program):
    # s = x_0 + y_0 made 2 x_0 + y_0 in the first block of one program: a
    # fresh program and a newly compiled sum still add (1, 0) + (1, 0) to
    # (2, -2).  The edit is undone at the end, so that a block shared with
    # other programs would not leak into later tests.
    table = WittUniversalTable(3, 2)
    steps, _ = table._program("sum")
    s = steps[0][0][0]
    assert s == {(1, 0): 1, (0, 1): 1}
    s[1, 0] = 2
    try:
        assert run_program(table._program("sum"), 4) == oracle_table(3, 2)["sum_polys"]
        assert table.compiled("sum", IntegerRing())((1, 0), (1, 0)) == (2, -2)
    finally:
        s[1, 0] = 1


def _bump(field, index, mono, delta):
    def change(table):
        poly = getattr(table, field)[index]
        poly[mono] = poly.get(mono, 0) + delta

    return change


def _change_step(which, k, change):
    """A change of a table whose _program(which) then returns the program
    with step k replaced by change(polys, args), changed in place: a new
    program holds new polynomials, except that its carry blocks hold the
    table's own eta_sym_polys."""

    def apply(table):
        build = table._program

        def program(name):
            steps, outs = build(name)
            if name == which:
                steps = list(steps)
                polys, args = steps[k]
                steps[k] = change(polys, args)
            return steps, outs

        table._program = program

    return apply


def _bump_step(which, k, index, mono, delta):
    def change(polys, args):
        polys[index][mono] = polys[index].get(mono, 0) + delta
        return polys, args

    return _change_step(which, k, change)


def _read_step(which, k, args):
    return _change_step(which, k, lambda polys, _: (polys, args))


# one change per kind: (p, n, change).  The program changes: the sum's last
# step reads b_1 where it should read b_2; the product's Teichmuller scaling
# a_0^3 b_1 reads its arguments the other way round, b_1^3 a_0; the
# product's Frobenius block has 6 x_1 for 5 x_1; and a_0^40 enters P_0 = a_0
# b_0, which the ghost check of P_3 raises to the 27th power, so it widens
# the fields past 8 bits, to hold 40 * 27.  The table changes are caught at
# the first level they enter, before any power of them is taken, except in
# the carries in x + y and xy, where the sum program substitutes into the
# changed monomial: s^300 there forms exponents past any that an 8-bit field
# holds, and the nested carries of a sum of length 4 would substitute it into
# itself twice, for exponents up to 300^3, if the check got that far.  The
# sum program reads eta_1..eta_{n-1}, so a change there fails the sum.
PERTURBATIONS = {
    "sum": (3, 3, _read_step("sum", -1, (18, 4))),
    "prod": (3, 3, _read_step("prod", 1, (4, 0))),
    "prod-frob": (5, 2, _bump_step("prod", 2, 0, (0, 1), 1)),
    "prod-x0^40": (3, 4, _bump_step("prod", 0, 0, (40, 0), 1)),
    "frob": (3, 4, _bump("frob_polys", 1, (1, 2, 0, 0), -1)),
    "eta_sym": (3, 3, _bump("eta_sym_polys", 2, (1, 4), 1)),
    "eta_sym-s^300": (3, 4, _bump("eta_sym_polys", 1, (300, 0), 1)),
}


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_both_verifiers_name_the_same_failure(name, oracle_verify):
    p, n, change = PERTURBATIONS[name]
    table = WittUniversalTable(p, n)
    change(table)
    witness = verify_ghost_symbolic(table)
    assert witness is not None
    assert witness == oracle_verify(table)


def test_the_changed_programs_fail_where_they_are_changed():
    want = {
        "sum": "sum polynomial violates ghost identity at i=2 (p=3, n=3)",
        "prod": "prod polynomial violates ghost identity at i=1 (p=3, n=3)",
        "prod-frob": "prod polynomial violates ghost identity at i=1 (p=5, n=2)",
        "prod-x0^40": "prod polynomial violates ghost identity at i=0 (p=3, n=4)",
    }
    for name, witness in want.items():
        p, n, change = PERTURBATIONS[name]
        table = WittUniversalTable(p, n)
        change(table)
        assert verify_ghost_symbolic(table) == witness


@pytest.mark.parametrize("name,bound", [("prod-x0^40", 40 * 27), ("eta_sym-s^300", 300**3)])
def test_the_width_grows_with_a_changed_table(name, bound):
    p, n, change = PERTURBATIONS[name]
    table = WittUniversalTable(p, n)
    assert _verify_bound(table, _programs(table)) == p ** (n - 1)
    change(table)
    assert _verify_bound(table, _programs(table)) == bound
    assert verify_ghost_symbolic(table) is not None


def test_a_check_evaluates_only_the_steps_its_levels_read(monkeypatch):
    # S_1 reads the carries of x_0 and y_0 but none of the nested carries,
    # so the check fails at level 1 having substituted the changed eta_1
    # once, into x_0 + y_0 and x_0 y_0, and never into itself
    table = WittUniversalTable(3, 4)
    PERTURBATIONS["eta_sym-s^300"][2](table)
    substituted = []
    psubst = witt._psubst

    def recording(poly, subs):
        substituted.append(poly)
        return psubst(poly, subs)

    monkeypatch.setattr(witt, "_psubst", recording)
    assert verify_ghost_symbolic(table) == "sum polynomial violates ghost identity at i=1 (p=3, n=4)"
    assert sum(poly is table.eta_sym_polys[1] for poly in substituted) == 1


# --- the width guard ------------------------------------------------------


def test_packing_round_trips_and_keeps_lex_order():
    pk = _Packing(3, 255)
    assert pk.width == 8
    monos = [(0, 0, 0), (0, 0, 255), (0, 1, 0), (1, 0, 0), (2, 255, 7), (255, 255, 255)]
    packed = [pk.pack(m) for m in monos]
    assert [pk.unpack(m) for m in packed] == monos
    assert packed == sorted(packed)
    # a product of monomials is the sum of their ints, while fields fit
    assert pk.unpack(pk.pack((1, 2, 3)) + pk.pack((4, 5, 6))) == (5, 7, 9)


@pytest.mark.parametrize("mono", [(256, 0, 0), (0, 256, 0), (0, 0, 256), (0, -1, 0), (1, 0)])
def test_packing_an_exponent_that_does_not_fit_raises(mono):
    # (0, 256, 0) would wrap to (1, 0, 0) and (0, -1, 0) to (0, 0, 255) if
    # it were packed
    with pytest.raises(WittTableError):
        _Packing(3, 255).pack(mono)


def test_a_zero_substitute_is_zero():
    # the zero polynomial {} is not the absence of a factor: x^2 and x y at
    # x = 0 vanish, while a constant term stays
    assert _psubst({(2,): 1}, [{}]) == {}
    assert _psubst({(1, 1): 1}, [{}, {1: 1}]) == {}
    assert _psubst({(0,): 5, (2,): 1}, [{}]) == {0: 5}


def test_powers_of_a_substitute_equal_the_direct_ones():
    # s^2 and s^6 are taken from s and s^5, the largest powers below them
    s = {1 << 8: 1, 0: 1}  # x + 1
    poly = {(6,): 1, (1,): 2, (5,): -1, (2,): 3}
    want = {}
    for (e,), c in poly.items():
        want = _padd(want, _ppow(s, e), c)
    assert _psubst(poly, [s]) == want


def test_ghost_components_stop_at_the_last_level(monkeypatch):
    # w_0..w_{k-1} of k polynomials take the p-th powers of levels 1..k-1
    # only: one power of x for [x, y], none for [x]
    calls = []
    ppow = witt._ppow

    def counting(a, e):
        calls.append(e)
        return ppow(a, e)

    monkeypatch.setattr(witt, "_ppow", counting)
    x, y = {1 << 8: 1}, {1: 1}
    assert list(_ghost_components(3, [x])) == [x]
    assert calls == []
    assert list(_ghost_components(3, [x, y])) == [x, {3 << 8: 1, 1: 3}]
    assert calls == [3]


def test_a_negative_exponent_in_a_substituted_polynomial_raises():
    table = WittUniversalTable(3, 2)
    table.eta_sym_polys[1][(-1, 2)] = 1
    with pytest.raises(WittTableError):
        verify_ghost_symbolic(table)
