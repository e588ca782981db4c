"""The packed-monomial polynomial engine of wittkit.witt against an oracle
on exponent tuples.

The oracle below is the engine as it was before monomials were packed: each
monomial an exponent tuple, each product a new tuple.  Every table field
built on packed monomials must equal the oracle's, and both verifiers must
name the same first failure on a changed table, including one whose powers
outgrow a fixed 8-bit exponent field.  The programs that the compiled sum,
product and Frobenius run, evaluated symbolically on the oracle's
arithmetic, must be the oracle's polynomials: that ties what runs to the
ghost map.
"""

import functools

import pytest

from wittkit.rings import ring_from_descriptor
from wittkit.witt import (
    WittTableError,
    WittUniversalTable,
    _Packing,
    _symmetric_form,
    _verify_bound,
    get_table,
    raw_witt_ops,
    verify_ghost_symbolic,
)

# --- the oracle: sparse polynomials keyed by exponent tuples ------------------


def _padd(a, b):
    out = dict(a)
    for mono, c in b.items():
        nc = out.get(mono, 0) + c
        if nc:
            out[mono] = nc
        else:
            out.pop(mono, None)
    return out


def _pscale(a, k):
    if k == 0:
        return {}
    return {mono: c * k for mono, c in a.items()}


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            nc = out.get(mono, 0) + ca * cb
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
    return out


def _ppow(a, e, nvars):
    result = {(0,) * nvars: 1}
    base = a
    while e:
        if e & 1:
            result = _pmul(result, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return result


def _pdiv_exact(a, k):
    assert all(c % k == 0 for c in a.values())
    return {mono: c // k for mono, c in a.items()}


def _var(i, nvars):
    mono = [0] * nvars
    mono[i] = 1
    return {tuple(mono): 1}


def _psubst(poly, subs, nvars_out):
    out = {}
    for mono, c in poly.items():
        term = {(0,) * nvars_out: c}
        for vi, e in enumerate(mono):
            if e:
                term = _pmul(term, _ppow(subs[vi], e, nvars_out))
        out = _padd(out, term)
    return out


def _ghost_poly(p, i, var_indices, nvars):
    out = {}
    for j in range(i + 1):
        term = _pscale(_ppow(_var(var_indices[j], nvars), p ** (i - j), nvars), p**j)
        out = _padd(out, term)
    return out


def _ghost_of(polys, p, i, nvars):
    acc = {}
    for j, poly in enumerate(polys):
        acc = _padd(acc, _pscale(_ppow(poly, p ** (i - j), nvars), p**j))
    return acc


def _ghost_recursion(p, count, target, nvars):
    polys = []
    for i in range(count):
        acc = _ghost_of(polys, p, i, nvars)
        polys.append(_pdiv_exact(_padd(target(i), _pscale(acc, -1)), p**i))
    return polys


def _teichmuller_ghost(p, i):
    return _padd(_ppow(_var(0, 2), p**i, 2), _ppow(_var(1, 2), p**i, 2))


@functools.lru_cache(maxsize=None)
def oracle_table(p, n):
    """Every field of WittUniversalTable(p, n), built on exponent tuples.
    eta_sym is the table's own _symmetric_form of the oracle's eta, which
    runs on exponent tuples in both."""
    nv2 = 2 * n
    xs, ys = list(range(n)), list(range(n, nv2))
    eta = _ghost_recursion(p, n, functools.partial(_teichmuller_ghost, p), 2)
    return {
        "sum_polys": _ghost_recursion(
            p, n, lambda i: _padd(_ghost_poly(p, i, xs, nv2), _ghost_poly(p, i, ys, nv2)), nv2
        ),
        "prod_polys": _ghost_recursion(
            p, n, lambda i: _pmul(_ghost_poly(p, i, xs, nv2), _ghost_poly(p, i, ys, nv2)), nv2
        ),
        "frob_polys": _ghost_recursion(p, n - 1, lambda i: _ghost_poly(p, i + 1, xs, n), n),
        "eta_polys": eta,
        "eta_sym_polys": [_symmetric_form(poly) for poly in eta],
        "neg_polys": [_pscale(_var(i, n), -1) for i in range(n)],
    }


def oracle_verify(table):
    """verify_ghost_symbolic on exponent tuples."""
    p, n = table.p, table.n
    nv2 = 2 * n
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    for i in range(n):
        wx = _ghost_poly(p, i, xs, nv2)
        wy = _ghost_poly(p, i, ys, nv2)
        for which, polys, target in (
            ("sum", table.sum_polys, _padd(wx, wy)),
            ("prod", table.prod_polys, _pmul(wx, wy)),
        ):
            if _padd(_ghost_of(polys[: i + 1], p, i, nv2), _pscale(target, -1)):
                return f"{which} polynomial violates ghost identity at i={i} (p={p}, n={n})"
    for i in range(n - 1):
        target = _ghost_poly(p, i + 1, xs, n)
        if _padd(_ghost_of(table.frob_polys[: i + 1], p, i, n), _pscale(target, -1)):
            return f"frob polynomial violates ghost identity at i={i} (p={p}, n={n})"
    subs = [_var(i, n) for i in range(n)] + list(table.neg_polys)
    for i in range(n):
        if _psubst(table.sum_polys[i], subs, n):
            return f"negation polynomial fails S_{i}(x, -x) = 0 (p={p}, n={n})"
    sq = [_padd(_var(0, 2), _var(1, 2)), {(1, 1): 1}]
    for i in range(n):
        target = _teichmuller_ghost(p, i)
        if _padd(_ghost_of(table.eta_polys[: i + 1], p, i, 2), _pscale(target, -1)):
            return f"eta polynomial violates ghost identity at i={i} (p={p}, n={n})"
        if _padd(_psubst(table.eta_sym_polys[i], sq, 2), _pscale(table.eta_polys[i], -1)):
            return f"eta polynomial in x + y, xy differs from eta at i={i} (p={p}, n={n})"
    return None


# --- the packed engine against the oracle -----------------------------------

TABLES = [(3, n) for n in range(1, 5)] + [(p, n) for p in (5, 7) for n in range(1, 4)]


@pytest.mark.parametrize("p,n", TABLES)
def test_every_table_field_equals_the_oracles(p, n):
    table = get_table(p, n)
    for field, want in oracle_table(p, n).items():
        assert getattr(table, field) == want, field
    assert verify_ghost_symbolic(table) is None
    assert _verify_bound(table) == p ** (n - 1)


def _run_program(program, nvars):
    """The outputs of a program of witt._compile_polys as polynomials in
    its nvars inputs: each step substitutes the values it reads into its
    polynomials, on exponent tuples."""
    steps, outs = program
    values = [_var(i, nvars) for i in range(nvars)]
    for polys, args in steps:
        subs = [values[a] for a in args]
        values += [_psubst(poly, subs, nvars) for poly in polys]
    return [values[v] for v in outs]


@pytest.mark.parametrize("p,n", TABLES)
def test_the_compiled_programs_evaluate_to_the_oracles_polynomials(p, n):
    table, want = get_table(p, n), oracle_table(p, n)
    assert _run_program(table._program("sum"), 2 * n) == want["sum_polys"]
    assert _run_program(table._program("prod"), 2 * n) == want["prod_polys"]
    assert _run_program(table._program("frob"), n) == want["frob_polys"]


def test_a_changed_carry_changes_the_evaluated_programs():
    # eta_1 in x + y and xy is read by the sum's carries and, through the
    # sum of length 2, by the product
    table = WittUniversalTable(3, 3)
    _bump("eta_sym_polys", 1, (3, 0), 1)(table)
    want = oracle_table(3, 3)
    assert _run_program(table._program("sum"), 6) != want["sum_polys"]
    assert _run_program(table._program("prod"), 6) != want["prod_polys"]


def test_compiling_reads_no_expanded_polynomial():
    raw_witt_ops(ring_from_descriptor("cyc(3,1,1)"), 3, 5)
    table = get_table(3, 5)
    assert "prod_polys" not in vars(table)
    assert "sum_polys" not in vars(table)


def _bump(field, index, mono, delta):
    def change(table):
        poly = getattr(table, field)[index]
        poly[mono] = poly.get(mono, 0) + delta

    return change


# one change per field: (p, n, change).  Each is caught at the first level
# it enters, before any power of it is taken, except in the carries in
# x + y and xy, where the check substitutes into the changed monomial: s^300
# there forms exponents past any that an 8-bit field holds.  x_0^40 in S_1 could
# be raised to the 9th power by the ghost check of S_3, so it widens the
# fields past 8 bits too, to hold 40 * 9.
PERTURBATIONS = {
    "sum": (3, 3, _bump("sum_polys", 2, (0, 0, 1, 0, 0, 0), 3)),
    "sum-x0^40": (3, 4, _bump("sum_polys", 1, (40, 0, 0, 0, 0, 0, 0, 0), 1)),
    "prod": (5, 2, _bump("prod_polys", 1, (5, 0, 0, 1), 1)),
    "frob": (3, 4, _bump("frob_polys", 1, (1, 2, 0, 0), -1)),
    "eta": (7, 3, _bump("eta_polys", 1, (3, 4), 7)),
    "eta_sym": (3, 3, _bump("eta_sym_polys", 2, (1, 4), 1)),
    "eta_sym-s^300": (3, 4, _bump("eta_sym_polys", 1, (300, 0), 1)),
    "neg": (3, 3, _bump("neg_polys", 1, (2, 0, 0), 1)),
}


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_both_verifiers_name_the_same_failure(name):
    p, n, change = PERTURBATIONS[name]
    table = WittUniversalTable(p, n)
    table.sum_polys  # noqa: B018 - built before the change, as negative-controls does
    change(table)
    witness = verify_ghost_symbolic(table)
    assert witness is not None
    assert witness == oracle_verify(table)


@pytest.mark.parametrize("name,bound", [("sum-x0^40", 40 * 9), ("eta_sym-s^300", 300)])
def test_the_width_grows_with_a_changed_table(name, bound):
    p, n, change = PERTURBATIONS[name]
    table = WittUniversalTable(p, n)
    assert _verify_bound(table) == 27
    change(table)
    assert _verify_bound(table) == bound
    assert verify_ghost_symbolic(table) is not None


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


def test_a_negative_exponent_in_a_substituted_polynomial_raises():
    table = WittUniversalTable(3, 2)
    table.eta_sym_polys[1][(-1, 2)] = 1
    with pytest.raises(WittTableError):
        verify_ghost_symbolic(table)
