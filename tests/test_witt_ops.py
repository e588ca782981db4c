"""Witt vector operator laws over the quotient rings."""

import random

import pytest

from wittkit.rings import CharPQuotient, CyclotomicTruncation, IntegerRing, random_element
from wittkit.witt import (
    WittVector,
    frobenius,
    frobenius_power,
    get_table,
    ghost,
    parse_witt,
    random_witt,
    raw_witt_ops,
    restriction,
    serialize_witt,
    teichmuller,
    teichmuller_divide,
    verschiebung,
    witt_add,
    witt_divide_exact,
    witt_is_unit,
    witt_mul,
    witt_neg,
    witt_one,
    witt_scalar_mul,
    witt_zero,
    z_element,
)

RNG = random.Random(23)
RINGS = [CyclotomicTruncation(3, 2, 2), CharPQuotient(3, 0, 3), CyclotomicTruncation(5, 1, 1)]


def test_ghost_of_teichmuller_and_v():
    r = CyclotomicTruncation(3, 2, 2)
    a = random_element(r, RNG)
    t = teichmuller(a, 3, 3)
    assert list(ghost(t)) == [a, a**3, a**9]
    w = random_witt(r, 3, 2, RNG)
    gv = ghost(verschiebung(w))
    gw = ghost(w)
    assert gv[0].is_zero()
    assert all(gv[i + 1] == 3 * gw[i] for i in range(2))
    u = random_witt(r, 3, 2, RNG)
    assert ghost(u)[1] == u.coords[0] ** 3 + 3 * u.coords[1]


@pytest.mark.parametrize("ring", RINGS)
def test_operator_identities_sampled(ring):
    p = ring.p
    rng = random.Random(ring.descriptor())
    for _ in range(60):
        u = random_witt(ring, p, 2, rng)
        v = random_witt(ring, p, 2, rng)
        y = random_witt(ring, p, 1, rng)
        w3 = random_witt(ring, p, 3, rng)
        assert witt_add(u, witt_zero(ring, p, 2)) == u
        a, b = u.coords[0], v.coords[0]
        assert witt_mul(teichmuller(a, p, 2), teichmuller(b, p, 2)) == teichmuller(
            a * b, p, 2
        )
        assert frobenius(teichmuller(a, p, 3)) == teichmuller(a**p, p, 2)
        assert frobenius(verschiebung(u)) == witt_scalar_mul(p, u)
        assert witt_mul(u, verschiebung(y)) == verschiebung(
            witt_mul(frobenius(u), y)
        )
        assert restriction(frobenius(w3)) == frobenius(restriction(w3))
        # V additive, not multiplicative; V(x) V(y) = p V(xy)
        assert verschiebung(witt_add(u, v)) == witt_add(
            verschiebung(u), verschiebung(v)
        )
        assert witt_mul(verschiebung(u), verschiebung(v)) == witt_scalar_mul(
            p, verschiebung(witt_mul(u, v))
        )
        # R is a ring map
        assert restriction(witt_mul(u, v)) == witt_mul(restriction(u), restriction(v))
        assert restriction(witt_add(u, v)) == witt_add(restriction(u), restriction(v))
        # F is a ring map
        assert frobenius(witt_mul(u, v)) == witt_mul(frobenius(u), frobenius(v))
        assert frobenius(witt_add(u, v)) == witt_add(frobenius(u), frobenius(v))


def test_ghost_compatibility_exhaustive_small_ring():
    ring = CyclotomicTruncation(3, 1, 1)
    raw = raw_witt_ops(ring, 3, 2)
    payloads = [raw.wrap(w) for w in raw.enumerate_payloads()]
    for u in payloads[::3]:
        gu = ghost(u)
        for v in payloads[::5]:
            gv = ghost(v)
            gs = ghost(witt_add(u, v))
            gp = ghost(witt_mul(u, v))
            assert all(a == b + c for a, b, c in zip(gs, gu, gv))
            assert all(a == b * c for a, b, c in zip(gp, gu, gv))


def test_kernel_of_restriction_is_v_exhaustive():
    ring = CyclotomicTruncation(3, 1, 1)
    raw = raw_witt_ops(ring, 3, 2)
    zero = ring.zero().data
    kernel = [w for w in raw.enumerate_payloads() if w[:-1] == (zero,)]
    image = {(zero,) + (a.data,) for a in ring.enumerate_elements()}
    assert set(kernel) == image


def test_units_lemma_exhaustive():
    ring = CyclotomicTruncation(3, 1, 1)
    raw = raw_witt_ops(ring, 3, 2)
    for payload in raw.enumerate_payloads():
        w = raw.wrap(payload)
        ok, inv = witt_is_unit(w)
        assert ok == ring.is_unit(w.coords[0])[0]
        if ok:
            assert witt_mul(w, inv) == witt_one(ring, 3, 2)


def test_z_element_facts():
    r = CyclotomicTruncation(3, 2, 2)
    z1 = z_element(r, 1)
    assert z1.is_zero()  # 1 + zeta_p + zeta_p^2 = 0 at length one
    z2 = z_element(r, 2)
    assert frobenius(z2).is_zero()
    one = witt_one(r, 3, 2)
    lhs = witt_mul(witt_add(teichmuller(r.zeta(2), 3, 2), witt_neg(one)), z2)
    rhs = witt_add(teichmuller(r.zeta(1), 3, 2), witt_neg(one))
    assert lhs == rhs  # z_{n+1} = ([zeta_{p^n}]-1)/([zeta_{p^{n+1}}]-1)
    r3 = CyclotomicTruncation(3, 3, 1)
    assert frobenius_power(z_element(r3, 3), 2).is_zero()
    with pytest.raises(ValueError):
        z_element(CyclotomicTruncation(3, 1, 1), 2)


def test_teichmuller_divide():
    r = CyclotomicTruncation(3, 1, 3)
    x = witt_one(r, 3, 1)
    a = r.zeta(1) - r.one()
    got = teichmuller_divide(x, a, 3)
    assert got is not None
    N, q = got
    assert N == 1
    assert witt_mul(teichmuller(a, 3, 1), q) == witt_scalar_mul(3, x)
    # the expected witness from the norm identity works too
    s = r.zeta(1) + 2 * r.zeta(1) ** 2
    assert (a * s) == r.from_int(3)
    # a = 1: (0, x)
    assert teichmuller_divide(x, r.one(), 2) == (0, x)
    # x = [a]: q = 1
    xa = teichmuller(a, 3, 1)
    N, q = teichmuller_divide(xa, a, 2)
    assert N == 0 and witt_mul(teichmuller(a, 3, 1), q) == xa


def test_witt_divide_exact():
    r = CyclotomicTruncation(3, 2, 1)
    rng = random.Random(31)
    one = witt_one(r, 3, 2)
    mu = witt_add(teichmuller(r.zeta(1), 3, 2), witt_neg(one))
    for _ in range(5):
        w = random_witt(r, 3, 2, rng)
        x = witt_mul(mu, w)
        q = witt_divide_exact(x, mu)
        assert q is not None and witt_mul(mu, q) == x
    assert witt_divide_exact(one, mu) is None


def test_serialize_roundtrip():
    from wittkit.witt import witt_from_json, witt_to_json

    r = CyclotomicTruncation(3, 2, 2)
    w = random_witt(r, 3, 2, RNG)
    assert parse_witt(serialize_witt(w), r) == w
    assert serialize_witt(w).startswith("W[p=3,n=2;")
    assert witt_from_json(witt_to_json(w), r) == w


def test_teichmuller_divide_budget_exhaustion():
    r = CyclotomicTruncation(3, 1, 3)
    x = witt_one(r, 3, 1)
    assert teichmuller_divide(x, r.zero(), 2) is None  # p^N x != 0 for N < M


def test_product_ring_units():
    from wittkit.rings import CharPQuotient, ProductRing

    prod = ProductRing([CharPQuotient(3, 0, 2), CharPQuotient(3, 0, 2)])
    t = prod.factors[0].t_element()
    u = prod.from_components([prod.factors[0].one() + t, prod.factors[1].one()])
    ok, inv = prod.is_unit(u)
    assert ok and u * inv == prod.one()
    v = prod.from_components([t, prod.factors[1].one()])
    assert prod.is_unit(v) == (False, None)


def test_shape_mismatch():
    r = CyclotomicTruncation(3, 2, 2)
    u = random_witt(r, 3, 2, RNG)
    v = random_witt(r, 3, 3, RNG)
    with pytest.raises(ValueError):
        witt_add(u, v)
    with pytest.raises(ValueError):
        restriction(witt_one(r, 3, 1))
    with pytest.raises(ValueError):
        frobenius(witt_one(r, 3, 1))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_integer_witt_ops_match_the_operator_form(p, n):
    # W_n(Z) runs on plain ints; the operator form evaluates the same
    # polynomials on RingElements
    Z = IntegerRing()
    assert raw_witt_ops(Z, p, n) is not None
    table = get_table(p, n)
    rng = random.Random(f"witt-z/{p}/{n}")

    def coord():
        big = 2**64 + rng.randrange(2**70)
        return rng.choice([rng.randint(-9, 9), big, -big])

    def vector():
        return WittVector(Z, p, [Z.from_int(coord()) for _ in range(n)])

    for _ in range(12 if (p, n) in ((3, 4), (5, 3)) else 30):
        u, v = vector(), vector()
        args = u.coords + v.coords
        zero = Z.zero()
        s, m = witt_add(u, v), witt_mul(u, v)
        assert s.coords == tuple(table.compiled("sum", i)(*args, zero) for i in range(n))
        assert m.coords == tuple(table.compiled("prod", i)(*args, zero) for i in range(n))
        gu, gv = ghost(u), ghost(v)
        assert ghost(s) == tuple(a + b for a, b in zip(gu, gv))
        assert ghost(m) == tuple(a * b for a, b in zip(gu, gv))
        assert ghost(witt_neg(u)) == tuple(-a for a in gu)
        if n >= 2:
            f = frobenius(u)
            assert f.coords == tuple(table.compiled("frob", i)(*u.coords, zero) for i in range(n - 1))
            assert ghost(f) == gu[1:]
