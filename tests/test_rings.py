"""Base rings: canonical form, axioms, units, exact division, enumeration."""

import itertools
import random

import pytest

from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    PrimeContext,
    random_element,
    ring_from_descriptor,
)

RINGS_SMALL = [
    CyclotomicTruncation(3, 1, 1),  # 9 elements
    CharPQuotient(3, 0, 2),  # 9 elements
]
RINGS_MEDIUM = [
    CyclotomicTruncation(3, 1, 2),  # 81 elements
    CharPQuotient(3, 1, 1),  # 27 elements (s^3, t = s^3 -> t = 0 here)
]


def test_prime_context_rejects_bad_primes():
    for bad in (2, 4, 9, 1, -3):
        with pytest.raises(ValueError):
            PrimeContext(bad)
    assert PrimeContext(3).p == 3
    with pytest.raises(ValueError):
        CyclotomicTruncation(2, 1, 1)
    with pytest.raises(ValueError):
        CyclotomicTruncation(3, 0, 1)
    with pytest.raises(ValueError):
        CharPQuotient(2, 0, 1)


def test_cardinalities_and_minimal_polys():
    assert CyclotomicTruncation(3, 1, 1).cardinality() == 9
    assert CyclotomicTruncation(3, 1, 1).minpoly == [1, 1, 1]
    r = CyclotomicTruncation(3, 2, 2)
    assert r.cardinality() == 9**6
    assert r.minpoly == [1, 0, 0, 1, 0, 0, 1]
    assert CyclotomicTruncation(5, 1, 1).cardinality() == 5**4


@pytest.mark.parametrize("ring", RINGS_SMALL)
def test_ring_axioms_exhaustive_triples(ring):
    elems = list(ring.enumerate_elements())
    assert len(elems) == ring.cardinality()
    one = ring.one()
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a in elems:
        assert a + (-a) == ring.zero()
        assert a * one == a


@pytest.mark.parametrize("ring", RINGS_MEDIUM)
def test_ring_axioms_sampled_triples(ring):
    rng = random.Random(17)
    elems = list(ring.enumerate_elements())
    for a, b in itertools.product(elems[:20], elems[:20]):
        assert a + b == b + a and a * b == b * a
    for _ in range(300):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zeta_identities():
    for p, N, M in [(3, 1, 1), (3, 2, 2), (5, 1, 1), (3, 3, 1)]:
        r = CyclotomicTruncation(p, N, M)
        zero, one = r.zero(), r.one()
        total = zero
        for i in range(p):
            total = total + r.zeta(1) ** i
        assert total == zero  # primitivity: 1 + zeta_p + ... + zeta_p^{p-1} = 0
        for n in range(1, N + 1):
            assert r.zeta(n) ** (p**n) == one
        for n in range(1, N):
            assert r.zeta(n + 1) ** p == r.zeta(n)


def test_product_identity_at_p():
    # (zeta_p - 1) * sum_m m zeta_p^m = p, the norm identity behind alpha
    for p, M in [(3, 2), (5, 1), (5, 2)]:
        r = CyclotomicTruncation(p, 1, M)
        z = r.zeta(1)
        s = r.zero()
        for m in range(1, p):
            s = s + m * z**m
        assert (z - r.one()) * s == r.from_int(p)


def test_charp_frobenius():
    f = CharPQuotient(3, 0, 9)
    t = f.t_element()
    assert (f.one() + t) ** 3 == f.one() + t**3


def test_is_unit_with_exhaustive_oracle():
    r = CyclotomicTruncation(3, 1, 2)  # 81 elements
    z = r.zeta(1)
    ok, w = r.is_unit(z)
    assert ok and z * w == r.one() and w == z**2
    ok, w = r.is_unit(r.one())
    assert ok and w == r.one()
    # oracle: exhaustive inverse search over all 81 elements
    target = z - r.one()
    found = [b for b in r.enumerate_elements() if target * b == r.one()]
    assert found == []
    assert r.is_unit(target) == (False, None)
    # all unit verdicts agree with the exhaustive oracle
    for a in r.enumerate_elements():
        has_inv = any(a * b == r.one() for b in r.enumerate_elements())
        assert r.is_unit(a)[0] == has_inv


def test_divide_exact():
    r = CyclotomicTruncation(3, 1, 2)
    z = r.zeta(1)
    c = r.divide_exact(r.from_int(3), z - r.one())
    assert c is not None and (z - r.one()) * c == r.from_int(3)
    assert IntegerRing().divide_exact(IntegerRing().one(), IntegerRing().zero()) is None
    f = CharPQuotient(3, 0, 9)
    t = f.t_element()
    c = f.divide_exact(t * t, t)
    assert c is not None and t * c == t * t
    # witnesses in non-domains: any witness is fine, the contract is b*c = a
    assert f.divide_exact(f.one(), f.zero()) is None


def test_enumeration_counts():
    assert len(list(CharPQuotient(3, 0, 2).enumerate_elements())) == 9
    assert len(list(CyclotomicTruncation(3, 1, 1).enumerate_elements())) == 9
    with pytest.raises(ValueError):
        list(IntegerRing().enumerate_elements())


def test_format_parse_roundtrip():
    rng = random.Random(3)
    for ring in [
        CyclotomicTruncation(3, 2, 2),
        CharPQuotient(3, 1, 2),
        IntegerRing(),
    ]:
        for _ in range(20):
            a = random_element(ring, rng)
            assert ring.parse_element(ring.format_element(a)) == a


def test_descriptor_roundtrip():
    for desc in ["Z", "cyc(3,2,2)", "charp(3,1,2)"]:
        assert ring_from_descriptor(desc).descriptor() == desc
    # products of rings are not modeled
    with pytest.raises(ValueError, match="bad ring descriptor"):
        ring_from_descriptor("prod(cyc(3,1,1),charp(3,0,2))")


def test_owner_mismatch_raises():
    a = CyclotomicTruncation(3, 1, 1).one()
    b = CyclotomicTruncation(3, 2, 1).one()
    with pytest.raises(ValueError):
        a + b


def test_canonical_form_is_reduced():
    r = CyclotomicTruncation(3, 2, 2)
    for _ in range(10):
        a = random_element(r, random.Random(5))
        assert all(0 <= c < r.m for c in a.data)
        assert len(a.data) == r.d
