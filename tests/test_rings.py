"""Base rings: canonical form, axioms, units, exact division, enumeration."""

import itertools
import random

import numpy as np
import pytest

from wittkit.modlin import solve_mod_pp
from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    RingElement,
    random_coefficients,
    random_element,
    random_payload,
    require_odd_prime,
    ring_from_descriptor,
)
from wittkit.witt import WittVector, random_witt

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
            require_odd_prime(bad)
    assert require_odd_prime(3) == 3
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


@pytest.mark.parametrize("desc", ["cyc(3,2,1)", "cyc(5,2,1)", "cyc(3,3,1)", "charp(3,0,9)"])
def test_frobenius_rows_are_the_p_th_powers_of_the_power_basis(desc):
    # column j is (x^j)^p; over F_p the Frobenius is additive, so the matrix
    # sends any u to u^p
    ring = ring_from_descriptor(desc)
    p, d = ring.p, ring.d
    rows = ring._frobenius_rows()
    assert len(rows) == d and all(len(row) == d for row in rows)
    for j in range(d):
        xj = ring.from_coeffs([int(i == j) for i in range(d)])
        assert [row[j] for row in rows] == list(ring._pow(xj.data, p)) == list((xj**p).data)
    rng = random.Random(d)
    for _ in range(10):
        u = random_element(ring, rng)
        image = [sum(r * c for r, c in zip(row, u.data)) % p for row in rows]
        assert image == list((u**p).data)


@pytest.mark.parametrize(
    "desc",
    [
        "cyc(3,1,2)",
        "cyc(3,2,1)",
        "cyc(3,1,3)",
        "cyc(5,1,1)",
        "charp(3,0,6)",
        "charp(3,1,2)",
        "charp(5,0,4)",
    ],
)
def test_is_unit_with_exhaustive_oracle(desc):
    # oracle: a is a unit iff a*x = 1 is solvable, as a linear system over
    # Z/p^M in the power basis
    r = ring_from_descriptor(desc)
    one = r.one()
    M = r.M if isinstance(r, CyclotomicTruncation) else 1
    units = 0
    for a in r.enumerate_elements():
        solvable = solve_mod_pp(r._mul_matrix(a), list(one.data), r.p, M) is not None
        ok, b = r.is_unit(a)
        assert ok == solvable, a
        assert (a * b == one) if ok else b is None
        units += ok
    # the units are the elements off the maximal ideal, of index p
    assert units == r.cardinality() // r.p * (r.p - 1)


def _newton_inverse(a, steps):
    """b <- b(2 - ab) from b = 1, for an a with residue 1."""
    b = a.ring.one()
    for _ in range(steps):
        b = b * (2 - a * b)
    return b


@pytest.mark.parametrize(
    "desc", ["cyc(5,3,2)", "cyc(3,3,3)", "cyc(7,2,2)", "cyc(3,1,40)", "charp(3,0,27)"]
)
def test_is_unit_runs_every_newton_step(desc):
    # zeta_{p^N} - 1 and s generate the maximal ideal, so zeta_{p^N} and 1 + s
    # are the slowest to converge: their error 1 - ab is a generator, and one
    # step fewer than (d*M - 1).bit_length() leaves it nonzero
    r = ring_from_descriptor(desc)
    if isinstance(r, CyclotomicTruncation):
        a, M = r.zeta(r.N), r.M
        assert r.is_unit(a) == (True, a ** (r.p**r.N - 1))
    else:
        a, M = r.one() + r.t_element(), 1
        ok, b = r.is_unit(a)
        assert ok and a * b == r.one()
    steps = (r.d * M - 1).bit_length()
    assert a * _newton_inverse(a, steps) == r.one()
    assert a * _newton_inverse(a, steps - 1) != r.one()


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


@pytest.mark.parametrize("desc", ["cyc(3,1,2)", "charp(3,1,1)"])
def test_divide_exact_with_exhaustive_oracle(desc):
    # a witness exists iff a lies in b * R, for every pair (a, b)
    r = ring_from_descriptor(desc)
    elements = list(r.enumerate_elements())
    for b in elements:
        multiples = {b * c for c in elements}
        for a in elements:
            c = r.divide_exact(a, b)
            assert (c is not None) == (a in multiples), (a, b)
            assert c is None or b * c == a


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


class _Shape:
    """A stand-in with the two attributes random_payload reads (and m, which
    random_coefficients reads)."""

    def __init__(self, m, d):
        self.m, self.d = m, d


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27])
def test_random_payload_draws_as_randrange(m):
    # a change in random.randrange would move every sampled report; this
    # fails first
    for seed in range(6):
        rng, want_rng = random.Random(seed), random.Random(seed)
        for d in (1, 2, 6, 20):
            got = random_payload(_Shape(m, d), rng)
            assert got == tuple(want_rng.randrange(m) for _ in range(d))
        assert rng.getstate() == want_rng.getstate()


def _coefficient_loop(m, rng, count):
    """count coefficients as random_payload draws them, one getrandbits call
    per drawn word: the oracle of the bulk draw."""
    k, out = m.bit_length(), []
    for _ in range(count):
        r = rng.getrandbits(k)
        while r >= m:
            r = rng.getrandbits(k)
        out.append(r)
    return out


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27, 343])
def test_random_coefficients_draw_the_payloads_of_random_payload(m):
    for d in (1, 2, 3, 6, 20, 100):
        for count in (0, 1, 255, 256, 257, 1000):
            seed = f"{m}/{d}/{count}"
            rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_coefficients(_Shape(m, d), rng, count * d)
            want = [c for _ in range(count) for c in random_payload(_Shape(m, d), want_rng)]
            assert got.dtype == np.int64 and got.tolist() == want, (d, count)
            assert rng.getstate() == want_rng.getstate(), (d, count)


@pytest.mark.parametrize("m", [3, 25, 343, 2**31 + 1, 2**32 - 1, 2**32, 7**12, 3**40, 2**64 + 1])
def test_random_coefficients_draw_as_the_per_coefficient_loop(m):
    # from one to three words per coefficient; counts that are no multiple
    # of a payload's degree; values as Python ints once m exceeds int64
    for count in (0, 1, 7, 255, 256, 257, 1000):
        rng, want_rng = random.Random(count), random.Random(count)
        got = random_coefficients(_Shape(m, 1), rng, count)
        assert got.tolist() == _coefficient_loop(m, want_rng, count)
        assert rng.getstate() == want_rng.getstate()
        assert all(type(c) is int for c in got.tolist())


def test_random_coefficients_interleave_with_the_other_draws():
    shape = _Shape(25, 6)
    rng, want_rng = random.Random(9), random.Random(9)
    for count in (3, 257, 0, 1, 40):
        got = random_coefficients(shape, rng, count)
        assert got.tolist() == _coefficient_loop(25, want_rng, count)
        assert random_payload(shape, rng) == random_payload(shape, want_rng)
        assert rng.randrange(1000) == want_rng.randrange(1000)
    assert rng.getstate() == want_rng.getstate()


def test_random_witt_and_random_element_draw_as_before():
    Z = IntegerRing()
    rings = [CyclotomicTruncation(3, 2, 1), CyclotomicTruncation(5, 2, 2), CharPQuotient(3, 0, 9), Z]
    for ring in rings:

        def old_element(rng):
            if ring is Z:
                return ring.from_int(rng.randint(-9, 9))
            return RingElement(ring, tuple(rng.randrange(ring.m) for _ in range(ring.d)))

        rng, want_rng = random.Random(4), random.Random(4)
        for n in (1, 2, 3):
            assert random_element(ring, rng) == old_element(want_rng)
            p = 3 if ring is Z else ring.p
            want = WittVector(ring, p, [old_element(want_rng) for _ in range(n)])
            assert random_witt(ring, p, n, rng) == want
        assert rng.getstate() == want_rng.getstate()
