"""The per-process caches of a ring's linear algebra: one Omega^1 per ring,
and the elimination and annihilator of each divisor.  A cached answer must be
the answer a fresh computation gives."""

import contextlib
import io
import itertools
import random

import pytest

from wittkit import cli, kaehler, rings
from wittkit.kaehler import Omega1, omega1_for_ring
from wittkit.modlin import nullspace_mod_p, solve_mod_pp
from wittkit.rings import CharPQuotient, CyclotomicTruncation, RingElement, random_element
from wittkit.witt import random_witt, witt_divide_exact, witt_mul, z_element


def test_omega1_for_ring_is_one_object_per_ring():
    a, b = CyclotomicTruncation(3, 2, 2), CyclotomicTruncation(3, 2, 2)
    assert a is not b
    assert omega1_for_ring(a) is omega1_for_ring(b)
    assert omega1_for_ring(CyclotomicTruncation(3, 2, 1)) is not omega1_for_ring(a)


def test_omega1_serves_equal_ring_instances_alike():
    # mult and fn_d take the ring's own path for an element of an equal ring
    first, other = CyclotomicTruncation(3, 2, 2), CyclotomicTruncation(3, 2, 2)
    omega = omega1_for_ring(first)
    rng = random.Random(5)
    for _ in range(20):
        a, b = random_element(other, rng), random_element(other, rng)
        assert omega.mult(a, b.data) == list((a * b).data)
    w = random_witt(other, 3, 2, rng)
    assert kaehler.fn_d(w, omega) == kaehler.fn_d(w, Omega1(other.minpoly, other.m, other))


def test_cached_omega1s_match_fresh_ones_after_a_full_run():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--suite", "all", "--seed", "7", "--format", "json"]) == 0
    assert kaehler._omega1s
    for ring, omega in kaehler._omega1s.items():
        fresh = Omega1(ring.minpoly, ring.m, ring)
        assert omega.relations == fresh.relations, ring
        assert omega._snf_data() == fresh._snf_data(), ring


def _divisor(ring, rng, power):
    """A uniformizer (z - 1 over cyc, s over charp) to the power, times a
    random element: a non-unit for power >= 1."""
    base = ring.from_coeffs([0, 1])
    if ring.kind == "CyclotomicTruncation":
        base = base - ring.one()
    return base**power * random_element(ring, rng)


def test_one_divisor_through_equal_ring_instances():
    rng = random.Random(11)
    first, other = CyclotomicTruncation(3, 4, 1), CyclotomicTruncation(3, 4, 1)
    for power in (1, 3, 7):
        b = _divisor(first, rng, power)
        a = b * random_element(first, rng)
        q1 = first.divide_exact(a, b)
        q2 = other.divide_exact(RingElement(other, a.data), RingElement(other, b.data))
        assert q1 == q2
        assert q1.data == tuple(solve_mod_pp(first._mul_matrix(b), a.data, 3, 1))
    # the Witt division by z_2, as check_ker_F_generators makes it
    for ring in (first, other):
        z = z_element(ring, 2)
        w = witt_mul(z, random_witt(ring, 3, 2, random.Random(2)))
        q = witt_divide_exact(w, z)
        assert q is not None and witt_mul(z, q) == w
        assert q == witt_divide_exact(w, z_element(CyclotomicTruncation(3, 4, 1), 2))


def test_divisor_cache_stays_at_its_bound():
    rng = random.Random(12)
    ring = CyclotomicTruncation(3, 3, 1)
    divisors = set()
    while len(divisors) < rings.DIVISOR_CACHE_SIZE + 5:
        divisors.add(_divisor(ring, rng, 1))
    for b in divisors:
        a = b * random_element(ring, rng)
        assert b * ring.divide_exact(a, b) == a
        assert len(rings._divisors) <= rings.DIVISOR_CACHE_SIZE
    assert len(rings._divisors) == rings.DIVISOR_CACHE_SIZE


def _annihilator_by_nullspace(ring, b, cap):
    """The annihilator as it was computed before the cache, kept as the
    oracle: a nullspace basis over F_p, then every combination in order."""
    basis = nullspace_mod_p(ring._mul_matrix(b), ring.p)
    if cap is not None and ring.p ** len(basis) > cap:
        return None
    out = []
    for coeffs in itertools.product(range(ring.p), repeat=len(basis)):
        vec = [0] * ring.d
        for c, bas in zip(coeffs, basis):
            for i in range(ring.d):
                vec[i] += c * bas[i]
        out.append(RingElement(ring, tuple(v % ring.p for v in vec)))
    return out


@pytest.mark.parametrize(
    "ring",
    [CyclotomicTruncation(3, k, 1) for k in (1, 2, 3, 4)]
    + [CharPQuotient(3, 0, 9), CharPQuotient(3, 1, 5), CharPQuotient(5, 1, 3)],
    ids=lambda r: r.descriptor(),
)
def test_annihilator_is_the_list_it_was(ring):
    rng = random.Random(ring.d)
    for power in (0, 1, 2, 3, 5, 6):
        if power > ring.d:
            continue
        b = _divisor(ring, rng, power)
        for cap in (256, 3, None):
            want = _annihilator_by_nullspace(ring, b, cap)
            # twice: the second answer comes from the cache
            assert ring.annihilator(b, cap=cap) == want
            assert ring.annihilator(b, cap=cap) == want


def test_annihilator_cap_with_a_prime_power_modulus():
    ring = CyclotomicTruncation(3, 1, 2)  # 81 elements, brute force
    b = ring.from_int(3)
    full = [c for c in ring.enumerate_elements() if b * c == ring.zero()]
    assert ring.annihilator(b) == full
    assert ring.annihilator(b, cap=50) is None  # the cap bounds the ring, not the answer
    assert ring.annihilator(b, cap=81) == full
