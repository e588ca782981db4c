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
from wittkit.modlin import Elimination, solve_mod_pp
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
        assert rings._divisor_entry.cache_info().currsize <= rings.DIVISOR_CACHE_SIZE
    assert rings._divisor_entry.cache_info().currsize == rings.DIVISOR_CACHE_SIZE


def _nullspace_mod_p(rows, p):
    """The dense Gauss-Jordan kernel basis over F_p that Elimination.kernel
    replaced, kept as the oracle: for each column without a pivot of the
    reduced row echelon form, in column order, the vector with 1 there."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [[c % p for c in row] for row in rows]
    pivot_col = []
    r = 0
    for j in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][j], -1, p)
        a[r] = [c * inv % p for c in a[r]]
        for i in range(nr):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [(c - f * ck) % p for c, ck in zip(a[i], a[r])]
        pivot_col.append(j)
        r += 1
        if r == nr:
            break
    basis = []
    for j in range(nc):
        if j not in pivot_col:
            vec = [0] * nc
            vec[j] = 1
            for i, pc in enumerate(pivot_col):
                vec[pc] = -a[i][j] % p
            basis.append(vec)
    return basis


def _annihilator_by_nullspace(ring, b, cap):
    """The annihilator as it was computed before the cache, kept as the
    oracle: a nullspace basis over F_p, then every combination in order."""
    basis = _nullspace_mod_p(ring._mul_matrix(b), ring.p)
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


@pytest.mark.parametrize(
    "ring",
    [CyclotomicTruncation(3, k, 1) for k in (1, 2, 3, 4)]
    + [CyclotomicTruncation(5, 2, 1), CyclotomicTruncation(7, 2, 1)]
    + [CharPQuotient(3, 0, 9), CharPQuotient(3, 1, 5), CharPQuotient(5, 1, 3)]
    + [CharPQuotient(3, 2, 4)],
    ids=lambda r: r.descriptor(),
)
def test_kernel_is_the_dense_basis_on_multiplication_matrices(ring):
    # on the matrices the rings build, the recorded elimination leaves the
    # columns without a pivot that Gauss-Jordan leaves, so the two bases,
    # and with them the annihilator's order, agree vector for vector
    rng = random.Random(ring.d + ring.p)
    for _ in range(40):
        b = _divisor(ring, rng, rng.randrange(ring.d + 1))
        rows = ring._mul_matrix(b)
        assert Elimination(rows, ring.p, 1).kernel() == _nullspace_mod_p(rows, ring.p)


def test_annihilator_cap_with_a_prime_power_modulus():
    ring = CyclotomicTruncation(3, 1, 2)  # 81 elements, brute force
    b = ring.from_int(3)
    full = [c for c in ring.enumerate_elements() if b * c == ring.zero()]
    assert ring.annihilator(b) == full
    assert ring.annihilator(b, cap=50) is None  # the cap bounds the ring, not the answer
    assert ring.annihilator(b, cap=81) == full
