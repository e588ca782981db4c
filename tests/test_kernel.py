"""The kernel's packed products must agree with its schoolbook loop and with
naive modular arithmetic."""

import random

import pytest

from wittkit import _kernel
from wittkit.rings import CyclotomicTruncation, ring_from_descriptor


def _reduction_rows(base, m, d):
    rows = [tuple(base)]
    for _ in range(d - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        rows.append(tuple((shifted[i] + top * base[i]) % m for i in range(d)))
    return rows if d > 1 else []


SHAPES = [(2, 9), (6, 3), (6, 27), (100, 5), (1, 3), (27, 3), (20, 25)]


def test_fallback_packed_path_matches_loops():
    # a degree well above the old vectorized cutoff: one packed product each
    ring = CyclotomicTruncation(3, 4, 2)
    d, m = ring.d, ring.m
    ctx = _kernel.make_ctx(ring._red_rows, m, d)
    assert ctx.slots is not None
    rng = random.Random(1)
    for _ in range(25):
        a = tuple(rng.randrange(m) for _ in range(d))
        b = tuple(rng.randrange(m) for _ in range(d))
        assert _kernel.poly_mulmod(a, b, ctx) == _kernel.schoolbook_mulmod(a, b, ctx)


# ring -> width in bytes of its packed slots
PACKED_SHAPES = {
    "cyc(3,2,2)": 2,
    "cyc(3,3,1)": 2,
    "cyc(3,4,1)": 2,
    "cyc(3,2,3)": 2,
    "cyc(3,1,5)": 4,
    "cyc(5,3,1)": 2,
    "cyc(7,2,1)": 2,
    "cyc(7,2,2)": 4,
    "charp(3,0,1)": 2,
    "charp(3,0,9)": 2,
    "charp(3,0,27)": 2,
    "cyc(3,1,15)": 8,
}


@pytest.mark.parametrize("desc", sorted(PACKED_SHAPES))
def test_packed_products_match_the_schoolbook_loop(desc):
    ring = ring_from_descriptor(desc)
    p, d, m = ring.p, ring.d, ring.m
    ctx = _kernel.make_ctx(ring._red_rows, m, d)
    assert ctx.slots.size == d * PACKED_SHAPES[desc]
    zero, one, top = (0,) * d, (1,) + (0,) * (d - 1), (m - 1,) * d  # top reaches the slot bound
    special = [zero, one, top]
    rng = random.Random(f"packed/{desc}")

    def rand():
        return tuple(rng.randrange(m) for _ in range(d))

    pairs = [(a, b) for a in special for b in special]
    pairs += [(rand(), rand()) for _ in range(500)]
    for a, b in pairs:
        assert _kernel.poly_mulmod(a, b, ctx) == _kernel.schoolbook_mulmod(a, b, ctx)
    for a in special + [a for a, _ in pairs[9:14]]:
        want = one
        for e in range(1, p * p + 1):
            want = _kernel.schoolbook_mulmod(want, a, ctx)
            if e >= 2:
                assert _kernel.poly_powmod(a, e, ctx) == want


def test_shapes_past_the_slot_bound_keep_the_schoolbook_loop():
    ring = CyclotomicTruncation(3, 1, 40)  # (m-1)^2 alone needs more than 64 bits
    ctx = _kernel.make_ctx(ring._red_rows, ring.m, ring.d)
    assert ctx.slots is None
    rng = random.Random(40)
    for _ in range(200):
        a = tuple(rng.randrange(ring.m) for _ in range(ring.d))
        b = tuple(rng.randrange(ring.m) for _ in range(ring.d))
        # the oracle: (a0 + a1 x)(b0 + b1 x) with x^2 = -1 - x
        c0 = a[0] * b[0] - a[1] * b[1]
        c1 = a[0] * b[1] + a[1] * b[0] - a[1] * b[1]
        want = (c0 % ring.m, c1 % ring.m)
        assert _kernel.poly_mulmod(a, b, ctx) == _kernel.schoolbook_mulmod(a, b, ctx) == want


def test_arbitrary_reduction_rows_keep_the_schoolbook_loop():
    rng = random.Random(2)
    for d, m in SHAPES:
        base = [rng.randrange(m) for _ in range(d)]
        base[1 % d] = 1  # no sum_{i<p} x^(i*q) has this row
        ctx = _kernel.make_ctx(_reduction_rows(base, m, d), m, d)
        assert ctx.slots is None or d == 1


def test_mulmod_against_naive_modular_arithmetic():
    # oracle: multiply in Z[x], long-divide by the minimal polynomial, reduce
    rng = random.Random(5)
    d, m = 6, 27
    minpoly = [1, 0, 0, 1, 0, 0, 1]  # x^6 + x^3 + 1
    base = [(-c) % m for c in minpoly[:d]]
    red = _reduction_rows(base, m, d)
    ctx = _kernel.make_ctx(red, m, d)
    for _ in range(40):
        a = [rng.randrange(m) for _ in range(d)]
        b = [rng.randrange(m) for _ in range(d)]
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            prod[k] = 0
            for j in range(d + 1):
                prod[k - d + j] -= c * minpoly[j]
        want = tuple(c % m for c in prod[:d])
        assert _kernel.poly_mulmod(tuple(a), tuple(b), ctx) == want
