"""The kernel's packed products and Frobenius maps must agree with its
schoolbook loop and with naive modular arithmetic."""

import random

import numpy as np
import pytest

from wittkit import _kernel
from wittkit.rings import CyclotomicTruncation, random_element, ring_from_descriptor
from wittkit._compiler import _batch_frobmod, _coeff_batch_dtype
from wittkit.witt import random_witt, raw_witt_ops


def _reduction_rows(minpoly, m):
    """The oracle: x^(d+j), j = 0..d-2, reduced modulo (minpoly, m) by
    multiplying by x and folding the overflow through x^d."""
    d = len(minpoly) - 1
    base = [(-c) % m for c in minpoly[:d]]  # x^d = -(minpoly - x^d)
    rows = [tuple(base)]
    for _ in range(d - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        rows.append(tuple((shifted[i] + top * base[i]) % m for i in range(d)))
    return tuple(rows) if d > 1 else ()


@pytest.mark.parametrize(
    "desc",
    ["cyc(3,1,1)", "cyc(3,2,1)", "cyc(3,3,2)", "cyc(5,2,1)", "cyc(7,2,3)", "cyc(3,1,40)",
     "charp(3,0,1)", "charp(3,0,9)", "charp(5,1,2)"],
)
def test_context_rows_are_the_reduction_rows_of_the_ring(desc):
    # the context derives its rows from the period; the oracle from minpoly
    ring = ring_from_descriptor(desc)
    if ring.kind == "CyclotomicTruncation":
        want = _reduction_rows(ring.minpoly, ring.m)
    else:
        want = ((0,) * ring.d,) * (ring.d - 1)
    assert ring._ctx.red == want
    assert ring._red_rows is ring._ctx.red


def test_fallback_packed_path_matches_loops():
    # a degree well above the old vectorized cutoff: one packed product each
    ring = CyclotomicTruncation(3, 4, 2)
    d, m = ring.d, ring.m
    ctx = ring._ctx
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
    ctx = ring._ctx
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
    ctx = ring._ctx
    assert ctx.slots is None and ctx.char is None
    rng = random.Random(40)
    for _ in range(200):
        a = tuple(rng.randrange(ring.m) for _ in range(ring.d))
        b = tuple(rng.randrange(ring.m) for _ in range(ring.d))
        # the oracle: (a0 + a1 x)(b0 + b1 x) with x^2 = -1 - x
        c0 = a[0] * b[0] - a[1] * b[1]
        c1 = a[0] * b[1] + a[1] * b[0] - a[1] * b[1]
        want = (c0 % ring.m, c1 % ring.m)
        assert _kernel.poly_mulmod(a, b, ctx) == _kernel.schoolbook_mulmod(a, b, ctx) == want


def test_mulmod_against_naive_modular_arithmetic():
    # oracle: multiply in Z[x], long-divide by the minimal polynomial, reduce
    rng = random.Random(5)
    d, m = 6, 27
    minpoly = [1, 0, 0, 1, 0, 0, 1]  # x^6 + x^3 + 1
    ctx = _kernel.make_ctx(m, d, 3)
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


# rings of characteristic p whose contexts take p-th powers as a coefficient
# map: d = 1, d prime to p, d a power of p, q = 1 and q > 1
FROBENIUS_SHAPES = [
    "charp(3,0,1)",
    "charp(5,0,7)",
    "charp(3,0,27)",
    "charp(7,0,63)",
    "cyc(3,1,1)",
    "cyc(3,3,1)",
    "cyc(5,3,1)",
    "cyc(7,2,1)",
]


def _schoolbook_pow(a, e, ctx):
    want = (1,) + (0,) * (ctx.d - 1)
    for _ in range(e):
        want = _kernel.schoolbook_mulmod(want, a, ctx)
    return want


@pytest.mark.parametrize("desc", FROBENIUS_SHAPES)
def test_frobenius_and_powers_match_repeated_schoolbook_products(desc):
    ring = ring_from_descriptor(desc)
    p, d, m = ring.p, ring.d, ring.m
    ctx = ring._ctx
    assert ctx.char == p
    rng = random.Random(f"frobenius/{desc}")
    vectors = [(0,) * d, (1,) + (0,) * (d - 1), (m - 1,) * d]
    vectors += [tuple(rng.randrange(m) for _ in range(d)) for _ in range(6)]
    for a in vectors:
        assert _kernel.poly_frobmod(a, ctx) == _schoolbook_pow(a, p, ctx)
        for e in (p, p * p, 2 * p, p + 1, p * p - 1):
            assert _kernel.poly_powmod(a, e, ctx) == _schoolbook_pow(a, e, ctx), e


@pytest.mark.parametrize("desc", ["cyc(3,2,3)", "cyc(7,2,3)"])
def test_prime_power_moduli_get_no_frobenius(desc):
    ring = ring_from_descriptor(desc)
    assert ring._ctx.char is None


def test_cyclotomic_rows_mod_another_prime_get_no_frobenius():
    # Phi_9 modulo 5: the cyc fold applies, but x^5 is no coefficient map
    ctx = _kernel.make_ctx(5, 6, 3)
    assert ctx.slots is not None and ctx.fold is not None and ctx.char is None


@pytest.mark.parametrize("desc", FROBENIUS_SHAPES)
def test_batch_frobenius_matches_the_kernel_row_by_row(desc):
    ring = ring_from_descriptor(desc)
    frob = _batch_frobmod(ring)
    rng = random.Random(f"batch-frobenius/{desc}")
    rows = [tuple(rng.randrange(ring.m) for _ in range(ring.d)) for _ in range(40)]
    rows.append((ring.m - 1,) * ring.d)
    out = frob(np.array(rows, dtype=_coeff_batch_dtype(ring)))
    assert out.shape == (len(rows), ring.d)
    for a, got in zip(rows, out.tolist()):
        assert tuple(got) == _kernel.poly_frobmod(a, ring._ctx)


def _mul_matrix_by_products(ring, b):
    """The oracle: column j+1 is the kernel product of column j with x."""
    d, ctx = ring.d, ring._ctx
    x = (0, 1) + (0,) * (d - 2)
    cols = [b.data]
    for _ in range(d - 1):
        cols.append(_kernel.schoolbook_mulmod(cols[-1], x, ctx))
    return [[cols[j][i] for j in range(d)] for i in range(d)]


@pytest.mark.parametrize(
    "desc",
    # table rings (at most TABLE_CAP elements) and kernel rings, d = 1 too
    ["cyc(3,1,1)", "cyc(3,2,1)", "charp(3,0,1)", "charp(3,0,3)", "cyc(3,2,3)", "cyc(3,3,1)",
     "cyc(5,3,1)", "charp(7,0,63)", "cyc(7,2,3)", "cyc(3,1,40)"],
)
def test_multiplication_matrix_matches_the_column_by_column_products(desc):
    ring = ring_from_descriptor(desc)
    rng = random.Random(f"mul-matrix/{desc}")
    elements = [ring.zero(), ring.one(), ring.from_coeffs([ring.m - 1] * ring.d)]
    elements += [random_element(ring, rng) for _ in range(5)]
    for b in elements:
        assert ring._mul_matrix(b) == _mul_matrix_by_products(ring, b)


# kernel products (poly_mulmod) and Frobenius maps (poly_frobmod) per call of
# the compiled RawWittOps add, mul and frob, (ring, n) -> {op: (products,
# Frobenius maps)}: in characteristic p every p-th power of a power already
# taken is a coefficient map, so the products by square-and-multiply (mul 11
# and 40, frob 4 and 8 on W_2 and W_3 over charp(7,0,63)) would fail here;
# and each block forms a value's powers in ascending order, each the largest
# taken times the rest, so the separate square-and-multiply chains of each
# exponent (add 10 and 98 + 4, and 48 + 3 on W_3 over cyc(5,3,1)) would too
WITT_OP_COUNTS = {
    ("charp(7,0,63)", 2): {"add": (9, 0), "mul": (3, 2), "frob": (0, 1)},
    ("charp(7,0,63)", 3): {"add": (79, 0), "mul": (15, 6), "frob": (0, 2)},
    ("cyc(5,3,1)", 2): {"add": (6, 0), "mul": (3, 2), "frob": (0, 1)},
    ("cyc(5,3,1)", 3): {"add": (41, 0), "mul": (12, 6), "frob": (0, 2)},
}


@pytest.mark.parametrize("desc,n", sorted(WITT_OP_COUNTS))
def test_compiled_witt_ops_take_p_th_powers_as_frobenius_maps(desc, n, monkeypatch):
    ring = ring_from_descriptor(desc)
    raw = raw_witt_ops(ring, ring.p, n)
    calls = {"poly_mulmod": 0, "poly_frobmod": 0}
    for name in calls:
        # the compiled functions call the kernel through its module
        def counted(*args, _fn=getattr(_kernel, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(_kernel, name, counted)
    rng = random.Random(f"op-counts/{desc}/{n}")
    u, v = (raw.unwrap(random_witt(ring, ring.p, n, rng)) for _ in range(2))
    for op, want in WITT_OP_COUNTS[desc, n].items():
        for name in calls:
            calls[name] = 0
        getattr(raw, op)(*((u,) if op == "frob" else (u, v)))
        assert (calls["poly_mulmod"], calls["poly_frobmod"]) == want, op
