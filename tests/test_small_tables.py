"""Lookup-table arithmetic of small quotient rings against the schoolbook
kernel, and the table-driven Witt operations against the kernel-compiled
universal polynomials."""

import itertools
import random

import pytest

from wittkit._kernel import _fallback
from wittkit.rings import TABLE_CAP, CyclotomicTruncation, SmallRingTables, ring_from_descriptor
from wittkit.witt import get_table, random_witt, raw_witt_ops

SHAPES = [
    "charp(3,0,2)",
    "charp(3,0,3)",
    "charp(3,0,6)",
    "cyc(3,1,1)",
    "cyc(3,1,2)",
    "cyc(3,1,3)",
    "cyc(3,2,1)",
    "cyc(5,1,1)",
]


def _pairs(ring, rng):
    elems = list(ring.enumerate_elements())
    if len(elems) <= 81:
        return list(itertools.product(elems, repeat=2))
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(5000)]


@pytest.mark.parametrize("desc", SHAPES)
def test_ring_arithmetic_matches_the_schoolbook_kernel(desc):
    ring = ring_from_descriptor(desc)
    t = ring._tables
    assert t is not None and t.Q == ring.cardinality() <= TABLE_CAP
    ctx = _fallback.make_ctx(ring._red_rows, ring.m, ring.d)
    rng = random.Random(f"tables/{desc}")
    for a, b in _pairs(ring, rng):
        want = _fallback.schoolbook_mulmod(a.data, b.data, ctx)
        assert (a * b).data == _fallback.poly_mulmod(a.data, b.data, ctx) == want
        assert (a + b).data == _fallback.vec_addmod(a.data, b.data, ring.m)
        i, j = t.index[a.data], t.index[b.data]
        assert t.elems[t.add(i, j)] == _fallback.vec_addmod(a.data, b.data, ring.m)
    for a in ring.enumerate_elements():
        i = t.index[a.data]
        assert (-a).data == t.elems[t.neg[i]] == _fallback.vec_negmod(a.data, ring.m)
        for e in (0, 1, 2, 3, 5, 9, 27):
            want = _fallback.poly_powmod(a.data, e, ctx)
            assert (a**e).data == t.elems[t.pow_table(e)[i]] == want


def test_index_order_is_enumeration_order():
    ring = ring_from_descriptor("cyc(3,2,1)")
    t = ring._tables
    assert [a.data for a in ring.enumerate_elements()] == t.elems
    assert all(t.index[e] == i for i, e in enumerate(t.elems))


# (shape, Witt lengths): every length at which the suites build raw Witt
# operations over a ring this small, for p = 3 and p = 5
LENGTHS = {desc: (1, 2, 3, 4) for desc in SHAPES}
LENGTHS["cyc(5,1,1)"] = (1, 2, 3)


@pytest.mark.parametrize("desc", SHAPES)
def test_raw_witt_ops_match_the_kernel_polynomials(desc):
    ring = ring_from_descriptor(desc)
    p = ring.p
    for n in LENGTHS[desc]:
        raw = raw_witt_ops(ring, p, n)
        assert raw._indexed is not None
        table = get_table(p, n)
        fs = [table.compiled_raw("sum", i, ring) for i in range(n)]
        fp = [table.compiled_raw("prod", i, ring) for i in range(n)]
        ff = [table.compiled_raw("frob", i, ring) for i in range(n - 1)]
        rng = random.Random(f"raw/{desc}/{n}")
        for _ in range(40 if n < 4 else 5):
            u = raw.unwrap(random_witt(ring, p, n, rng))
            v = raw.unwrap(random_witt(ring, p, n, rng))
            assert raw.add(u, v) == tuple(f(*u, *v) for f in fs)
            assert raw.mul(u, v) == tuple(f(*u, *v) for f in fp)
            assert raw.frob(u) == tuple(f(*u) for f in ff)


def test_rings_above_the_cap_build_no_tables():
    ring = CyclotomicTruncation(3, 2, 2)
    assert ring.cardinality() > TABLE_CAP
    assert ring._tables is None
    assert raw_witt_ops(ring, 3, 2)._indexed is None


@pytest.mark.parametrize("desc", ["cyc(3,2,1)", "charp(3,0,6)", "cyc(3,1,3)"])
def test_table_memory_at_the_cap(desc):
    ring = ring_from_descriptor(desc)
    # a fresh table set, holding only what the Witt operations need
    tables = SmallRingTables(ring.m, ring.d, ring._red_rows)
    for n in LENGTHS[desc]:
        for which in ("sum", "prod", "frob"):
            get_table(ring.p, n).compiled_indexed(which, tables)
    Q, m, d = ring.cardinality(), ring.m, ring.d
    assert Q == TABLE_CAP
    # a full Q x Q multiplication table alone would take 2 * Q**2 bytes
    assert tables.nbytes() <= 8 * Q * m ** -(-d // 2) < 2 * Q**2
