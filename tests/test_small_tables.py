"""Lookup-table arithmetic of small quotient rings against the schoolbook
kernel, and the table-driven Witt operations against the universal
polynomials evaluated on RingElements."""

import itertools
import random

import pytest

from wittkit import _kernel
from wittkit.rings import TABLE_CAP, CyclotomicTruncation, SmallRingTables, ring_from_descriptor
from wittkit.witt import WittUniversalTable, get_table, random_witt, raw_witt_ops

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
    ctx = ring._ctx
    rng = random.Random(f"tables/{desc}")
    for a, b in _pairs(ring, rng):
        want = _kernel.schoolbook_mulmod(a.data, b.data, ctx)
        assert (a * b).data == _kernel.poly_mulmod(a.data, b.data, ctx) == want
        assert (a + b).data == _kernel.vec_addmod(a.data, b.data, ring.m)
        i, j = t.index[a.data], t.index[b.data]
        assert t.elems[t.add(i, j)] == _kernel.vec_addmod(a.data, b.data, ring.m)
    for a in ring.enumerate_elements():
        i = t.index[a.data]
        assert (-a).data == t.elems[t.neg[i]] == _kernel.vec_negmod(a.data, ring.m)
        for e in (0, 1, 2, 3, 5, 9, 27):
            want = _kernel.poly_powmod(a.data, e, ctx)
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
def test_raw_witt_ops_match_the_kernel_polynomials(desc, eval_polys, oracle_table):
    # oracle: the unpruned polynomials evaluated on RingElements
    ring = ring_from_descriptor(desc)
    p = ring.p
    for n in LENGTHS[desc]:
        raw = raw_witt_ops(ring, p, n)
        assert raw._tables is not None and raw._tables is ring._tables
        table, want = get_table(p, n), oracle_table(p, n)
        rng = random.Random(f"raw/{desc}/{n}")
        for _ in range(40 if n < 4 else 5):
            x, y = random_witt(ring, p, n, rng), random_witt(ring, p, n, rng)
            u, v = raw.unwrap(x), raw.unwrap(y)
            args = x.coords + y.coords
            assert raw.add(u, v) == tuple(c.data for c in eval_polys(want["sum_polys"], args))
            assert raw.mul(u, v) == tuple(c.data for c in eval_polys(want["prod_polys"], args))
            assert raw.frob(u) == tuple(c.data for c in eval_polys(table.frob_polys, x.coords))


def test_rings_above_the_cap_build_no_tables():
    ring = CyclotomicTruncation(3, 2, 2)
    assert ring.cardinality() > TABLE_CAP
    assert ring._tables is None
    assert raw_witt_ops(ring, 3, 2)._tables is None


@pytest.mark.parametrize("desc", ["cyc(3,2,1)", "charp(3,0,6)", "cyc(3,1,3)"])
def test_table_memory_at_the_cap(desc):
    ring = ring_from_descriptor(desc)
    # a fresh table set, holding only what the Witt operations need: this
    # ring handle reads it, and fresh universal tables compile against it
    ring._tables = tables = SmallRingTables(ring.m, ring.d, ring._red_rows)
    for n in LENGTHS[desc]:
        table = WittUniversalTable(ring.p, n)
        for which in ("sum", "prod", "frob"):
            table.compiled(which, ring)
    assert tables._pow  # the compile took its power tables from the fresh set
    Q, m, d = ring.cardinality(), ring.m, ring.d
    assert Q == TABLE_CAP
    # a full Q x Q multiplication table alone would take 2 * Q**2 bytes
    assert tables.nbytes() <= 8 * Q * m ** -(-d // 2) < 2 * Q**2
