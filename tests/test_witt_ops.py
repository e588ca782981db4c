"""Witt vector operator laws over the quotient rings."""

import itertools
import random
import tracemalloc

import pytest

from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    RingElement,
    random_element,
    ring_from_descriptor,
)
from wittkit.witt import (
    _MAX_PRACTICAL_LEN,
    WittVector,
    frobenius,
    frobenius_power,
    get_table,
    ghost,
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


GHOST_SHAPES = [("cyc(3,2,1)", 1), ("cyc(3,2,1)", 2), ("cyc(3,2,2)", 2), ("charp(3,0,3)", 2), ("Z", 3)]


@pytest.mark.parametrize(
    "desc,k,batch",
    [pytest.param(desc, k, False, id=f"{desc}-{k}") for desc, k in GHOST_SHAPES]
    + [pytest.param(desc, k, True, id=f"{desc}-{k}-batch") for desc, k in GHOST_SHAPES if desc != "Z"],
)
def test_ghost_component_is_coordinate_zero_of_the_frobenius_power(desc, k, batch):
    # F shifts ghost components, so F^k(u)_0 = w_k(u), for the compiled
    # ghost block of W_{k+1} and for ghost(u), and on a batch for the ghost
    # block and the twist block (whose output 0 is w_k); a payload whose
    # last coordinate is zero, as the exact-rz map F^k reads it, included
    ring = ring_from_descriptor(desc)
    rng = random.Random(12)
    zero = ring.zero().data
    table = get_table(3, k + 1)
    ws = []
    for _ in range(20):
        u = random_witt(ring, 3, k + 1, rng)
        ws += [u, WittVector._trusted(ring, 3, u.data[:-1] + (zero,))]
    want = [frobenius_power(w, k).data[0] for w in ws]
    if not batch:
        block = table.compiled("ghost", ring)
        assert [block(w.data)[k] for w in ws] == want
        assert [ghost(w)[k] for w in ws] == [RingElement(ring, c) for c in want]
        return
    raw, raw1 = raw_witt_ops(ring, 3, k + 1), raw_witt_ops(ring, 3, 1)
    ys = raw.to_batch([w.data for w in ws])
    for which, out in (("ghost", k), ("twist", 0)):
        wk = (table.compiled(which, ring, batch=True)(ys)[out],)
        assert [raw1.payload_at(wk, i)[0] for i in range(len(ws))] == want, which


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("which", ["ghost", "twist"])
def test_ghost_blocks_drop_the_terms_that_vanish_mod_the_modulus(which, M):
    # p^i y_i^(p^(n-i)) vanishes once m = 3^M divides p^i: over cyc(3,2,M)
    # at n = 2 the compiled w_n does not read y_i for i >= M, and reads
    # every y_i with i < M
    ring, n = ring_from_descriptor(f"cyc(3,2,{M})"), 2
    raw, raw1 = raw_witt_ops(ring, 3, n + 1), raw_witt_ops(ring, 3, 1)
    block = get_table(3, n + 1).compiled(which, ring, batch=True)
    rng = random.Random(f"ghost-terms/{M}")
    ys = [random_witt(ring, 3, n + 1, rng).data for _ in range(10)]

    def wn(payloads):
        out = (block(raw.to_batch(payloads))[n if which == "ghost" else 0],)
        return [raw1.payload_at(out, k)[0] for k in range(len(payloads))]

    base = wn(ys)
    for i in range(n + 1):
        moved = [y[:i] + (random_element(ring, rng).data,) + y[i + 1 :] for y in ys]
        assert (wn(moved) != base) == (i < M), i


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


@pytest.mark.parametrize("desc", ["cyc(3,1,1)", "cyc(3,1,2)", "charp(3,0,3)"])
def test_units_lemma_exhaustive(desc):
    ring = ring_from_descriptor(desc)
    raw = raw_witt_ops(ring, 3, 2)
    for payload in raw.enumerate_payloads():
        w = raw.wrap(payload)
        ok, inv = witt_is_unit(w)
        assert ok == ring.is_unit(w.coords[0])[0]
        if ok:
            assert witt_mul(w, inv) == witt_one(ring, 3, 2)
        else:
            assert inv is None


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


def test_serialize_roundtrip(witt_text):
    parse_witt, witt_to_json, witt_from_json = witt_text
    r = CyclotomicTruncation(3, 2, 2)
    w = random_witt(r, 3, 2, RNG)
    assert parse_witt(serialize_witt(w), r) == w
    assert serialize_witt(w).startswith("W[p=3,n=2;")
    assert witt_from_json(witt_to_json(w), r) == w


def test_teichmuller_divide_budget_exhaustion():
    r = CyclotomicTruncation(3, 1, 3)
    x = witt_one(r, 3, 1)
    assert teichmuller_divide(x, r.zero(), 2) is None  # p^N x != 0 for N < M


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
    with pytest.raises(ValueError, match="owner mismatch"):
        WittVector(r, 3, [r.one(), CharPQuotient(3, 0, 3).one()])


def test_a_vector_stores_the_payload_raw_ops_compute_on():
    ring = CyclotomicTruncation(3, 2, 1)
    raw = raw_witt_ops(ring, 3, 2)
    u = raw.unwrap(random_witt(ring, 3, 2, random.Random(5)))
    w = raw.wrap(u)
    assert w.data is u and raw.unwrap(w) is u
    public = WittVector(ring, 3, [RingElement(ring, c) for c in u])
    assert public == w and hash(public) == hash(w)
    assert all(isinstance(c, RingElement) and c.ring is w.ring for c in w.coords)
    assert tuple(c.data for c in w.coords) == u


def test_results_are_owned_by_the_operand_ring():
    # raw_witt_ops caches by ring equality; a result must still carry the
    # operand's own ring object, not the one cached first
    r1 = CyclotomicTruncation(3, 2, 1)
    witt_add(witt_one(r1, 3, 2), witt_one(r1, 3, 2))
    r2 = CyclotomicTruncation(3, 2, 1)
    assert r2 == r1 and r2 is not r1
    rng = random.Random(7)
    u, v = random_witt(r2, 3, 2, rng), random_witt(r2, 3, 2, rng)
    for w in (witt_add(u, v), witt_mul(u, v), witt_scalar_mul(4, u), frobenius(u)):
        assert w.ring is r2


def test_wrapped_arithmetic_builds_no_ring_elements(monkeypatch):
    ring = CyclotomicTruncation(3, 2, 1)
    raw = raw_witt_ops(ring, 3, 2)
    rng = random.Random(6)
    u, v = random_witt(ring, 3, 2, rng), random_witt(ring, 3, 2, rng)
    payload = raw.unwrap(u)
    built = []
    init = RingElement.__init__

    def counting_init(self, ring, data):
        built.append(data)
        init(self, ring, data)

    monkeypatch.setattr(RingElement, "__init__", counting_init)
    witt_add(u, v)
    witt_mul(u, v)
    frobenius(u)
    witt_neg(u)
    raw.wrap(payload)
    assert built == []


@pytest.mark.parametrize("desc,n", [("cyc(3,2,1)", 2), ("Z", 3)])
def test_scalar_mul_is_iterated_addition(desc, n, monkeypatch):
    ring = ring_from_descriptor(desc)
    u = random_witt(ring, 3, n, random.Random(desc))
    up, down = witt_zero(ring, 3, n), witt_zero(ring, 3, n)
    for k in range(5):
        assert witt_scalar_mul(k, u) == up
        assert witt_scalar_mul(-k, u) == down
        up, down = witt_add(up, u), witt_add(down, witt_neg(u))
    # the doubling chain starts at the lowest set bit of k: bit_length(k) - 1
    # doublings and popcount(k) - 1 additions, with no zero + u
    raw = raw_witt_ops(ring, 3, n)
    calls = []
    add = raw.add

    def counting_add(a, b):
        calls.append(None)
        return add(a, b)

    monkeypatch.setattr(raw, "add", counting_add)
    for k in range(9):
        calls.clear()
        raw.scalar_mul(k, u.data)
        assert len(calls) == max(0, k.bit_length() - 1 + bin(k).count("1") - 1), k


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_integer_witt_ops_match_the_operator_form(p, n, eval_polys, oracle_table):
    # W_n(Z) runs on plain ints; the oracle evaluates the same polynomials
    # on RingElements
    Z = IntegerRing()
    assert raw_witt_ops(Z, p, n) is not None
    table, want = get_table(p, n), oracle_table(p, n)
    rng = random.Random(f"witt-z/{p}/{n}")

    def coord():
        big = 2**64 + rng.randrange(2**70)
        return rng.choice([rng.randint(-9, 9), big, -big])

    def vector():
        return WittVector(Z, p, [Z.from_int(coord()) for _ in range(n)])

    for _ in range(12 if (p, n) in ((3, 4), (5, 3)) else 30):
        u, v = vector(), vector()
        args = u.coords + v.coords
        s, m = witt_add(u, v), witt_mul(u, v)
        assert s.coords == eval_polys(want["sum_polys"], args)
        assert m.coords == eval_polys(want["prod_polys"], args)
        gu, gv = ghost(u), ghost(v)
        assert ghost(s) == tuple(a + b for a, b in zip(gu, gv))
        assert ghost(m) == tuple(a * b for a, b in zip(gu, gv))
        assert ghost(witt_neg(u)) == tuple(-a for a in gu)
        if n >= 2:
            f = frobenius(u)
            assert f.coords == eval_polys(table.frob_polys, u.coords)
            assert ghost(f) == gu[1:]


# rings above the table cap; cyc(3,1,40) multiplies with the schoolbook loop
ABOVE_THE_CAP = [
    ("cyc(3,2,2)", 2),
    ("cyc(3,2,2)", 3),
    ("cyc(3,3,1)", 4),
    ("cyc(3,2,3)", 3),
    ("cyc(5,3,1)", 2),
    ("cyc(7,2,1)", 2),
    ("cyc(3,1,40)", 2),
    ("charp(3,0,9)", 2),
    ("charp(3,0,27)", 2),
]


@pytest.mark.parametrize("desc,n", ABOVE_THE_CAP)
def test_raw_witt_ops_above_the_cap_match_the_operator_form(desc, n, eval_polys, oracle_table):
    # one function per operation computes every coordinate through the
    # kernel; the oracle evaluates the unpruned polynomials on RingElements
    ring = ring_from_descriptor(desc)
    p = ring.p
    raw = raw_witt_ops(ring, p, n)
    assert ring._tables is None and raw._tables is None
    table, want = get_table(p, n), oracle_table(p, n)
    zero = ring.zero()
    rng = random.Random(f"raw-above-cap/{desc}/{n}")
    elems = [zero, ring.one(), ring.from_int(-1)]
    for k in range(12):
        if k < 3:  # zero, one and minus one in every coordinate
            x = WittVector(ring, p, [elems[k]] * n)
            y = WittVector(ring, p, [elems[(k + 1) % 3]] * n)
        else:
            x, y = random_witt(ring, p, n, rng), random_witt(ring, p, n, rng)
        u, v = raw.unwrap(x), raw.unwrap(y)
        args = x.coords + y.coords
        assert raw.add(u, v) == tuple(c.data for c in eval_polys(want["sum_polys"], args))
        assert raw.mul(u, v) == tuple(c.data for c in eval_polys(want["prod_polys"], args))
        assert raw.frob(u) == tuple(c.data for c in eval_polys(table.frob_polys, x.coords))


def _ghost_of_ints(u, p):
    return [sum(p**j * u[j] ** p ** (k - j) for j in range(k + 1)) for k in range(len(u))]


def _from_ghost(w, p):
    """The Witt vector over Z with ghost components w: the ghost map of Z is
    injective, each coordinate solved for by exact division by p^k."""
    u = []
    for k, wk in enumerate(w):
        rest = wk - sum(p**j * u[j] ** (p ** (k - j)) for j in range(k))
        assert rest % p**k == 0
        u.append(rest // p**k)
    return tuple(u)


@pytest.mark.parametrize("p", [3, 5])
def test_raw_witt_ops_compile_and_run_across_the_envelope(p, eval_polys, oracle_table):
    # every Witt length the suites admit, on a ring with lookup tables, a
    # packed ring above the table cap and Z; the oracle's expanded
    # polynomials are the oracle below the top length, where they are cheap
    # to build
    top = _MAX_PRACTICAL_LEN[p]
    rings = [ring_from_descriptor(f"cyc({p},1,1)"), ring_from_descriptor(
        "cyc(3,2,2)" if p == 3 else "cyc(5,2,1)"), IntegerRing()]
    assert rings[0]._tables is not None and rings[1]._tables is None
    rng = random.Random(f"envelope/{p}")
    for n in range(1, top + 1):
        for ring in rings:
            raw = raw_witt_ops(ring, p, n)
            for _ in range(3):
                x, y = random_witt(ring, p, n, rng), random_witt(ring, p, n, rng)
                u, v = x.data, y.data
                s, m = raw.add(u, v), raw.mul(u, v)
                f = raw.frob(u) if n > 1 else None
                if n < top:
                    table, want = get_table(p, n), oracle_table(p, n)
                    args = x.coords + y.coords
                    assert s == tuple(c.data for c in eval_polys(want["sum_polys"], args))
                    assert m == tuple(c.data for c in eval_polys(want["prod_polys"], args))
                    if n > 1:
                        assert f == tuple(c.data for c in eval_polys(table.frob_polys, x.coords))
                    continue
                gx, gy = ghost(x), ghost(y)
                assert ghost(raw.wrap(s)) == tuple(a + b for a, b in zip(gx, gy))
                assert ghost(raw.wrap(m)) == tuple(a * b for a, b in zip(gx, gy))
                assert ghost(raw.wrap(f)) == gx[1:]
                if isinstance(ring, IntegerRing):
                    # the ghost map of Z is injective: these are the results
                    assert s == _from_ghost([a.data + b.data for a, b in zip(gx, gy)], p)
                    assert m == _from_ghost([a.data * b.data for a, b in zip(gx, gy)], p)
                    assert f == _from_ghost([a.data for a in gx[1:]], p)
                    continue
                # R is a ring map onto the length verified one step before,
                # and V is additive
                short = raw_witt_ops(ring, p, n - 1)
                assert s[:-1] == short.add(u[:-1], v[:-1])
                assert m[:-1] == short.mul(u[:-1], v[:-1])
                assert f[:-1] == short.frob(u[:-1])
                zero = (ring.zero().data,)
                assert raw.add(zero + u[1:], zero + v[1:]) == zero + short.add(u[1:], v[1:])
                # the top coordinate on vectors of integers: their sum over
                # Z, from its ghost components, mapped to the ring
                a, b = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(2)]
                ghosts = zip(_ghost_of_ints(a, p), _ghost_of_ints(b, p))
                over_z = _from_ghost([g + h for g, h in ghosts], p)
                image = [tuple(ring.from_int(k).data for k in w) for w in (a, b, over_z)]
                assert raw.add(image[0], image[1]) == image[2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_payloads_keeps_the_flat_product_order(n):
    ring = CharPQuotient(3, 0, 2)
    d = ring.d
    raw = raw_witt_ops(ring, 3, n)
    flat = [
        tuple(f[i * d : (i + 1) * d] for i in range(n))
        for f in itertools.product(range(ring.m), repeat=d * n)
    ]
    assert list(raw.enumerate_payloads()) == flat
    ring = CyclotomicTruncation(3, 1, 2)  # m = 9, d = 2
    raw = raw_witt_ops(ring, 3, 2)
    got = list(raw.enumerate_payloads())
    assert len(got) == ring.cardinality() ** 2
    assert got == sorted(got) and got[1] == ((0, 0), (0, 1))


def test_enumerate_payloads_of_rings_without_coefficients():
    with pytest.raises(ValueError):
        list(raw_witt_ops(IntegerRing(), 3, 2).enumerate_payloads())


def test_enumerate_payloads_reads_a_prefix_lazily():
    # sampled checks read only the first payloads of a W_n(A) far too large
    # to enumerate; building all 3^12 coordinates of charp(3,0,12) first
    # would take ~80 MB
    raw = raw_witt_ops(CharPQuotient(3, 0, 12), 3, 2)
    tracemalloc.start()
    try:
        first = list(itertools.islice(raw.enumerate_payloads(), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert first[0] == ((0,) * 12, (0,) * 12) and first[1][1][-1] == 1


# --- fixed coordinates and the ghost block -----------------------------------

# (ring, p, n) per back end: plain ints over Z, the lookup tables at or below
# the table cap, the kernel above it, in characteristic p (cyc(5,3,1),
# charp(7,0,63)) and not (cyc(3,2,2))
COMPILED_SHAPES = [
    ("Z", 3, 3),
    ("cyc(3,2,1)", 3, 2),
    ("charp(3,0,3)", 3, 3),
    ("cyc(3,2,2)", 3, 3),
    ("cyc(5,3,1)", 5, 2),
    ("charp(7,0,63)", 7, 2),
]
COMPILED_IDS = [f"W{n}_{desc}" for desc, _, n in COMPILED_SHAPES]


@pytest.mark.parametrize("desc,p,n", COMPILED_SHAPES, ids=COMPILED_IDS)
def test_fixed_coordinates_compute_the_general_sum_and_product(desc, p, n):
    ring = ring_from_descriptor(desc)
    raw, table = raw_witt_ops(ring, p, n), get_table(p, n)
    rng = random.Random(f"fixed/{desc}/{n}")
    zero = ring.zero().data
    # zero and one fold away, a Teichmuller lift has zero coordinates, and
    # seeded vectors have none
    firsts = [(zero,) * n, witt_one(ring, p, n).data]
    firsts.append(teichmuller(random_element(ring, rng), p, n).data)
    firsts += [random_witt(ring, p, n, rng).data for _ in range(3)]
    seconds = [random_witt(ring, p, n, rng).data for _ in range(6)]
    for which, op in (("sum", raw.add), ("prod", raw.mul)):
        for a in firsts:
            fn = table.compiled(which, ring, fixed=dict(enumerate(a)))
            assert [fn(b) for b in seconds] == [op(a, b) for b in seconds]
            assert table.compiled(which, ring, fixed=dict(enumerate(a))) is fn
        # the second operand's last coordinate fixed at zero: the function
        # takes both operands, the second one coordinate short
        fn = table.compiled(which, ring, fixed={2 * n - 1: zero})
        for a, b in zip(firsts, seconds):
            assert fn(a, b[:-1]) == op(a, b[:-1] + (zero,))


def test_fixed_coordinates_compile_per_element_only():
    ring = ring_from_descriptor("cyc(3,2,1)")
    with pytest.raises(TypeError, match="per element only"):
        get_table(3, 2).compiled("prod", ring, batch=True, fixed={0: ring.zero().data})


@pytest.mark.parametrize("desc,p,n", COMPILED_SHAPES, ids=COMPILED_IDS)
def test_ghost_matches_the_oracle(desc, p, n, eval_polys):
    # w_i = sum_{j<=i} p^j x_j^(p^(i-j)) evaluated unpruned on the
    # coordinates, against the compiled ghost block of every length up to n+1
    ring = ring_from_descriptor(desc)
    rng = random.Random(f"ghost/{desc}/{n}")
    for k in range(1, n + 2):
        polys = [
            {tuple(p ** (i - j) if v == j else 0 for v in range(k)): p**j for j in range(i + 1)}
            for i in range(k)
        ]
        for _ in range(8):
            u = random_witt(ring, p, k, rng)
            assert ghost(u) == eval_polys(polys, list(u.coords))
