"""The batch form of the raw Witt operations, against the per-element form,
and the first-witness rule of the batched witt-identities checks."""

import itertools
import random

import numpy as np
import pytest

from wittkit import witt
from wittkit.rings import ring_from_descriptor
from wittkit.sequences import SAMPLE_CHUNK, sample_chunks
from wittkit.suites import CHUNK, SuiteConfig, suite_witt_identities
from wittkit.witt import random_witt, raw_witt_ops

# (ring, Witt lengths): five shapes with lookup tables, three above the cap
# on int64 rows, and one whose modulus 3^40 needs rows of Python ints.  At
# d = 1 the split tables of charp(257,0,1) hold 257^2 entries, so the batch
# index arithmetic passes 2^16: on uint16 views of the tables, in place of
# their int64 copies, add_batch there would disagree with add.
BATCH_SHAPES = [
    ("charp(3,0,3)", (1, 2, 3, 4)),
    ("cyc(3,1,1)", (1, 2, 3)),
    ("cyc(3,2,1)", (1, 2, 3)),
    ("cyc(5,1,1)", (1, 2, 3)),
    ("charp(257,0,1)", (1, 2)),
    ("cyc(3,2,2)", (1, 2, 3)),
    ("charp(3,0,9)", (1, 2, 3)),
    ("cyc(5,3,1)", (1, 2, 3)),
    ("cyc(3,1,40)", (2,)),
]


@pytest.mark.parametrize(
    "desc,n", [(desc, n) for desc, lengths in BATCH_SHAPES for n in lengths]
)
def test_batch_ops_match_the_per_element_ops(desc, n):
    ring = ring_from_descriptor(desc)
    p = ring.p
    raw = raw_witt_ops(ring, p, n)
    assert (ring._tables is not None) == (ring.cardinality() <= 729)
    rng = random.Random(f"batch/{desc}/{n}")
    zero, one = ring.zero().data, ring.one().data
    us = [(zero,) * n, (one,) * n] + [random_witt(ring, p, n, rng).data for _ in range(30)]
    vs = [(one,) * n, (zero,) * n] + [random_witt(ring, p, n, rng).data for _ in range(30)]
    u, v = raw.to_batch(us), raw.to_batch(vs)
    assert [raw.payload_at(u, k) for k in range(len(us))] == us
    results = [(raw.add_batch(u, v), raw.add), (raw.mul_batch(u, v), raw.mul)]
    if n >= 2:
        results.append((raw.frob_batch(u), lambda a, b: raw.frob(a)))
    for batch, op in results:
        assert [raw.payload_at(batch, k) for k in range(len(us))] == list(map(op, us, vs))
    if n <= 2:  # p*w, as the suite forms it on W_2
        pw = raw.scalar_mul_batch(p, u)
        assert [raw.payload_at(pw, k) for k in range(len(us))] == [raw.scalar_mul(p, a) for a in us]


@pytest.mark.parametrize(
    "desc,n", [(desc, n) for desc, lengths in BATCH_SHAPES for n in lengths if n >= 2]
)
def test_sample_chunks_build_the_batches_of_the_per_sample_draws(desc, n):
    ring = ring_from_descriptor(desc)
    p = ring.p
    layout = (raw_witt_ops(ring, p, n), raw_witt_ops(ring, p, 1))
    rng, want_rng = random.Random(desc), random.Random(desc)
    count = SAMPLE_CHUNK + 3
    chunks = list(sample_chunks(rng, count, *layout))
    want = [(random_witt(ring, p, n, want_rng), random_witt(ring, p, 1, want_rng)) for _ in range(count)]
    assert rng.getstate() == want_rng.getstate()
    assert len(chunks) == 2
    for c, (batches, at) in enumerate(chunks):
        samples = want[c * SAMPLE_CHUNK : (c + 1) * SAMPLE_CHUNK]
        assert [at(i) for i in range(len(samples))] == samples
        for raw, batch, ws in zip(layout, batches, zip(*samples)):
            expect = raw.to_batch([w.data for w in ws])
            assert len(batch) == len(expect) == raw.n
            for a, b in zip(batch, expect):
                assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("desc,n", [("charp(3,0,2)", 2), ("cyc(3,1,1)", 3), ("cyc(3,1,2)", 1)])
def test_payload_batch_follows_the_enumeration_order(desc, n):
    ring = ring_from_descriptor(desc)
    raw = raw_witt_ops(ring, 3, n)
    count = min(500, ring.cardinality() ** n)
    first = list(itertools.islice(raw.enumerate_payloads(), count))
    batch = raw.payload_batch(np.arange(count, dtype=np.int64))
    assert [raw.payload_at(batch, k) for k in range(count)] == first


def test_payload_batch_above_the_cap_follows_the_enumeration_order():
    raw = raw_witt_ops(ring_from_descriptor("charp(3,0,9)"), 3, 2)
    at = np.array([0, 1, 2, 3**9 - 1, 3**9, 3**18 - 1], dtype=np.int64)
    want = [next(itertools.islice(raw.enumerate_payloads(), k, None)) for k in at[:5].tolist()]
    want.append(((2,) * 9, (2,) * 9))
    assert [raw.payload_at(raw.payload_batch(at), k) for k in range(len(at))] == want


@pytest.mark.parametrize("desc", ["Z"])
def test_rings_without_coefficients_have_no_batch_form(desc):
    raw = raw_witt_ops(ring_from_descriptor(desc), 3, 2)
    u = raw.unwrap(witt.witt_one(raw.ring, 3, 2))
    with pytest.raises(TypeError, match="no batch form"):
        raw.to_batch([u])
    with pytest.raises(TypeError, match="no batch form"):
        raw.add_batch(u, u)
    with pytest.raises(TypeError, match="no batch form"):
        witt.WittUniversalTable(3, 2).compiled("prod", raw.ring, batch=True)


# ring: the mark of its back end in the compiled source per element and on
# a batch: int powers over Z, which has no batch form, lookups in the tables
# of a ring at or below the cap, kernel products above it
BACK_ENDS = {
    "Z": ("**", None),
    "charp(3,0,6)": ("_I[", "_MH["),
    "cyc(3,2,2)": ("_kernel.poly_mulmod(", "_mul("),
}


@pytest.mark.parametrize(
    "desc,batch",
    [(desc, batch) for desc, marks in BACK_ENDS.items() for batch in (False, True) if marks[batch]],
)
def test_the_compile_entry_takes_the_back_end_from_the_ring(desc, batch):
    ring = ring_from_descriptor(desc)
    table = witt.WittUniversalTable(3, 2)
    per_element, mark = BACK_ENDS[desc][0], BACK_ENDS[desc][batch]
    others = [m for d, marks in BACK_ENDS.items() if d != desc for m in marks if m]
    for which in ("sum", "prod", "frob"):
        fn = table.compiled(which, ring, batch=batch)
        if which == "prod":
            src = fn.__source__
            # a batch source reads no per-element mark
            assert mark in src and (per_element in src) != batch
            assert not any(m in src for m in others)
        # an equal ring instance reads the same, and gets the cached function
        assert table.compiled(which, ring_from_descriptor(desc), batch=batch) is fn
    assert len(table._compiled) == 3


def test_a_plain_input_coordinate_is_returned_as_given(monkeypatch):
    # w_0 = x_0: the table back end returns a0 itself, with no index round
    # trip, and loads x_0 only where something else reads it
    ring, kernel_ring = ring_from_descriptor("cyc(3,2,1)"), ring_from_descriptor("cyc(3,2,1)")
    monkeypatch.setattr(kernel_ring, "_tables", None)
    src = witt.WittUniversalTable(3, 2).compiled("ghost", ring).__source__
    assert "return (a0, _E[" in src and "_E[v0]" not in src and src.count("v0 = _I[a0]") == 1
    for batch in (False, True):
        src = witt.WittUniversalTable(3, 1).compiled("ghost", ring, batch=batch).__source__
        assert src.endswith("    (a0, ) = u0\n    return (a0, )\n")
    rng = random.Random("plain-input")
    for n in (1, 2, 3):
        tables, kernel = (witt.WittUniversalTable(3, n).compiled("ghost", r) for r in (ring, kernel_ring))
        us = [random_witt(ring, 3, n, rng).data for _ in range(20)]
        assert list(map(tables, us)) == list(map(kernel, us))


def test_constants_that_fold_to_zero_leave_no_trace_in_the_source():
    # the W_2 product by (1, 0): coordinate 1 is x_1 plus constants that
    # fold to zero, so it is a1 as given, and x_0^3 y_1 (y_1 = 0) forms no
    # power of x_0; nothing reads x_0 or x_1, so neither is loaded
    ring = ring_from_descriptor("cyc(3,2,1)")
    one, zero = ring.one().data, ring.zero().data
    fn = witt.WittUniversalTable(3, 2).compiled("prod", ring, fixed={2: one, 3: zero})
    assert fn.__source__ == "def _f(u0):\n    (a0, a1, ) = u0\n    return (a0, a1, )\n"


@pytest.mark.parametrize("desc", ["cyc(3,2,1)", "charp(3,0,3)", "cyc(3,2,2)", "charp(5,0,3)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_coordinates_compute_as_the_operation_without_them(desc, n):
    # a compile with fixed coordinates, zeros and ones among them, is the
    # compile without them called with those constants in place
    ring = ring_from_descriptor(desc)
    table = witt.WittUniversalTable(ring.p, n)
    one, zero = ring.one().data, ring.zero().data
    rng = random.Random(f"fixed {desc} {n}")
    zs = [random_witt(ring, ring.p, n, rng).data for _ in range(20)]
    for which in ("sum", "prod"):
        plain = table.compiled(which, ring)
        for fixed in ({n: one}, {n: zero}, {0: zero}, {n: one, 2 * n - 1: zero}):
            fn = table.compiled(which, ring, fixed=fixed)
            for x, y in zip(zs, zs[1:] + zs[:1]):
                coords = list(x + y)
                for vi, c in fixed.items():
                    coords[vi] = c
                # each operand without its fixed coordinates; one fixed whole goes
                ops = [
                    tuple(c for vi, c in enumerate(coords) if vi // n == k and vi not in fixed)
                    for k in (0, 1)
                ]
                args = [op for op in ops if op]
                assert fn(*args) == plain(tuple(coords[:n]), tuple(coords[n:])), fixed


def test_rings_of_one_table_shape_share_their_compiled_functions():
    # charp(3,0,6) and charp(3,1,2) are unequal rings on the same tables
    table = witt.WittUniversalTable(3, 2)
    a, b = ring_from_descriptor("charp(3,0,6)"), ring_from_descriptor("charp(3,1,2)")
    assert a != b and a._tables is b._tables
    for batch in (False, True):
        assert table.compiled("prod", a, batch=batch) is table.compiled("prod", b, batch=batch)
    assert len(table._compiled) == 2


# --- the first-witness rule --------------------------------------------------


def _per_element_witnesses(cfg, draws):
    """The witnesses of the batched checks, by one loop per element in
    enumeration or sample order over the samples that witt_identity_draws
    draws one at a time: the form these checks took before they ran as
    batches."""
    p = cfg.p
    V, R, F = witt.verschiebung, witt.restriction, witt.frobenius
    out = {}
    charp = ring_from_descriptor(f"charp({p},0,3)")
    cyc = ring_from_descriptor(f"cyc({p},{min(cfg.N, 2)},{max(cfg.M, 2)})")
    for ring, mode in ((charp, "exhaustive"), (cyc, "sampled")):
        desc = ring.descriptor()
        raw2, raw3 = raw_witt_ops(ring, p, 2), raw_witt_ops(ring, p, 3)
        zero = ring.zero().data
        ys = draws[desc, 2]
        if mode == "exhaustive":
            out[f"fv-eq-p-{desc}"] = [
                w
                for w in raw2.enumerate_payloads()
                if raw3.frob((zero,) + w) != raw2.scalar_mul(p, w)
            ][:1]
            if ring.cardinality() ** 4 <= cfg.budget:
                pairs = itertools.product(raw2.enumerate_payloads(), repeat=2)
            else:
                pairs = ((u.data, v.data) for u, v in zip(ys[:2000:2], ys[1:2000:2]))
                ys = ys[2000:]
            bad = (
                (u, v)
                for u, v in pairs
                if raw3.add((zero,) + u, (zero,) + v) != (zero,) + raw2.add(u, v)
            )
            out[f"v-additive-{desc}"] = list(itertools.islice(bad, 1))
        xs = draws[desc, 3]
        assert len(xs) == len(ys) == (1000 if mode == "sampled" else 200)
        xv = [("xV(y)", x, y) for x, y in zip(xs, ys) if x * V(y) != V(F(x) * y)]
        rf = [("RF=FR", x) for x in xs if R(F(x)) != F(R(x))]
        out[f"xv-identity-{desc}"], out[f"rf-commute-{desc}"] = xv[:1], rf[:1]
        if mode == "sampled":
            fvp = [("FV=p", y) for y in ys if F(V(y)) != witt.witt_scalar_mul(p, y)]
            out[f"fv-eq-p-{desc}"] = fvp[:1]
    return {key: [str(w) for w in ws] for key, ws in out.items()}


def test_batched_v_additive_reports_the_first_failing_pair_of_a_later_chunk(
    corrupt, witt_identity_draws
):
    cfg = SuiteConfig(suites=["witt-identities"], seed=7).validate()
    ring = ring_from_descriptor("charp(3,0,3)")
    raw2 = raw_witt_ops(ring, 3, 2)
    size = ring.cardinality() ** 2
    assert size**2 <= cfg.budget  # the pairs are swept exhaustively
    payloads = list(raw2.enumerate_payloads())
    # two bad pairs: one in the second chunk, one in the fourth
    first, later = CHUNK + 5, 3 * CHUNK + 1
    targets = [(payloads[k // size], payloads[k % size]) for k in (later, first)]
    corrupt(raw2, "add", targets)
    rep, draws = suite_witt_identities(cfg), witt_identity_draws(cfg)
    got = {c.check_id: [str(w) for w in c.witnesses] for c in rep.checks}
    assert got["v-additive-charp(3,0,3)"] == [str(targets[1])]
    for check_id, witnesses in _per_element_witnesses(cfg, draws).items():
        assert got[check_id] == witnesses, check_id


def test_batched_samples_report_the_first_failing_sample(corrupt, witt_identity_draws):
    cfg = SuiteConfig(suites=["witt-identities"], seed=7, budget=500000).validate()
    draws = witt_identity_draws(cfg)
    charp = ring_from_descriptor("charp(3,0,3)")
    cyc = ring_from_descriptor("cyc(3,2,2)")
    c2, c3 = raw_witt_ops(charp, 3, 2), raw_witt_ops(charp, 3, 3)
    y2, y3 = raw_witt_ops(cyc, 3, 2), raw_witt_ops(cyc, 3, 3)
    c0, y0 = (charp.zero().data,), (cyc.zero().data,)
    pairs, cxs = draws["charp(3,0,3)", 2], draws["charp(3,0,3)", 3]
    ys, xs = draws["cyc(3,2,2)", 2], draws["cyc(3,2,2)", 3]
    payloads = list(c2.enumerate_payloads())
    # two bad samples per check, the later one named first; 270 and 300 sit
    # in the second batch of samples
    assert SAMPLE_CHUNK < 270 < 300 < 2 * SAMPLE_CHUNK
    corrupt(c3, "frob", [(c0 + payloads[k],) for k in (300, 100)])
    sampled_pairs = [(pairs[2 * k].data, pairs[2 * k + 1].data) for k in (600, 270)]
    corrupt(c2, "add", sampled_pairs)
    corrupt(c2, "frob", [(cxs[k].data[:-1],) for k in (4, 3)])
    corrupt(y3, "mul", [(xs[k].data, y0 + ys[k].data) for k in (700, 300)])
    corrupt(y2, "frob", [(xs[k].data[:-1],) for k in (5, 2)])
    corrupt(y3, "frob", [(y0 + ys[k].data,) for k in (9, 4)])
    rep = suite_witt_identities(cfg)
    got = {c.check_id: [str(w) for w in c.witnesses] for c in rep.checks}
    assert got["fv-eq-p-charp(3,0,3)"] == [str(payloads[100])]
    assert got["v-additive-charp(3,0,3)"] == [str(sampled_pairs[1])]
    assert got["rf-commute-charp(3,0,3)"] == [str(("RF=FR", cxs[3]))]
    assert got["xv-identity-cyc(3,2,2)"] == [str(("xV(y)", xs[300], ys[300]))]
    assert got["rf-commute-cyc(3,2,2)"] == [str(("RF=FR", xs[2]))]
    assert got["fv-eq-p-cyc(3,2,2)"] == [str(("FV=p", ys[4]))]
    for check_id, witnesses in _per_element_witnesses(cfg, draws).items():
        assert got[check_id] == witnesses, check_id
