#!/usr/bin/env python3
"""Time the arithmetic layers of wittkit.

Seventeen layers:
  * raw kernel calls (poly_mulmod) on the contexts of real rings above the
    table cap, next to the kernel's schoolbook loop, and poly_powmod at
    e = p and e = p^2 on charp(7,0,63) and cyc(5,3,1), where each factor p
    of e is a coefficient map (poly_frobmod), not products,
  * the unit test of the quotient rings: us per is_unit on 200 seeded
    elements of cyc(3,2,1), cyc(3,3,3), cyc(5,3,2), cyc(7,2,2) and
    charp(3,0,9),
  * end-to-end Witt multiplication throughput on W_2(cyc(3,2,1)), which runs
    on the small-ring lookup tables, and on W_4(Z), which runs on plain ints,
    and (L1) wrapped against raw add/mul per call on W_2(cyc(3,2,1)),
  * raw Witt add/mul/frob above the table cap (W_3(cyc(3,2,2)),
    W_4(cyc(3,3,1)), W_3(cyc(5,3,1)), and W_2 and W_3 over charp(7,0,63),
    whose p-th powers are Frobenius maps), each operation one compiled
    function over the kernel, with the time to compile the three, and the
    same on the table ring W_4(cyc(3,1,1)) and on W_4(Z); and at the top of
    the envelope, W_5 over cyc(3,1,1), cyc(3,2,2) and Z,
  * the fixed-point solver on W_2(charp(3,0,9)), and its claimed-form
    inclusion alone (claimed_inclusion), which is all the fixed-points
    suite runs at n = 2,
  * one exhaustive exactness sweep (L2): map calls and seconds of
    exactness_report on the Witt restriction complex over cyc(3,2,1), n = 1,
  * the exhaustive freeness probe over W_2(cyc(3,2,1)) (L2): seconds, and
    its tracemalloc peak in a second run, in KiB,
  * universal-table build times (the feasibility envelope per prime, up to
    its top, (3, 5) and (5, 4), and one length past it, (3, 6) and (5, 5),
    through the WittUniversalTable constructor, which get_table's length
    cap does not bound): the table as the compiled operations read it,
  * the symbolic ghost check: ms per verify_ghost_symbolic on a fresh table
    per call, for (p, n) = (3, 4), (5, 3) and (7, 3); the check caches
    nothing on a table, so a repeat call on one table times the same work,
  * the Kahler layer: log_presentation_check on the first tuple of the
    log-presentation suite at p = 7 (an 84 x 126 system over Z/7^3, once
    the unit blocks are eliminated), torsion_is_free_rank_one(cyc(5,3,3), 1)
    (every torsion generator solved in one elimination), Omega1.mult per
    call on cyc(3,2,1) and cyc(3,4,1), and divide_exact by a non-unit, one
    solve_mod_pp each, on cyc(3,2,3) and cyc(3,4,1),
  * the per-process caches of a ring's linear algebra: ms per
    witt_divide_exact by z_2 over cyc(3,4,1) and cyc(7,2,1), as
    check_ker_F_generators divides, on the first call for the divisor (its
    elimination and annihilator built) and on repeat calls (replayed), and
    ms per omega1_for_ring with its Smith form read (invariant_factors) on
    cyc(5,3,2) and cyc(3,4,1), cold and cached,
  * the Smith normal form: ms per smith_sparse on the relation
    matrices of Omega^1 over cyc(5,3,2) (200 x 100) and cyc(3,4,1)
    (108 x 54), and ms per solve_alpha(cyc(5,3,2)), which reads Omega^1
    and its Smith form (the best of five calls, so the cached ones),
  * the batch form of the raw Witt operations: ns per element of sum and
    product, per element against batched, on W_2(cyc(3,2,1)) (index
    arrays, at the sweep chunk size) and W_3(cyc(3,2,2)) (coefficient
    arrays, at the sample chunk size), and seconds of the exhaustive
    V-additivity sweep over the 531,441 pairs of W_2(charp(3,0,3)),
  * the maps of the exact-rz complex over cyc(3,2,1) (a table ring) at
    n = 1 and over cyc(3,3,1) (above the cap) at n = 1 and 2: ns per
    element of R z on W_{n+1}, the W_n product of the restrictions (R is a
    ring map) by the constant R(z), and of F^n on W_n, the ghost component
    w_n of (w, 0),
  * the Witt operations of the tilt, through the compiled W_n(A)
    operations on each lift level: us per tilt_witt_add and tilt_witt_mul
    over the 9 Teichmuller pairs [eps^i], [eps^j] (i, j in 1..3) at
    W_3(cyc(3,4,1)), depth 3, and W_2(cyc(7,2,1)), depth 2, us per
    xi_element (a p-fold sum) at the same lengths from eps of the same
    depth, us per tilt_witt_add on the pairs at W_3(cyc(3,4,2)), where
    M = 2 and each sum stabilizes over two lifts, and us per theta_r at
    r = 3 on the three [eps^i] over cyc(3,4,1),
  * the sampled checks of the sequences suite, on batches: ms per call of
    the module law (cyc(3,2,1) at n = 1 and 2 with 100 triples, cyc(3,4,1)
    at n = 1 with 20), the F^n d Leibniz rule (n = 1, 50 samples),
    x V(y) = V(F(x) y) (n = 1, 100 samples) and V^n as a module map (n = 2,
    60 samples) over cyc(3,2,1); and us per 1000 random_payload draws over
    cyc(3,2,1) and cyc(3,2,3),
  * seeded draws: us per 1000 payloads over cyc(3,2,2), charp(3,0,3) and
    cyc(5,2,1), one random_payload at a time against one
    random_coefficients call (the coefficient array the sampled checks
    build their batches from), and seconds of one in-process
    `--suite witt-identities --budget 500000 --seed 1` run.

Every figure is the best of a few timed calls after one untimed call
(_ms_per_call), so a call that builds a cache builds it before the timing;
a figure of a first or cold call clears that cache inside the timed call.
Single timings drift by a third or more between runs on a 2-core machine.

    python benchmarks/bench_kernels.py [--json PATH]

With --json, every figure printed is also written to PATH as JSON, with the
machine's processor count and the Python version.
"""

import argparse
import json
import os
import platform
import random
import time
import tracemalloc

import numpy as np

from wittkit import _kernel, kaehler, rings
from wittkit.kaehler import (
    log_presentation_check,
    omega1_for_ring,
    solve_alpha,
    torsion_is_free_rank_one,
)
from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    random_coefficients,
    random_element,
    random_payload,
)
from wittkit.sequences import (
    SAMPLE_CHUNK,
    TwistedModule,
    check_fnd_leibniz,
    check_module_axioms,
    check_vn_module_hom,
    check_xv_identity,
    exact_rz_complex,
    exactness_report,
    witt_restriction_complex,
)
from wittkit.snf import smith_sparse
from wittkit.suites import CHUNK, SuiteConfig, suite_witt_identities
from wittkit.tate import freeness_probe
from wittkit.tilt import (
    claimed_inclusion,
    epsilon,
    frobenius_equation_solve,
    theta_r,
    tilt_teichmuller,
    tilt_witt_add,
    tilt_witt_mul,
    xi_element,
)
from wittkit.witt import (
    RawWittOps,
    WittUniversalTable,
    get_table,
    random_witt,
    raw_witt_ops,
    verify_ghost_symbolic,
    witt_add,
    witt_mul,
    witt_divide_exact,
    z_element,
)


def _ms_per_call(fn, repeat=5):
    """The best of repeat timings of fn(), in ms, after one untimed call."""
    fn()
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best * 1e3


def bench_kernel_calls():
    print("== poly_mulmod on rings above the table cap: packed vs schoolbook ==")
    figures = {}
    rng = random.Random(0)
    for ring in [
        CyclotomicTruncation(3, 2, 2),
        CyclotomicTruncation(3, 2, 3),
        CyclotomicTruncation(5, 3, 1),
        CharPQuotient(3, 0, 27),
    ]:
        d, m = ring.d, ring.m
        pairs = [
            (
                tuple(rng.randrange(m) for _ in range(d)),
                tuple(rng.randrange(m) for _ in range(d)),
            )
            for _ in range(2000)
        ]
        ctx = ring._ctx
        name = "packed" if ctx.slots is not None else "schoolbook"
        desc = ring.descriptor()
        kernel_us = _ms_per_call(
            lambda: [_kernel.poly_mulmod(a, b, ctx) for a, b in pairs]
        ) / len(pairs) * 1e3
        few = pairs[:200]
        us = _ms_per_call(lambda: [_kernel.schoolbook_mulmod(a, b, ctx) for a, b in few]) / len(few) * 1e3
        figures[f"poly_mulmod_us.{desc}.{name}"] = round(kernel_us, 2)
        figures[f"schoolbook_mulmod_us.{desc}"] = round(us, 2)
        row = [f"{desc:<14} d={d:<4} m={m:<3}"]
        row.append(f"{name}: {kernel_us:8.2f} us")
        row.append(f"schoolbook: {us:8.2f} us")
        print("  " + "   ".join(row))
    for ring in [CharPQuotient(7, 0, 63), CyclotomicTruncation(5, 3, 1)]:
        p, desc, ctx = ring.p, ring.descriptor(), ring._ctx
        elements = [random_payload(ring, rng) for _ in range(500)]
        row = [f"{desc:<14} poly_powmod"]
        for e in (p, p * p):
            us = _ms_per_call(
                lambda: [_kernel.poly_powmod(a, e, ctx) for a in elements]
            ) / len(elements) * 1e3
            figures[f"poly_powmod_us.{desc}.e{e}"] = round(us, 2)
            row.append(f"e={e}: {us:6.2f} us")
        print("  " + "   ".join(row))
    return figures


def bench_units():
    print("== is_unit per call, on 200 seeded elements ==")
    figures = {}
    rng = random.Random(19)
    for ring in [
        CyclotomicTruncation(3, 2, 1),
        CyclotomicTruncation(3, 3, 3),
        CyclotomicTruncation(5, 3, 2),
        CyclotomicTruncation(7, 2, 2),
        CharPQuotient(3, 0, 9),
    ]:
        elements = [random_element(ring, rng) for _ in range(200)]
        us = _ms_per_call(lambda: [ring.is_unit(a) for a in elements], 3) / len(elements) * 1e3
        figures[f"is_unit_us.{ring.descriptor()}"] = round(us, 1)
        print(f"  {ring.descriptor():<14} {us:8.1f} us")
    return figures


def bench_witt_mul():
    print("== Witt multiplication throughput (lookup tables and plain ints) ==")
    ring = CyclotomicTruncation(3, 2, 1)
    raw = raw_witt_ops(ring, 3, 2)
    rng = random.Random(1)
    z = raw.unwrap(z_element(ring, 2))
    ws = [raw.unwrap(random_witt(ring, 3, 2, rng)) for _ in range(5000)]
    us = _ms_per_call(lambda: [raw.mul(z, w) for w in ws]) / len(ws) * 1e3
    figures = {"z_mul_us.W2_cyc(3,2,1)": round(us, 2)}
    print(f"  W_2(cyc(3,2,1)) mul: {us:8.2f} us  "
          f"(full 531441-element sweep ~ {us * 531441 / 1e6:6.1f} s)")
    vs = [raw.wrap(w) for w in ws]
    row = []
    for name, wrapped, bare in [("add", witt_add, raw.add), ("mul", witt_mul, raw.mul)]:
        for label, fn, args in [("wrapped", wrapped, vs), ("raw", bare, ws)]:
            pairs = list(zip(args[::2], args[1::2]))
            us = _ms_per_call(lambda: [fn(u, v) for u, v in pairs]) / len(pairs) * 1e3
            figures[f"{name}_us.W2_cyc(3,2,1).{label}"] = round(us, 2)
            row.append(f"{label} {name} {us:6.2f} us")
    print("  W_2(cyc(3,2,1)) per call (L1): " + "   ".join(row))
    Z = IntegerRing()
    raw = raw_witt_ops(Z, 3, 4)
    ws = [raw.unwrap(random_witt(Z, 3, 4, rng)) for _ in range(200)]
    pairs = list(zip(ws[::2], ws[1::2]))
    us = _ms_per_call(lambda: [(raw.add(u, v), raw.mul(u, v)) for u, v in pairs]) / len(pairs) * 1e3
    figures["add_mul_us.W4_Z"] = round(us, 2)
    print(f"  W_4(Z) add+mul on plain ints: {us:8.2f} us")
    return figures


def bench_raw_ops_above_the_cap():
    print("== raw Witt ops above the table cap (one function per operation) ==")
    figures = {}
    rng = random.Random(2)
    for ring, n in [
        (CyclotomicTruncation(3, 2, 2), 3),
        (CyclotomicTruncation(3, 3, 1), 4),
        (CyclotomicTruncation(5, 3, 1), 3),
        (CharPQuotient(7, 0, 63), 2),
        (CharPQuotient(7, 0, 63), 3),
        (CyclotomicTruncation(3, 1, 1), 4),  # a table ring, for comparison
        (IntegerRing(), 4),
        # the top of the envelope at p = 3
        (CyclotomicTruncation(3, 1, 1), 5),
        (CyclotomicTruncation(3, 2, 2), 5),
        (IntegerRing(), 5),
    ]:
        p = 3 if isinstance(ring, IntegerRing) else ring.p
        table = get_table(p, n)

        def compile_all():
            table._compiled.clear()  # time the compile, not the cache
            raw = RawWittOps(ring, p, n)
            raw._sum, raw._prod, raw._frob  # W_n(Z) compiles on first use
            return raw

        compile_ms = _ms_per_call(compile_all, 3)
        raw = compile_all()
        ws = [raw.unwrap(random_witt(ring, p, n, rng)) for _ in range(40 if n < 4 else 10)]
        pairs = list(zip(ws[::2], ws[1::2]))
        label = f"W{n}_{ring.descriptor()}"
        figures[f"compile_ms.{label}"] = round(compile_ms, 1)
        row = [f"W_{n}({ring.descriptor()}): compile {compile_ms:6.1f} ms"]
        for name, fn in [("add", raw.add), ("mul", raw.mul), ("frob", lambda u, v: raw.frob(u))]:
            us = _ms_per_call(lambda: [fn(u, v) for u, v in pairs]) / len(pairs) * 1e3
            figures[f"raw_{name}_us.{label}"] = round(us, 1)
            row.append(f"{name} {us:8.1f} us")
        print("  " + "   ".join(row))
    return figures


def bench_fixed_point_solver():
    print("== fixed-point solver ==")
    ring = CharPQuotient(3, 0, 9)
    rep = frobenius_equation_solve(ring, 2)
    dt = _ms_per_call(lambda: frobenius_equation_solve(ring, 2), 2) / 1e3
    print(f"  frobenius_equation_solve(charp(3,0,9), 2): {dt:6.2f} s  "
          f"({len(rep['solutions'])} solutions, {len(rep['spurious'])} spurious)")
    inclusion = claimed_inclusion(ring, 2)
    us = _ms_per_call(lambda: claimed_inclusion(ring, 2)) * 1e3
    print(f"  claimed_inclusion(charp(3,0,9), 2) -> {inclusion['inclusion_exact']}: {us:8.0f} us")
    return {
        "fixed_point_solve_s.W2_charp(3,0,9)": round(dt, 3),
        "fixed_point_solutions.W2_charp(3,0,9)": len(rep["solutions"]),
        "fixed_point_spurious.W2_charp(3,0,9)": len(rep["spurious"]),
        "fixed_inclusion_us.n2_charp(3,0,9)": round(us, 1),
    }


def bench_exactness_sweep():
    print("== exhaustive exactness sweep (L2) ==")
    cx = witt_restriction_complex(CyclotomicTruncation(3, 2, 1), 3, 1)
    calls = [0]

    def counted(f):
        def evaluate(x):
            calls[0] += 1
            return f(x)

        return evaluate

    cx.maps = [counted(f) for f in cx.maps]

    def sweep():
        calls[0] = 0
        exactness_report(cx, budget=10**6)

    dt = _ms_per_call(sweep, 3) / 1e3
    print(f"  exactness_report({cx.name}, budget 10^6): {calls[0]} map calls, {dt:6.2f} s")
    return {
        "exactness_sweep_map_calls.restriction_n1_cyc(3,2,1)": calls[0],
        "exactness_sweep_s.restriction_n1_cyc(3,2,1)": round(dt, 3),
    }


def bench_freeness_probe():
    print("== exhaustive freeness probe (L2) ==")
    ring = CyclotomicTruncation(3, 2, 1)
    dt = _ms_per_call(lambda: freeness_probe(ring, 2), 3) / 1e3
    tracemalloc.start()
    try:
        ok = freeness_probe(ring, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"  freeness_probe(cyc(3,2,1), 2) -> {ok}: {dt:6.2f} s, "
          f"tracemalloc peak {peak / 2**10:7.1f} KiB")
    return {
        "freeness_probe_free.W2_cyc(3,2,1)": ok,
        "freeness_probe_s.W2_cyc(3,2,1)": round(dt, 3),
        "freeness_probe_peak_kib.W2_cyc(3,2,1)": round(peak / 2**10, 1),
    }


def bench_table_builds():
    print("== universal table build times (feasibility envelope) ==")
    figures = {}
    for p, n in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (5, 5), (7, 2)]:
        ms = _ms_per_call(lambda: WittUniversalTable(p, n), 3)
        figures[f"table_build_ms.p{p}n{n}"] = round(ms, 1)
        print(f"  (p={p}, n={n}): {ms:8.1f} ms")
    return figures


def bench_ghost_checks():
    print("== symbolic ghost checks ==")
    figures = {}
    for p, n in [(3, 4), (5, 3), (7, 3)]:
        fresh = [WittUniversalTable(p, n) for _ in range(6)]
        witness = verify_ghost_symbolic(fresh[-1])
        ms = _ms_per_call(lambda: verify_ghost_symbolic(fresh.pop()), len(fresh) - 1)
        figures[f"verify_ghost_symbolic_ms.p{p}n{n}"] = round(ms, 2)
        print(f"  verify_ghost_symbolic(WittUniversalTable({p}, {n})) -> {witness}: {ms:7.2f} ms")
    return figures


def bench_kaehler():
    print("== Kahler layer ==")
    p = 7
    ring = CyclotomicTruncation(p, 2, 3)
    y = (ring.zeta(2) - ring.one()) ** (ring.d // p)
    x = ring.divide_exact(ring.from_int(p), y)
    u = ring.divide_exact(y**p, ring.from_int(p))
    ok = log_presentation_check(ring, ring.from_int(p), u, x, y, 1)
    dt = _ms_per_call(lambda: log_presentation_check(ring, ring.from_int(p), u, x, y, 1), 3) / 1e3
    print(f"  log_presentation_check({ring.descriptor()}, m = {p}) -> {ok}: {dt:6.3f} s")
    figures = {
        f"log_presentation_check_s.{ring.descriptor()}": round(dt, 3),
        f"log_presentation_check_holds.{ring.descriptor()}": ok,
    }
    ring = CyclotomicTruncation(5, 3, 3)
    ms = _ms_per_call(lambda: torsion_is_free_rank_one(ring, 1), 3)
    print(f"  torsion_is_free_rank_one({ring.descriptor()}, 1): {ms:8.1f} ms")
    figures[f"torsion_is_free_rank_one_ms.{ring.descriptor()}"] = round(ms, 1)
    rng = random.Random(3)
    row = []
    for ring in [CyclotomicTruncation(3, 2, 3), CyclotomicTruncation(3, 4, 1)]:
        # b a multiple of zeta_3 - 1, so never a unit: every call solves
        pairs = []
        for _ in range(200):
            b = (ring.zeta(1) - ring.one()) * random_element(ring, rng)
            pairs.append((b * random_element(ring, rng), b))
        us = _ms_per_call(lambda: [ring.divide_exact(a, b) for a, b in pairs], 3) / len(pairs) * 1e3
        figures[f"divide_exact_us.{ring.descriptor()}"] = round(us, 1)
        row.append(f"{ring.descriptor()} {us:7.1f} us")
    print("  divide_exact by a non-unit per call: " + "   ".join(row))
    row = []
    for ring in [CyclotomicTruncation(3, 2, 1), CyclotomicTruncation(3, 4, 1)]:
        om = omega1_for_ring(ring)
        d, m = ring.d, ring.m
        pairs = [
            ([rng.randrange(m) for _ in range(d)], [rng.randrange(m) for _ in range(d)])
            for _ in range(2000)
        ]
        us = _ms_per_call(lambda: [om.mult(a, b) for a, b in pairs]) / len(pairs) * 1e3
        figures[f"omega1_mult_us.{ring.descriptor()}"] = round(us, 2)
        row.append(f"{ring.descriptor()} {us:7.2f} us")
    print("  Omega1.mult per call: " + "   ".join(row))
    return figures


def bench_cached_linear_algebra():
    print("== a ring's linear algebra, built once per process: ms per call ==")
    figures = {}
    rng = random.Random(6)
    for ring in [CyclotomicTruncation(3, 4, 1), CyclotomicTruncation(7, 2, 1)]:
        z = z_element(ring, 2)
        members = [witt_mul(z, random_witt(ring, ring.p, 2, rng)) for _ in range(6)]

        def first_division():
            rings._divisor_entry.cache_clear()  # the first division by z_2 in this process
            assert witt_divide_exact(members[0], z) is not None

        def repeat_divisions():
            assert all(witt_divide_exact(w, z) is not None for w in members[1:])

        first = _ms_per_call(first_division)
        again = _ms_per_call(repeat_divisions) / len(members[1:])
        desc = ring.descriptor()
        figures[f"witt_divide_exact_ms.z2_{desc}.first"] = round(first, 2)
        figures[f"witt_divide_exact_ms.z2_{desc}.repeat"] = round(again, 2)
        print(f"  witt_divide_exact by z_2 over {desc}: first {first:7.2f} ms, repeat {again:6.2f} ms")
    for ring in [CyclotomicTruncation(5, 3, 2), CyclotomicTruncation(3, 4, 1)]:

        def cold_omega1():
            kaehler._omega1s.clear()
            omega1_for_ring(ring).invariant_factors()

        cold = _ms_per_call(cold_omega1)
        cached = _ms_per_call(lambda: omega1_for_ring(ring).invariant_factors())
        desc = ring.descriptor()
        figures[f"omega1_for_ring_ms.{desc}.cold"] = round(cold, 2)
        figures[f"omega1_for_ring_ms.{desc}.cached"] = round(cached, 4)
        print(f"  omega1_for_ring({desc}) with its Smith form: cold {cold:7.2f} ms, cached {cached:7.4f} ms")
    return figures


def bench_snf():
    print("== Smith normal form of Omega^1's relation matrix: ms per call ==")
    figures = {}
    row = []
    for ring in [CyclotomicTruncation(5, 3, 2), CyclotomicTruncation(3, 4, 1)]:
        rel = omega1_for_ring(ring).relations
        ms = _ms_per_call(lambda: smith_sparse(rel))
        figures[f"smith_sparse_ms.{ring.descriptor()}"] = round(ms, 2)
        row.append(f"{ring.descriptor()} ({len(rel)} x {len(rel[0])}) {ms:6.2f} ms")
    ring = CyclotomicTruncation(5, 3, 2)
    ms = _ms_per_call(lambda: solve_alpha(ring))
    figures[f"solve_alpha_ms.{ring.descriptor()}"] = round(ms, 2)
    row.append(f"solve_alpha({ring.descriptor()}) {ms:6.2f} ms")
    print("  " + "   ".join(row))
    return figures


def bench_batch_ops():
    print("== batch form of the raw Witt ops: ns per element, per element vs batched ==")
    figures = {}
    rng = random.Random(4)
    for ring, n, size in [
        (CyclotomicTruncation(3, 2, 1), 2, CHUNK),
        (CyclotomicTruncation(3, 2, 2), 3, SAMPLE_CHUNK),
    ]:
        raw = raw_witt_ops(ring, 3, n)
        us = [raw.unwrap(random_witt(ring, 3, n, rng)) for _ in range(size)]
        vs = [raw.unwrap(random_witt(ring, 3, n, rng)) for _ in range(size)]
        u, v = raw.to_batch(us), raw.to_batch(vs)
        name = f"W{n}_{ring.descriptor()}"
        row = [f"W_{n}({ring.descriptor()}), batches of {size}:"]
        for op, one, many in [("add", raw.add, raw.add_batch), ("mul", raw.mul, raw.mul_batch)]:
            per = _ms_per_call(lambda: list(map(one, us, vs)), 3) / size * 1e6
            batched = _ms_per_call(lambda: many(u, v), 3) / size * 1e6
            figures[f"{op}_ns.{name}.per_element"] = round(per, 1)
            figures[f"{op}_ns.{name}.batched"] = round(batched, 1)
            row.append(f"{op} {per:7.0f} / {batched:5.0f} ns")
        print("  " + "   ".join(row))
    ring = CharPQuotient(3, 0, 3)
    raw2, raw3 = raw_witt_ops(ring, 3, 2), raw_witt_ops(ring, 3, 3)
    size = ring.cardinality() ** 2

    def v_additive():
        holds = True
        for start in range(0, size**2, CHUNK):
            at = np.arange(start, min(start + CHUNK, size**2), dtype=np.int64)
            u, v = raw2.payload_batch(at // size), raw2.payload_batch(at % size)
            zero = (np.zeros_like(at),)
            lhs = raw3.add_batch(zero + u, zero + v)
            holds &= bool(raw3.equal_batch(lhs, zero + raw2.add_batch(u, v)).all())
        return holds

    holds = v_additive()
    dt = _ms_per_call(v_additive, 3) / 1e3
    figures["v_additive_s.W2_charp(3,0,3)"] = round(dt, 3)
    figures["v_additive_holds.W2_charp(3,0,3)"] = holds
    print(f"  V(u + v) = V(u) + V(v) over all {size**2} pairs of W_2({ring.descriptor()}) "
          f"-> {holds}: {dt:6.2f} s")
    return figures


def bench_exact_rz_maps():
    print("== exact-rz maps: ns per element ==")
    figures = {}
    rng = random.Random(5)
    for ring, n, size in [
        (CyclotomicTruncation(3, 2, 1), 1, 5000),
        (CyclotomicTruncation(3, 3, 1), 1, 1000),
        (CyclotomicTruncation(3, 3, 1), 2, 200),
    ]:
        p = ring.p
        _, rz, fnbar = exact_rz_complex(ring, n)[0].maps
        ws = [random_witt(ring, p, n + 1, rng).data for _ in range(size)]
        vs = [rz(w) for w in ws]
        name = f"n{n}_{ring.descriptor()}"
        row = [f"n = {n}, {ring.descriptor()}:"]
        for op, fn, args in [("rz", rz, ws), ("fnbar", fnbar, vs)]:
            # best of 9: a call is a few ms, and single figures drift by a third
            ns = _ms_per_call(lambda: list(map(fn, args)), 9) / size * 1e6
            figures[f"{op}_ns.{name}"] = round(ns, 1)
            row.append(f"{op} {ns:6.0f} ns")
        print("  " + "   ".join(row))
    return figures


def _tilt_pairs(ring, n):
    """The 9 Teichmuller pairs [eps^i], [eps^j] (i, j in 1..3) at W_n, depth n."""
    eps = epsilon(ring, n)
    ws = [tilt_teichmuller(eps**i, n) for i in (1, 2, 3)]
    return [(u, v) for u in ws for v in ws]


def bench_tilt_ops():
    print("== tilt Witt ops on Teichmuller pairs, and xi ==")
    figures = {}
    for ring, n in [(CyclotomicTruncation(3, 4, 1), 3), (CyclotomicTruncation(7, 2, 1), 2)]:
        pairs = _tilt_pairs(ring, n)
        label = f"W{n}_{ring.descriptor()}"
        row = [f"W_{n}({ring.descriptor()}):"]
        for name, fn in [("add", tilt_witt_add), ("mul", tilt_witt_mul)]:
            us = _ms_per_call(lambda: [fn(u, v) for u, v in pairs]) / len(pairs) * 1e3
            figures[f"tilt_witt_{name}_us.{label}"] = round(us, 1)
            row.append(f"{name} {us:8.1f} us")
        us = _ms_per_call(lambda: xi_element(ring, n, n)) * 1e3
        figures[f"xi_element_us.{label}"] = round(us, 1)
        row.append(f"xi {us:8.1f} us")
        print("  " + "   ".join(row))
    ring = CyclotomicTruncation(3, 4, 2)  # M = 2: each sum stabilizes over two lifts
    pairs = _tilt_pairs(ring, 3)
    us = _ms_per_call(lambda: [tilt_witt_add(u, v) for u, v in pairs]) / len(pairs) * 1e3
    figures[f"tilt_witt_add_us.W3_{ring.descriptor()}"] = round(us, 1)
    print(f"  W_3({ring.descriptor()}):   add {us:8.1f} us")
    ring = CyclotomicTruncation(3, 4, 1)
    eps = epsilon(ring, 3)
    ws = [tilt_teichmuller(eps**i, 3) for i in (1, 2, 3)]
    us = _ms_per_call(lambda: [theta_r(w, 3) for w in ws]) / len(ws) * 1e3
    figures["theta_r_us.r3_cyc(3,4,1)"] = round(us, 1)
    print(f"  theta_r(., 3) on [eps^i] over cyc(3,4,1): {us:8.1f} us")
    return figures


def bench_sampled_checks():
    print("== sampled checks of the sequences suite, on batches: ms per call ==")
    figures = {}
    cyc321, cyc341 = CyclotomicTruncation(3, 2, 1), CyclotomicTruncation(3, 4, 1)
    c321, c341 = cyc321.descriptor(), cyc341.descriptor()
    cases = [
        (f"module_law.n1_100_{c321}", check_module_axioms, (TwistedModule(cyc321, 1),), 100),
        (f"module_law.n2_100_{c321}", check_module_axioms, (TwistedModule(cyc321, 2),), 100),
        (f"module_law.n1_20_{c341}", check_module_axioms, (TwistedModule(cyc341, 1),), 20),
        (f"fnd_leibniz.n1_50_{c321}", check_fnd_leibniz, (cyc321, 1), 50),
        (f"xv_identity.n1_100_{c321}", check_xv_identity, (cyc321, 3, 1), 100),
        (f"vn_module_hom.n2_60_{c321}", check_vn_module_hom, (cyc321, 3, 2), 60),
    ]
    for name, check, args, count in cases:

        def call(check=check, args=args, count=count):
            assert check(*args, random.Random(6), count) == []

        ms = _ms_per_call(call)
        figures[f"{name}_ms.batched"] = round(ms, 2)
        print(f"  {name:<32} {ms:6.2f} ms")
    for ring in (cyc321, CyclotomicTruncation(3, 2, 3)):
        rng = random.Random(7)
        us = _ms_per_call(lambda: [random_payload(ring, rng) for _ in range(1000)]) * 1e3
        figures[f"payload_draws_us_per_1000.{ring.descriptor()}.random_payload"] = round(us, 1)
        print(f"  1000 random_payload draws over {ring.descriptor():<12} {us:8.1f} us")
    return figures


def bench_seeded_draws():
    print("== seeded draws: us per 1000 payloads, one at a time / bulk ==")
    figures = {}
    for ring in (CyclotomicTruncation(3, 2, 2), CharPQuotient(3, 0, 3), CyclotomicTruncation(5, 2, 1)):
        d, row = ring.d, []
        for label, draw in [
            ("one_at_a_time", lambda rng: [random_payload(ring, rng) for _ in range(1000)]),
            ("bulk", lambda rng: random_coefficients(ring, rng, 1000 * d).reshape(1000, d)),
        ]:
            rng = random.Random(8)
            us = _ms_per_call(lambda: draw(rng)) * 1e3
            figures[f"draws_us_per_1000_payloads.{ring.descriptor()}.{label}"] = round(us, 1)
            row.append(f"{us:8.1f}")
        print(f"  {ring.descriptor():<14} d = {d:<3} {' / '.join(row)} us")
    cfg = SuiteConfig(suites=["witt-identities"], seed=1, budget=500000).validate()
    dt = _ms_per_call(lambda: suite_witt_identities(cfg), 3) / 1e3
    figures["witt_identities_s.budget500000_seed1"] = round(dt, 3)
    print(f"  --suite witt-identities --budget 500000 --seed 1: {dt:6.3f} s")
    return figures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--json",
        metavar="PATH",
        help="also write every printed figure here",
    )
    args = ap.parse_args()
    figures = bench_kernel_calls()
    figures.update(bench_units())
    figures.update(bench_witt_mul())
    figures.update(bench_raw_ops_above_the_cap())
    figures.update(bench_fixed_point_solver())
    figures.update(bench_exactness_sweep())
    figures.update(bench_freeness_probe())
    figures.update(bench_table_builds())
    figures.update(bench_ghost_checks())
    figures.update(bench_kaehler())
    figures.update(bench_cached_linear_algebra())
    figures.update(bench_snf())
    figures.update(bench_batch_ops())
    figures.update(bench_exact_rz_maps())
    figures.update(bench_tilt_ops())
    figures.update(bench_sampled_checks())
    figures.update(bench_seeded_draws())
    if args.json:
        record = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
        record.update(figures)
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
