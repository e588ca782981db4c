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
    its tracemalloc peak in a second run,
  * universal-table build times (the feasibility envelope per prime, up to
    its top, (3, 5) and (5, 4), and one length past it, (3, 6) and (5, 5),
    through the WittUniversalTable constructor, which get_table's length
    cap does not bound): the table as the compiled operations read it,
  * the symbolic ghost check: ms per verify_ghost_symbolic on the tables
    of (p, n) = (3, 4), (5, 3) and (7, 3), the first call on a fresh table
    and the median of five calls after it (warm),
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
    element of R z on W_{n+1} and F^n on W_n, as the W_{n+1} product with
    its top coordinate dropped against the W_n product of the restrictions
    (R is a ring map), and as n compiled Frobenius maps against the ghost
    component w_n,
  * the Witt operations of the tilt, through the compiled W_n(A)
    operations on each lift level: us per tilt_witt_add and tilt_witt_mul
    over the 9 Teichmuller pairs [eps^i], [eps^j] (i, j in 1..3) at
    W_3(cyc(3,4,1)), depth 3, and W_2(cyc(7,2,1)), depth 2, us per
    xi_element (a p-fold sum) at the same lengths from eps of the same
    depth, us per tilt_witt_add on the pairs at W_3(cyc(3,4,2)), where
    M = 2 and each sum stabilizes over two lifts, and us per theta_r at
    r = 3 on the three [eps^i] over cyc(3,4,1),
  * the sampled checks of the sequences suite: ms per call of the module
    law (cyc(3,2,1) at n = 1 and 2 with 100 triples, cyc(3,4,1) at n = 1
    with 20), the F^n d Leibniz rule (n = 1, 50 samples), x V(y) = V(F(x) y)
    (n = 1, 100 samples) and V^n as a module map (n = 2, 60 samples) over
    cyc(3,2,1), each as the per-element loop it ran as before and as run
    on batches now, from the same draws; and us per 1000 payload draws
    over cyc(3,2,1) and cyc(3,2,3), one randrange per coefficient against
    random_payload,
  * seeded draws: us per 1000 payloads over cyc(3,2,2), charp(3,0,3) and
    cyc(5,2,1), one random_payload at a time against one
    random_coefficients call (the coefficient array the sampled checks
    build their batches from), and seconds of one in-process
    `--suite witt-identities --budget 500000 --seed 1` run (warm: best of
    three after one untimed run).

    python benchmarks/bench_kernels.py [--json PATH]

With --json, every figure printed is also written to PATH as JSON, with the
machine's processor count and the Python version.
"""

import argparse
import functools
import json
import os
import platform
import random
import statistics
import time
import tracemalloc

import numpy as np

from wittkit import _kernel, kaehler, rings
from wittkit.kaehler import (
    fn_d,
    log_presentation_check,
    omega1_for_ring,
    solve_alpha,
    torsion_is_free_rank_one,
)
from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    RingElement,
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
    frobenius,
    frobenius_power,
    get_table,
    ghost_component,
    ghost_terms,
    random_witt,
    raw_witt_ops,
    teichmuller,
    verify_ghost_symbolic,
    verschiebung,
    witt_add,
    witt_mul,
    witt_divide_exact,
    witt_one,
    z_element,
)


def _time_per_call(fn, pairs, ctx):
    t0 = time.perf_counter()
    for a, b in pairs:
        fn(a, b, ctx)
    return (time.perf_counter() - t0) / len(pairs)


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
        kernel_dt = _time_per_call(_kernel.poly_mulmod, pairs, ctx)
        dt = _time_per_call(_kernel.schoolbook_mulmod, pairs[:200], ctx)
        figures[f"poly_mulmod_us.{desc}.{name}"] = round(kernel_dt * 1e6, 2)
        figures[f"schoolbook_mulmod_us.{desc}"] = round(dt * 1e6, 2)
        row = [f"{desc:<14} d={d:<4} m={m:<3}"]
        row.append(f"{name}: {kernel_dt * 1e6:8.2f} us")
        row.append(f"schoolbook: {dt * 1e6:8.2f} us")
        print("  " + "   ".join(row))
    for ring in [CharPQuotient(7, 0, 63), CyclotomicTruncation(5, 3, 1)]:
        p, desc = ring.p, ring.descriptor()
        elements = [random_payload(ring, rng) for _ in range(500)]
        row = [f"{desc:<14} poly_powmod"]
        for e in (p, p * p):
            t0 = time.perf_counter()
            for a in elements:
                _kernel.poly_powmod(a, e, ring._ctx)
            us = (time.perf_counter() - t0) / len(elements) * 1e6
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
        us = _ns_per_element(lambda: [ring.is_unit(a) for a in elements], len(elements)) / 1e3
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
    t0 = time.perf_counter()
    for w in ws:
        raw.mul(z, w)
    dt = (time.perf_counter() - t0) / len(ws)
    figures = {"z_mul_us.W2_cyc(3,2,1)": round(dt * 1e6, 2)}
    print(f"  W_2(cyc(3,2,1)) mul: {dt * 1e6:8.2f} us  "
          f"(full 531441-element sweep ~ {dt * 531441:6.1f} s)")
    vs = [raw.wrap(w) for w in ws]
    row = []
    for name, wrapped, bare in [("add", witt_add, raw.add), ("mul", witt_mul, raw.mul)]:
        for label, fn, args in [("wrapped", wrapped, vs), ("raw", bare, ws)]:
            t0 = time.perf_counter()
            for u, v in zip(args[::2], args[1::2]):
                fn(u, v)
            dt = (time.perf_counter() - t0) / (len(args) // 2)
            figures[f"{name}_us.W2_cyc(3,2,1).{label}"] = round(dt * 1e6, 2)
            row.append(f"{label} {name} {dt * 1e6:6.2f} us")
    print("  W_2(cyc(3,2,1)) per call (L1): " + "   ".join(row))
    Z = IntegerRing()
    raw = raw_witt_ops(Z, 3, 4)
    ws = [raw.unwrap(random_witt(Z, 3, 4, rng)) for _ in range(200)]
    raw.mul(raw.add(ws[0], ws[1]), ws[1])  # compile on first use, untimed
    t0 = time.perf_counter()
    for u, v in zip(ws[::2], ws[1::2]):
        raw.add(u, v)
        raw.mul(u, v)
    dt = (time.perf_counter() - t0) / (len(ws) // 2)
    figures["add_mul_us.W4_Z"] = round(dt * 1e6, 2)
    print(f"  W_4(Z) add+mul on plain ints: {dt * 1e6:8.2f} us")
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
        table._compiled.clear()  # time the compile, not the cache
        t0 = time.perf_counter()
        raw = RawWittOps(ring, p, n)
        raw._sum, raw._prod, raw._frob  # W_n(Z) compiles on first use
        compile_ms = (time.perf_counter() - t0) * 1e3
        ws = [raw.unwrap(random_witt(ring, p, n, rng)) for _ in range(40 if n < 4 else 10)]
        pairs = list(zip(ws[::2], ws[1::2]))
        label = f"W{n}_{ring.descriptor()}"
        figures[f"compile_ms.{label}"] = round(compile_ms, 1)
        row = [f"W_{n}({ring.descriptor()}): compile {compile_ms:6.1f} ms"]
        for name, fn in [("add", raw.add), ("mul", raw.mul), ("frob", lambda u, v: raw.frob(u))]:
            t0 = time.perf_counter()
            for u, v in pairs:
                fn(u, v)
            us = (time.perf_counter() - t0) / len(pairs) * 1e6
            figures[f"raw_{name}_us.{label}"] = round(us, 1)
            row.append(f"{name} {us:8.1f} us")
        print("  " + "   ".join(row))
    return figures


def bench_fixed_point_solver():
    print("== fixed-point solver ==")
    ring = CharPQuotient(3, 0, 9)
    raw_witt_ops(ring, 3, 2)  # compile outside the timing
    t0 = time.perf_counter()
    rep = frobenius_equation_solve(ring, 2)
    dt = time.perf_counter() - t0
    print(f"  frobenius_equation_solve(charp(3,0,9), 2): {dt:6.2f} s  "
          f"({len(rep['solutions'])} solutions, {len(rep['spurious'])} spurious)")
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        inclusion = claimed_inclusion(ring, 2)
        times.append(time.perf_counter() - t0)
    us = statistics.median(times) * 1e6
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
    t0 = time.perf_counter()
    exactness_report(cx, budget=10**6)
    dt = time.perf_counter() - t0
    print(f"  exactness_report({cx.name}, budget 10^6): {calls[0]} map calls, {dt:6.2f} s")
    return {
        "exactness_sweep_map_calls.restriction_n1_cyc(3,2,1)": calls[0],
        "exactness_sweep_s.restriction_n1_cyc(3,2,1)": round(dt, 3),
    }


def bench_freeness_probe():
    print("== exhaustive freeness probe (L2) ==")
    ring = CyclotomicTruncation(3, 2, 1)
    raw_witt_ops(ring, 3, 2)  # compile outside the timing
    t0 = time.perf_counter()
    ok = freeness_probe(ring, 2)
    dt = time.perf_counter() - t0
    tracemalloc.start()
    try:
        freeness_probe(ring, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"  freeness_probe(cyc(3,2,1), 2) -> {ok}: {dt:6.2f} s, "
          f"tracemalloc peak {peak / 2**20:7.2f} MiB")
    return {
        "freeness_probe_free.W2_cyc(3,2,1)": ok,
        "freeness_probe_s.W2_cyc(3,2,1)": round(dt, 3),
        "freeness_probe_peak_mib.W2_cyc(3,2,1)": round(peak / 2**20, 2),
    }


def bench_table_builds():
    print("== universal table build times (feasibility envelope) ==")
    figures = {}
    for p, n in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (5, 5), (7, 2)]:
        t0 = time.perf_counter()
        WittUniversalTable(p, n)
        ms = (time.perf_counter() - t0) * 1e3
        figures[f"table_build_ms.p{p}n{n}"] = round(ms, 1)
        print(f"  (p={p}, n={n}): {ms:8.1f} ms")
    return figures


def bench_ghost_checks():
    print("== symbolic ghost checks ==")
    figures = {}
    for p, n in [(3, 4), (5, 3), (7, 3)]:
        table = WittUniversalTable(p, n)
        times = []
        for _ in range(6):
            t0 = time.perf_counter()
            witness = verify_ghost_symbolic(table)
            times.append(time.perf_counter() - t0)
        first, warm = times[0] * 1e3, statistics.median(times[1:]) * 1e3
        figures[f"verify_ghost_symbolic_ms.p{p}n{n}"] = round(first, 2)
        figures[f"verify_ghost_symbolic_ms.p{p}n{n}.warm"] = round(warm, 2)
        print(f"  verify_ghost_symbolic(WittUniversalTable({p}, {n})) -> {witness}: "
              f"{first:7.2f} ms first, {warm:7.2f} ms warm")
    return figures


def bench_kaehler():
    print("== Kahler layer ==")
    p = 7
    ring = CyclotomicTruncation(p, 2, 3)
    y = (ring.zeta(2) - ring.one()) ** (ring.d // p)
    x = ring.divide_exact(ring.from_int(p), y)
    u = ring.divide_exact(y**p, ring.from_int(p))
    t0 = time.perf_counter()
    ok = log_presentation_check(ring, ring.from_int(p), u, x, y, 1)
    dt = time.perf_counter() - t0
    print(f"  log_presentation_check({ring.descriptor()}, m = {p}) -> {ok}: {dt:6.3f} s")
    figures = {
        f"log_presentation_check_s.{ring.descriptor()}": round(dt, 3),
        f"log_presentation_check_holds.{ring.descriptor()}": ok,
    }
    ring = CyclotomicTruncation(5, 3, 3)
    ms = _ns_per_element(lambda: torsion_is_free_rank_one(ring, 1), 1) / 1e6
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
        us = _ns_per_element(
            lambda: [ring.divide_exact(a, b) for a, b in pairs], len(pairs)
        ) / 1e3
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
        t0 = time.perf_counter()
        for a, b in pairs:
            om.mult(a, b)
        dt = (time.perf_counter() - t0) / len(pairs)
        figures[f"omega1_mult_us.{ring.descriptor()}"] = round(dt * 1e6, 2)
        row.append(f"{ring.descriptor()} {dt * 1e6:7.2f} us")
    print("  Omega1.mult per call: " + "   ".join(row))
    return figures


def bench_cached_linear_algebra(repeat=5):
    print("== a ring's linear algebra, built once per process: ms per call ==")
    figures = {}
    rng = random.Random(6)
    for ring in [CyclotomicTruncation(3, 4, 1), CyclotomicTruncation(7, 2, 1)]:
        z = z_element(ring, 2)
        members = [witt_mul(z, random_witt(ring, ring.p, 2, rng)) for _ in range(repeat + 1)]
        rings._divisors.clear()  # the first division by z_2 in this process
        t0 = time.perf_counter()
        assert witt_divide_exact(members[0], z) is not None
        first = (time.perf_counter() - t0) * 1e3
        again = []
        for w in members[1:]:
            t0 = time.perf_counter()
            assert witt_divide_exact(w, z) is not None
            again.append((time.perf_counter() - t0) * 1e3)
        again = statistics.median(again)
        desc = ring.descriptor()
        figures[f"witt_divide_exact_ms.z2_{desc}.first"] = round(first, 2)
        figures[f"witt_divide_exact_ms.z2_{desc}.repeat"] = round(again, 2)
        print(f"  witt_divide_exact by z_2 over {desc}: first {first:7.2f} ms, repeat {again:6.2f} ms")
    for ring in [CyclotomicTruncation(5, 3, 2), CyclotomicTruncation(3, 4, 1)]:
        kaehler._omega1s.clear()
        t0 = time.perf_counter()
        omega1_for_ring(ring).invariant_factors()
        cold = (time.perf_counter() - t0) * 1e3
        cached = _ns_per_element(lambda: omega1_for_ring(ring).invariant_factors(), 1) / 1e6
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
        ms = _ns_per_element(lambda: smith_sparse(rel), 1, repeat=5) / 1e6
        figures[f"smith_sparse_ms.{ring.descriptor()}"] = round(ms, 2)
        row.append(f"{ring.descriptor()} ({len(rel)} x {len(rel[0])}) {ms:6.2f} ms")
    ring = CyclotomicTruncation(5, 3, 2)
    ms = _ns_per_element(lambda: solve_alpha(ring), 1, repeat=5) / 1e6
    figures[f"solve_alpha_ms.{ring.descriptor()}"] = round(ms, 2)
    row.append(f"solve_alpha({ring.descriptor()}) {ms:6.2f} ms")
    print("  " + "   ".join(row))
    return figures


def _ns_per_element(fn, count, repeat=3):
    """The best of repeat timings of fn(), in ns per element of count."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / count * 1e9


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
        raw.add_batch(u, v), raw.mul_batch(u, v)  # compile on first use, untimed
        name = f"W{n}_{ring.descriptor()}"
        row = [f"W_{n}({ring.descriptor()}), batches of {size}:"]
        for op, one, many in [("add", raw.add, raw.add_batch), ("mul", raw.mul, raw.mul_batch)]:
            per = _ns_per_element(lambda: list(map(one, us, vs)), size)
            batched = _ns_per_element(lambda: many(u, v), size)
            figures[f"{op}_ns.{name}.per_element"] = round(per, 1)
            figures[f"{op}_ns.{name}.batched"] = round(batched, 1)
            row.append(f"{op} {per:7.0f} / {batched:5.0f} ns")
        print("  " + "   ".join(row))
    ring = CharPQuotient(3, 0, 3)
    raw2, raw3 = raw_witt_ops(ring, 3, 2), raw_witt_ops(ring, 3, 3)
    size = ring.cardinality() ** 2
    t0 = time.perf_counter()
    holds = True
    for start in range(0, size**2, CHUNK):
        at = np.arange(start, min(start + CHUNK, size**2), dtype=np.int64)
        u, v = raw2.payload_batch(at // size), raw2.payload_batch(at % size)
        zero = (np.zeros_like(at),)
        lhs = raw3.add_batch(zero + u, zero + v)
        holds &= bool(raw3.equal_batch(lhs, zero + raw2.add_batch(u, v)).all())
    dt = time.perf_counter() - t0
    figures["v_additive_s.W2_charp(3,0,3)"] = round(dt, 3)
    figures["v_additive_holds.W2_charp(3,0,3)"] = holds
    print(f"  V(u + v) = V(u) + V(v) over all {size**2} pairs of W_2({ring.descriptor()}) "
          f"-> {holds}: {dt:6.2f} s")
    return figures


def bench_exact_rz_maps():
    print("== exact-rz maps: ns per element, old form / new form ==")
    figures = {}
    rng = random.Random(5)
    for ring, n, size in [
        (CyclotomicTruncation(3, 2, 1), 1, 5000),
        (CyclotomicTruncation(3, 3, 1), 1, 1000),
        (CyclotomicTruncation(3, 3, 1), 2, 200),
    ]:
        p, zero, pk = ring.p, ring.zero().data, min(ring.p**n, ring.m)
        _, rz, fnbar = exact_rz_complex(ring, n)[0].maps
        z, raw = z_element(ring, n + 1).data, raw_witt_ops(ring, p, n + 1)

        def rz_by_the_long_product(w):
            return raw.mul(z, w)[:-1]

        def fnbar_by_frobenius(w):
            w += (zero,)
            for k in range(n):
                w = raw_witt_ops(ring, p, n + 1 - k).frob(w)
            return tuple(c % pk for c in w[0])

        ws = [random_witt(ring, p, n + 1, rng).data for _ in range(size)]
        vs = [rz(w) for w in ws]
        name = f"n{n}_{ring.descriptor()}"
        row = [f"n = {n}, {ring.descriptor()}:"]
        for op, old, new, args in [
            ("rz", rz_by_the_long_product, rz, ws),
            ("fnbar", fnbar_by_frobenius, fnbar, vs),
        ]:
            before = _ns_per_element(lambda: list(map(old, args)), size)
            after = _ns_per_element(lambda: list(map(new, args)), size)
            figures[f"{op}_ns.{name}.old"] = round(before, 1)
            figures[f"{op}_ns.{name}.new"] = round(after, 1)
            row.append(f"{op} {before:7.0f} / {after:6.0f} ns")
        print("  " + "   ".join(row))
    return figures


def _tilt_pairs(ring, n):
    """The 9 Teichmuller pairs [eps^i], [eps^j] (i, j in 1..3) at W_n, depth n."""
    eps = epsilon(ring, n)
    ws = [tilt_teichmuller(eps**i, n) for i in (1, 2, 3)]
    return [(u, v) for u in ws for v in ws]


def _us_per_pair(fn, pairs, repeat):
    fn(*pairs[0])  # compile the Witt operations outside the timing
    t0 = time.perf_counter()
    for _ in range(repeat):
        for u, v in pairs:
            fn(u, v)
    return (time.perf_counter() - t0) / (repeat * len(pairs)) * 1e6


def bench_tilt_ops(repeat=5):
    print("== tilt Witt ops on Teichmuller pairs, and xi ==")
    figures = {}
    for ring, n in [(CyclotomicTruncation(3, 4, 1), 3), (CyclotomicTruncation(7, 2, 1), 2)]:
        pairs = _tilt_pairs(ring, n)
        label = f"W{n}_{ring.descriptor()}"
        row = [f"W_{n}({ring.descriptor()}):"]
        for name, fn in [("add", tilt_witt_add), ("mul", tilt_witt_mul)]:
            us = _us_per_pair(fn, pairs, repeat)
            figures[f"tilt_witt_{name}_us.{label}"] = round(us, 1)
            row.append(f"{name} {us:8.1f} us")
        xi_element(ring, n, n)  # compile and build outside the timing
        t0 = time.perf_counter()
        for _ in range(repeat):
            xi_element(ring, n, n)
        us = (time.perf_counter() - t0) / repeat * 1e6
        figures[f"xi_element_us.{label}"] = round(us, 1)
        row.append(f"xi {us:8.1f} us")
        print("  " + "   ".join(row))
    ring = CyclotomicTruncation(3, 4, 2)  # M = 2: each sum stabilizes over two lifts
    us = _us_per_pair(tilt_witt_add, _tilt_pairs(ring, 3), repeat)
    figures[f"tilt_witt_add_us.W3_{ring.descriptor()}"] = round(us, 1)
    print(f"  W_3({ring.descriptor()}):   add {us:8.1f} us")
    ring = CyclotomicTruncation(3, 4, 1)
    eps = epsilon(ring, 3)
    ws = [tilt_teichmuller(eps**i, 3) for i in (1, 2, 3)]
    theta_r(ws[0], 3)  # compile any Witt operation it uses outside the timing
    t0 = time.perf_counter()
    for _ in range(repeat * 3):
        for w in ws:
            theta_r(w, 3)
    us = (time.perf_counter() - t0) / (repeat * 3 * len(ws)) * 1e6
    figures["theta_r_us.r3_cyc(3,4,1)"] = round(us, 1)
    print(f"  theta_r(., 3) on [eps^i] over cyc(3,4,1): {us:8.1f} us")
    return figures


# --- the sampled checks of the sequences suite, per element and batched ----


def _action_per_element(tm, y, m):
    """The twisted action on one element, on payloads: the form the module
    law was checked in before it ran on batches."""
    ring, n, omega = tm.ring, tm.n, tm.omega
    p, u, alpha, a = ring.p, y.data, m[0], m[1]
    powers = [ring._pow(c, p ** (n - i) - 1) for i, c in enumerate(u[:n])]
    fnd = list(omega.d_of(u[n]))
    for x, c in zip(powers, u):
        fnd = [s + t for s, t in zip(fnd, ring._mul(x, tuple(omega.d_of(c))))]
    t = ghost_terms(ring, p, n)
    fny = ghost_component(ring, p, u[:t], n, [*map(ring._mul, powers[:t], u), *u[n:t]])
    fnd = tuple(c % ring.m for c in fnd)
    part1 = ring._sub(ring._mul(fny, omega._canonical(alpha)), ring._mul(a.data, fnd))
    return part1, RingElement(ring, fny) * a


def _module_axioms_per_element(tm, rng, triples):
    ring, n = tm.ring, tm.n
    p = ring.p
    act = functools.partial(_action_per_element, tm)
    failures = []
    for _ in range(triples):
        y, z = random_witt(ring, p, n + 1, rng), random_witt(ring, p, n + 1, rng)
        m = tm.random_element(rng)
        if not tm.eq(act(witt_mul(y, z), m), act(y, act(z, m))):
            failures.append(("associativity", y, z, m))
            continue
        ym, zm = act(y, m), act(z, m)
        total = tuple((s + t) % ring.m for s, t in zip(ym[0], zm[0])), ym[1] + zm[1]
        if not tm.eq(act(witt_add(y, z), m), total):
            failures.append(("distributivity", y, z, m))
    one = witt_one(ring, p, n + 1)
    m = tm.random_element(rng)
    if not tm.eq(act(one, m), m):
        failures.append(("identity", one, None, m))
    return failures


def _fnd_leibniz_per_element(ring, n, rng, samples):
    omega, p, bad = omega1_for_ring(ring), ring.p, []
    for _ in range(samples):
        x, w = random_witt(ring, p, n + 1, rng), random_witt(ring, p, n + 1, rng)
        fx, fw = frobenius_power(x, n).coords[0], frobenius_power(w, n).coords[0]
        rhs = [
            (a + b) % ring.m
            for a, b in zip(omega.mult(fw, fn_d(x, omega)), omega.mult(fx, fn_d(w, omega)))
        ]
        if not omega.eq(fn_d(witt_mul(x, w), omega), rhs):
            bad.append((x, w))
    return bad


def _xv_identity_per_element(ring, p, n, rng, samples):
    bad = []
    for _ in range(samples):
        x, y = random_witt(ring, p, n + 1, rng), random_witt(ring, p, n, rng)
        if witt_mul(x, verschiebung(y)) != verschiebung(witt_mul(frobenius(x), y)):
            bad.append((x, y))
    return bad


def _vn_module_hom_per_element(ring, p, n, rng, samples):
    bad = []
    for _ in range(samples):
        x, a = random_witt(ring, p, n + 1, rng), random_element(ring, rng)
        lhs, rhs = teichmuller(a, p, 1), teichmuller(frobenius_power(x, n).coords[0] * a, p, 1)
        for _ in range(n):
            lhs, rhs = verschiebung(lhs), verschiebung(rhs)
        if witt_mul(x, lhs) != rhs:
            bad.append((x, a))
    return bad


def _ms_per_call(fn, repeat):
    """The best of repeat timings of fn(), in ms, after one untimed call."""
    fn()
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best * 1e3


def bench_sampled_checks(repeat=5):
    print("== sampled checks of the sequences suite: ms per call, per element / batched ==")
    figures = {}
    cyc321, cyc341 = CyclotomicTruncation(3, 2, 1), CyclotomicTruncation(3, 4, 1)
    tms = {(r, n): TwistedModule(r, n) for r, n in [(cyc321, 1), (cyc321, 2), (cyc341, 1)]}
    module_law = (check_module_axioms, _module_axioms_per_element)
    leibniz = (check_fnd_leibniz, _fnd_leibniz_per_element)
    xv = (check_xv_identity, _xv_identity_per_element)
    vn = (check_vn_module_hom, _vn_module_hom_per_element)
    c321, c341 = cyc321.descriptor(), cyc341.descriptor()
    cases = [
        (f"module_law.n1_100_{c321}", *module_law, (tms[cyc321, 1],), 100),
        (f"module_law.n2_100_{c321}", *module_law, (tms[cyc321, 2],), 100),
        (f"module_law.n1_20_{c341}", *module_law, (tms[cyc341, 1],), 20),
        (f"fnd_leibniz.n1_50_{c321}", *leibniz, (cyc321, 1), 50),
        (f"xv_identity.n1_100_{c321}", *xv, (cyc321, 3, 1), 100),
        (f"vn_module_hom.n2_60_{c321}", *vn, (cyc321, 3, 2), 60),
    ]
    for name, batched, per_element, args, count in cases:
        times, states = [], []
        for fn in (per_element, batched):

            def call(fn=fn):
                rng = random.Random(6)
                assert fn(*args, rng, count) == []
                states.append(rng.getstate())

            times.append(_ms_per_call(call, repeat))
        assert all(state == states[0] for state in states)  # both forms draw alike
        figures[f"{name}_ms.per_element"] = round(times[0], 2)
        figures[f"{name}_ms.batched"] = round(times[1], 2)
        print(f"  {name:<32} {times[0]:7.2f} / {times[1]:6.2f} ms")
    # payload draws: one randrange per coefficient, against random_payload
    for ring in (cyc321, CyclotomicTruncation(3, 2, 3)):
        m, d = ring.m, ring.d
        rng = random.Random(7)
        for label, draw in [
            ("randrange", lambda: tuple(rng.randrange(m) for _ in range(d))),
            ("random_payload", lambda: random_payload(ring, rng)),
        ]:
            us = _ms_per_call(lambda: [draw() for _ in range(1000)], repeat) * 1e3
            figures[f"payload_draws_us_per_1000.{ring.descriptor()}.{label}"] = round(us, 1)
            print(f"  1000 payload draws over {ring.descriptor()}, {label:<14} {us:8.1f} us")
    return figures


def bench_seeded_draws(repeat=5):
    print("== seeded draws: us per 1000 payloads, one at a time / bulk ==")
    figures = {}
    for ring in (CyclotomicTruncation(3, 2, 2), CharPQuotient(3, 0, 3), CyclotomicTruncation(5, 2, 1)):
        d, row = ring.d, []
        for label, draw in [
            ("one_at_a_time", lambda rng: [random_payload(ring, rng) for _ in range(1000)]),
            ("bulk", lambda rng: random_coefficients(ring, rng, 1000 * d).reshape(1000, d)),
        ]:
            rng = random.Random(8)
            us = _ms_per_call(lambda: draw(rng), repeat) * 1e3
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
