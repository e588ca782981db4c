#!/usr/bin/env python3
"""Compare the compiled kernel against the pure-Python fallback.

Three layers:
  * raw kernel calls (poly_mulmod) on the contexts of real rings above the
    table cap, next to the fallback's schoolbook loop,
  * end-to-end Witt multiplication throughput on W_2(cyc(3,2,1)), which runs
    on the small-ring lookup tables under either kernel, and on W_4(Z),
    which runs on plain ints,
  * universal-table build times (the feasibility envelope per prime).

Run twice to see both sides of the import-time switch:

    python benchmarks/bench_kernels.py
    WITTKIT_PURE=1 python benchmarks/bench_kernels.py
"""

import os
import random
import subprocess
import sys
import time

from wittkit import _kernel
from wittkit._kernel import _fallback
from wittkit.rings import CharPQuotient, CyclotomicTruncation, IntegerRing
from wittkit.witt import get_table, random_witt, raw_witt_ops, z_element


def _time_per_call(fn, pairs, ctx):
    t0 = time.perf_counter()
    for a, b in pairs:
        fn(a, b, ctx)
    return (time.perf_counter() - t0) / len(pairs)


def bench_kernel_calls():
    print("== poly_mulmod on rings above the table cap: compiled vs fallback ==")
    rng = random.Random(0)
    impls = [("python", _fallback)]
    if _kernel._speedups is not None:
        impls.append(("cython", _kernel._speedups))
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
        row = [f"{ring.descriptor():<14} d={d:<4} m={m:<3}"]
        for name, impl in impls:
            # the ring's own context when impl is the one in use
            ctx = ring._ctx if impl is _kernel._impl else impl.make_ctx(ring._red_rows, m, d)
            if impl is _fallback:
                name += " packed" if ctx.slots is not None else " schoolbook"
            row.append(f"{name}: {_time_per_call(impl.poly_mulmod, pairs, ctx) * 1e6:8.2f} us")
        ctx = _fallback.make_ctx(ring._red_rows, m, d)
        dt = _time_per_call(_fallback.schoolbook_mulmod, pairs[:200], ctx)
        row.append(f"python schoolbook: {dt * 1e6:8.2f} us")
        print("  " + "   ".join(row))


def bench_witt_mul():
    print("== Witt multiplication throughput (lookup tables and plain ints, any kernel) ==")
    ring = CyclotomicTruncation(3, 2, 1)
    raw = raw_witt_ops(ring, 3, 2)
    rng = random.Random(1)
    z = raw.unwrap(z_element(ring, 2))
    ws = [raw.unwrap(random_witt(ring, 3, 2, rng)) for _ in range(5000)]
    t0 = time.perf_counter()
    for w in ws:
        raw.mul(z, w)
    dt = (time.perf_counter() - t0) / len(ws)
    print(f"  W_2(cyc(3,2,1)) mul: {dt * 1e6:8.2f} us  "
          f"(full 531441-element sweep ~ {dt * 531441:6.1f} s)")
    Z = IntegerRing()
    raw = raw_witt_ops(Z, 3, 4)
    ws = [raw.unwrap(random_witt(Z, 3, 4, rng)) for _ in range(200)]
    raw.mul(raw.add(ws[0], ws[1]), ws[1])  # compile on first use, untimed
    t0 = time.perf_counter()
    for u, v in zip(ws[::2], ws[1::2]):
        raw.add(u, v)
        raw.mul(u, v)
    dt = (time.perf_counter() - t0) / (len(ws) // 2)
    print(f"  W_4(Z) add+mul on plain ints: {dt * 1e6:8.2f} us")


def bench_table_builds():
    print("== universal table build times (feasibility envelope) ==")
    for p, n in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
        get_table.cache_clear()
        t0 = time.perf_counter()
        table = get_table(p, n)
        dt = time.perf_counter() - t0
        terms = sum(len(poly) for poly in table.sum_polys + table.prod_polys)
        print(f"  (p={p}, n={n}): {dt * 1e3:8.1f} ms, {terms} monomials")


def main():
    print(f"kernel in use: {_kernel.impl_name()}")
    bench_kernel_calls()
    bench_witt_mul()
    bench_table_builds()
    if _kernel.impl_name() == "cython" and "WITTKIT_BENCH_CHILD" not in os.environ:
        print("\n-- rerunning end-to-end numbers with WITTKIT_PURE=1 --")
        sys.stdout.flush()
        env = dict(os.environ, WITTKIT_PURE="1", WITTKIT_BENCH_CHILD="1")
        subprocess.run([sys.executable, __file__], env=env, check=False)


if __name__ == "__main__":
    main()
