#!/usr/bin/env python3
"""Compare the compiled kernel against the pure-Python fallback.

Three layers:
  * raw kernel calls (poly_mulmod) on representative ring shapes,
  * end-to-end Witt multiplication throughput on W_2(cyc(3,2,1)), which runs
    on the small-ring lookup tables under either kernel,
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
from wittkit.rings import CyclotomicTruncation
from wittkit.witt import get_table, random_witt, raw_witt_ops, z_element


def _reduction_rows(base, m, d):
    rows = [tuple(base)]
    for _ in range(d - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        rows.append(tuple((shifted[i] + top * base[i]) % m for i in range(d)))
    return rows if d > 1 else []


def bench_kernel_calls():
    print("== poly_mulmod: compiled vs fallback ==")
    rng = random.Random(0)
    impls = [("python", _fallback)]
    if _kernel._speedups is not None:
        impls.append(("cython", _kernel._speedups))
    for d, m, label in [(6, 3, "cyc(3,2,1)"), (6, 27, "cyc(3,2,3)"), (100, 5, "cyc(5,3,1)"), (27, 3, "charp(3,0,27)")]:
        base = [rng.randrange(m) for _ in range(d)]
        red = _reduction_rows(base, m, d)
        pairs = [
            (
                tuple(rng.randrange(m) for _ in range(d)),
                tuple(rng.randrange(m) for _ in range(d)),
            )
            for _ in range(2000)
        ]
        row = [f"{label:<16} d={d:<4} m={m:<3}"]
        for name, impl in impls:
            ctx = impl.make_ctx(red, m, d)
            t0 = time.perf_counter()
            for a, b in pairs:
                impl.poly_mulmod(a, b, ctx)
            dt = (time.perf_counter() - t0) / len(pairs)
            row.append(f"{name}: {dt * 1e6:8.2f} us")
        print("  " + "   ".join(row))


def bench_witt_mul():
    print("== Witt multiplication throughput (lookup tables, any kernel) ==")
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
