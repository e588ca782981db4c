"""Per-layer probes: seeded calls into one layer at a time, timed with
tracing off, each result checked.

They replace the ad-hoc timings of benchmarks/bench_kernels.py (poly_mulmod
per ring shape, Witt multiplication, cold table builds) and add one probe per
higher layer.  Every probe returns (metrics, problems).
"""

import random
import statistics
import time

import reference as ref


def _per_call(fn, args_list, repeats=3):
    """Median over repeats of the mean seconds per call; results of the last pass."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = [fn(*args) for args in args_list]
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times), out


def _rings(seed):
    from wittkit import rings

    shapes = {
        "cyc3_2_1": (rings.CyclotomicTruncation(3, 2, 1), ref.cyclotomic(3, 2, 1), 2000),
        "cyc3_2_3": (rings.CyclotomicTruncation(3, 2, 3), ref.cyclotomic(3, 2, 3), 2000),
        "cyc3_4_1": (rings.CyclotomicTruncation(3, 4, 1), ref.cyclotomic(3, 4, 1), 300),
        "cyc5_3_1": (rings.CyclotomicTruncation(5, 3, 1), ref.cyclotomic(5, 3, 1), 300),
        "charp3_0_9": (rings.CharPQuotient(3, 0, 9), ref.truncated(3, 0, 9), 2000),
    }
    metrics, problems = {}, []
    for label, (ring, R, count) in shapes.items():
        rng = random.Random(f"{seed}/rings/{label}")
        pairs = [(rings.random_element(ring, rng), rings.random_element(ring, rng)) for _ in range(count)]
        dt, out = _per_call(ring.mul, pairs)
        metrics[f"rings.mul_us.{label}"] = dt * 1e6
        for (a, b), c in list(zip(pairs, out))[:20]:
            if c.data != R.reduce(R.mul(a.data, b.data)):
                problems.append(f"rings.mul on {label}: {a.data} * {b.data} = {c.data}")
                break
    return metrics, problems


def _witt(seed):
    from wittkit import rings, witt

    metrics, problems = {}, []
    raw_shapes = {
        "W2_cyc3_2_1": (rings.CyclotomicTruncation(3, 2, 1), ref.cyclotomic(3, 2, 1), 2),
        "W3_charp3_0_3": (rings.CharPQuotient(3, 0, 3), ref.truncated(3, 0, 3), 3),
    }
    for label, (ring, R, n) in raw_shapes.items():
        raw = witt.raw_witt_ops(ring, 3, n)
        rng = random.Random(f"{seed}/raw/{label}")
        pairs = [(raw.unwrap(witt.random_witt(ring, 3, n, rng)), raw.unwrap(witt.random_witt(ring, 3, n, rng))) for _ in range(1000)]
        for op, fn, want in (
            ("add", raw.add, lambda u, v: ref.witt_add(R, u, v)),
            ("mul", raw.mul, lambda u, v: ref.witt_mul(R, u, v)),
            ("frob", lambda u, v: raw.frob(u), lambda u, v: ref.frobenius(R, u)),
        ):
            dt, out = _per_call(fn, pairs)
            metrics[f"witt.raw_{op}_us.{label}"] = dt * 1e6
            if any(got != want(*args) for args, got in list(zip(pairs, out))[:10]):
                problems.append(f"RawWittOps.{op} on {label} disagrees with the reference")

    wrapped_shapes = {
        "W2_charp3_0_9": (rings.CharPQuotient(3, 0, 9), ref.truncated(3, 0, 9), 3, 2, 300),
        "W2_cyc5_3_1": (rings.CyclotomicTruncation(5, 3, 1), ref.cyclotomic(5, 3, 1), 5, 2, 60),
        "W3_cyc3_2_3": (rings.CyclotomicTruncation(3, 2, 3), ref.cyclotomic(3, 2, 3), 3, 3, 200),
        "W4_cyc3_3_1": (rings.CyclotomicTruncation(3, 3, 1), ref.cyclotomic(3, 3, 1), 3, 4, 8),
        "W4_Z": (rings.IntegerRing(), ref.integers(3), 3, 4, 200),
    }
    for label, (ring, R, p, n, count) in wrapped_shapes.items():
        rng = random.Random(f"{seed}/wrapped/{label}")
        pairs = [(witt.random_witt(ring, p, n, rng), witt.random_witt(ring, p, n, rng)) for _ in range(count)]
        dt, out = _per_call(witt.witt_mul, pairs)
        metrics[f"witt.mul_us.{label}"] = dt * 1e6
        (u, v), w = pairs[0], out[0]
        data = lambda x: tuple(c.data for c in x.coords)  # noqa: E731
        if data(w) != ref.witt_mul(R, data(u), data(v)):
            problems.append(f"witt_mul on {label} disagrees with the reference")

    for p, n in ((3, 4), (5, 3)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            table = witt.WittUniversalTable(p, n)
            times.append(time.perf_counter() - t0)
        metrics[f"witt.table_build_ms.p{p}n{n}"] = statistics.median(times) * 1e3
        if witt.verify_ghost_symbolic(table) is not None:
            problems.append(f"the W_{n} table at p={p} fails its ghost identities")
    return metrics, problems


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _upper(seed):
    from wittkit import kaehler, rings, sequences, suites, tate, tilt, witt

    metrics, problems = {}, []
    # exact-rz over W_2(cyc(3,2,1)) is the smallest exact-rz complex (p >= 3,
    # N >= 2); sweeping its W_2 slots takes 142 s.  At budget 10^4 the slots
    # on its 729-element carriers (composite 0->2, injectivity, surjectivity)
    # are swept, and the W_2 slots sampled.
    rng = random.Random(f"{seed}/sequences")
    W2_cyc321 = rings.CyclotomicTruncation(3, 2, 1)
    cx, cls = sequences.exact_rz_complex(W2_cyc321, 1)
    dt, slots = _timed(lambda: sequences.exactness_report(cx, budget=10**4, rng=rng, classifiers=cls))
    metrics["sequences.exactness_s.exact_rz"] = dt
    if any(s.verdict == "fail" for s in slots):
        problems.append("exact-rz exactness report fails")
    cx = sequences.witt_restriction_complex(W2_cyc321, 3, 1)
    dt, slots = _timed(lambda: sequences.exactness_report(cx, budget=10**6, rng=rng))
    metrics["sequences.exactness_s.restriction"] = dt
    if any(s.verdict != "pass" or s.mode != "exhaustive" for s in slots):
        problems.append("the Witt restriction sequence over W_2(cyc(3,2,1)) is not exhaustively exact")

    dt, ok = _timed(lambda: tate.freeness_probe(W2_cyc321, 2))
    metrics["tate.freeness_probe_s"] = dt
    if ok is not True:
        problems.append(f"freeness probe on W_2(cyc(3,2,1)) returned {ok}")
    dt, rep = _timed(lambda: tate.fixed_points_report(rings.CharPQuotient(3, 0, 9), 2))
    metrics["tate.fixed_points_s"] = dt
    if not rep["inclusion_exact"]:
        problems.append("fixed points of charp(3,0,9), n=2: the claimed set is not fixed")

    ring = rings.CyclotomicTruncation(3, 4, 1)
    eps = tilt.epsilon(ring, 3)
    ws = [tilt.tilt_teichmuller(eps**i, 3) for i in range(1, 4)]
    dt, thetas = _per_call(lambda w: tilt.theta_r(w, 3), [(w,) for w in ws] * 4, repeats=1)
    metrics["tilt.theta_r_us.cyc3_4_1"] = dt * 1e6
    dt, prods = _per_call(tilt.tilt_witt_mul, [(u, v) for u in ws for v in ws], repeats=1)
    metrics["tilt.tilt_witt_mul_us.cyc3_4_1"] = dt * 1e6
    if tilt.theta_r(prods[1], 3) != witt.witt_mul(thetas[0], thetas[1]):
        problems.append("theta_3 is not multiplicative on cyc(3,4,1)")

    dt, _ = _per_call(lambda: kaehler.solve_alpha(rings.CyclotomicTruncation(5, 3, 2)), [()] * 3, repeats=1)
    metrics["kaehler.solve_alpha_ms.cyc5_3_2"] = dt * 1e3
    dt, out = _per_call(lambda: kaehler.torsion_is_free_rank_one(rings.CyclotomicTruncation(3, 3, 3), 1), [()] * 5, repeats=1)
    metrics["kaehler.torsion_ms.cyc3_3_3"] = dt * 1e3
    if not out[0][0]:
        problems.append("Omega^1[p] of cyc(3,3,3) is not free of rank one")

    cfg = suites.SuiteConfig(seed=seed, suites=["qlog", "log-presentation", "kaehler-torsion"]).validate()
    agg = suites.run_suites(cfg)
    dt, bodies = _per_call(agg.to_json, [()] * 50, repeats=3)
    metrics["report.to_json_ms"] = dt * 1e3
    if len(set(bodies)) != 1:
        problems.append("to_json is not deterministic")
    return metrics, problems


def run_all(seed):
    metrics, problems = {}, []
    for probe in (_rings, _witt, _upper):
        m, p = probe(seed)
        metrics.update(m)
        problems.extend(p)
    return metrics, problems
