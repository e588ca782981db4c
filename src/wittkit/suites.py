"""The named check suites behind the command-line harness.

Every suite takes a SuiteConfig and returns a CheckReport.  Suites are
deterministic given (config, seed): all sampling goes through a Random
seeded from (seed, suite name).
"""

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import kaehler, sequences, tate, tilt, witt
from .report import CheckReport
from .rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    is_odd_prime,
    random_element,
)
from .sequences import sample_chunks
from .witt import verschiebung_batch as _V


class UsageError(ValueError):
    pass


@dataclass
class SuiteConfig:
    p: int = 3
    n: int = 1
    N: int = 2
    M: int = 1
    T: int = 2
    e: int = 0
    K: int = 9
    budget: int = 10**6
    seed: int = 0
    workers: int = 1
    suites: list = field(default_factory=lambda: ["all"])

    def validate(self):
        if not is_odd_prime(self.p):
            raise UsageError(f"p must be an odd prime, got {self.p}")
        if min(self.n, self.N, self.M, self.T, self.K) < 1 or self.e < 0:
            raise UsageError("n, N, M, T, K must be >= 1 and e >= 0")
        if self.n > self.N:
            raise UsageError(f"need n <= N, got n={self.n}, N={self.N}")
        if self.T > self.N:
            raise UsageError(f"need T <= N, got T={self.T}, N={self.N}")
        if self.budget < 1:
            raise UsageError("budget must be positive")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")
        names = [s for name in self.suites for s in (SUITES if name == "all" else [name])]
        cap = witt._MAX_PRACTICAL_LEN.get(self.p)
        if cap is not None:
            for suite in names:
                need = WITT_LENGTHS.get(suite, lambda cfg: 0)(self)
                if need > cap:
                    raise UsageError(
                        f"suite {suite} needs Witt length {need}, above the "
                        f"practical bound {cap} for p = {self.p}"
                    )
        # tilt-theta reads lift 1 of stabilized sums of depth-T tilts, and a
        # stabilized sum loses default_delta = min(M, 3) lifts
        if "tilt-theta" in names and self.T <= tilt.default_delta(self):
            raise UsageError(f"suite tilt-theta needs T > min(M, 3), got T={self.T}, M={self.M}")
        # tate-tower reads theta_r up to lift h of a tilt sum of depth h + 1,
        # h the tower height, so it needs min(M, 3) <= 1
        if "tate-tower" in names and tilt.default_delta(self) > 1:
            raise UsageError(
                "suite tate-tower needs M = 1: it reads lift h of a stabilized "
                f"tilt sum of depth h + 1, which loses min(M, 3) lifts; got M={self.M}"
            )
        return self

    def to_dict(self):
        return {
            "p": self.p,
            "n": self.n,
            "N": self.N,
            "M": self.M,
            "T": self.T,
            "e": self.e,
            "K": self.K,
            "budget": self.budget,
            "seed": self.seed,
        }

    def rng(self, suite):
        return random.Random(f"{self.seed}/{suite}")


# --- suite: witt-identities -----------------------------------------------------

# Batched checks evaluate an exhaustive sweep CHUNK elements at a time, and
# draw and evaluate samples sequences.SAMPLE_CHUNK at a time: their arrays
# then stay within a few MB, and sampled checks within a fraction of one.
CHUNK = 8192


def _swept(count, batch, at):
    """The chunks of an exhaustive sweep over positions 0..count-1, in
    order: batch(positions) gives a chunk's batches, at(position) one
    element."""
    for start in range(0, count, CHUNK):
        positions = np.arange(start, min(start + CHUNK, count), dtype=np.int64)
        yield batch(positions), lambda i, start=start: at(start + i)


def _first_failures(chunks, checks):
    """The first element, in order, at which each check fails.

    chunks yields (batches, at): one chunk of elements as batches, and
    at(i), its i-th element.  A check maps the batches to the mask of the
    elements where it holds.  The result has, per check, at(i) for its first
    False, or None.  Every chunk is read, so sampled checks draw all their
    samples whatever the verdicts.
    """
    found = [None] * len(checks)
    for batches, at in chunks:
        for c, holds in enumerate(checks):
            if found[c] is None:
                mask = holds(*batches)
                if not mask.all():
                    found[c] = at(int(np.argmin(mask)))
    return found


def _R(raw, w):
    """R on a batch: witt.restriction drops the last coordinate of whatever
    coordinates a vector holds, so it applies to a wrapped batch as it is."""
    return witt.restriction(raw.wrap(w)).data


def suite_witt_identities(cfg):
    rep = CheckReport("witt-identities")
    rng = cfg.rng("witt-identities")
    p = cfg.p

    # symbolic ghost identities for every table this configuration touches
    max_len = {3: 4}.get(p, 3)
    for length in range(1, max_len + 1):
        table = witt.get_table(p, length)
        bad = witt.verify_ghost_symbolic(table)
        rep.add(
            f"ghost-symbolic-{p}-{length}",
            "ghost(S)=ghost(x)+ghost(y), ghost(P)=ghost(x)ghost(y) as Z-polynomials",
            bad is None,
            witnesses=[bad] if bad else [],
        )

    # numeric ghost homomorphism over Z on random pairs
    Z = IntegerRing()
    for length in range(1, max_len + 1):
        ok = True
        witness = None
        for _ in range(100):
            u = witt.random_witt(Z, p, length, rng)
            v = witt.random_witt(Z, p, length, rng)
            gs = witt.ghost(witt.witt_add(u, v))
            gp = witt.ghost(witt.witt_mul(u, v))
            gu, gv = witt.ghost(u), witt.ghost(v)
            if any(a.data != (b.data + c.data) for a, b, c in zip(gs, gu, gv)) or any(
                a.data != (b.data * c.data) for a, b, c in zip(gp, gu, gv)
            ):
                ok = False
                witness = (u, v)
                break
        rep.add(
            f"ghost-numeric-Z-{p}-{length}",
            "ghost homomorphism on random Witt vectors over Z",
            ok,
            witnesses=[witness] if witness else [],
        )

    charp = CharPQuotient(p, 0, 3)
    cyc = CyclotomicTruncation(p, min(cfg.N, 2), max(cfg.M, 2))
    for ring, mode in ((charp, "exhaustive"), (cyc, "sampled")):
        n = 2
        raw2 = witt.raw_witt_ops(ring, p, n)
        raw3 = witt.raw_witt_ops(ring, p, n + 1)
        same = raw2.equal_batch

        def fv_eq_p(w):
            return same(raw3.frob_batch(_V(w)), raw2.scalar_mul_batch(p, w))

        if mode == "exhaustive":
            size = ring.cardinality() ** n

            def payload(k):
                return raw2.payload_at(raw2.payload_batch(np.array([k])), 0)

            def v_additive(u, v):
                return same(raw3.add_batch(_V(u), _V(v)), _V(raw2.add_batch(u, v)))

            # FV = p on all of W_2
            [witness] = _first_failures(
                _swept(size, lambda at: (raw2.payload_batch(at),), payload), [fv_eq_p]
            )
            rep.add(
                f"fv-eq-p-{ring.descriptor()}",
                "F(V(w)) = p w",
                witness is None,
                witnesses=[] if witness is None else [witness],
                precision={"mode": mode, "domain": f"W_2({ring.descriptor()})"},
            )
            # V additivity over pairs: exhaustive within budget, else sampled
            pair_count = size**2
            if pair_count <= cfg.budget:
                pairs = _swept(
                    pair_count,
                    lambda at: (raw2.payload_batch(at // size), raw2.payload_batch(at % size)),
                    lambda k: (payload(k // size), payload(k % size)),
                )
                pair_mode = "exhaustive pairs"
            else:
                pair_count = 1000
                pairs = (
                    (uv, lambda i, at=at: tuple(w.data for w in at(i)))
                    for uv, at in sample_chunks(rng, pair_count, raw2, raw2)
                )
                pair_mode = "sampled pairs"
            [witness] = _first_failures(pairs, [v_additive])
            rep.add(
                f"v-additive-{ring.descriptor()}",
                "V(u + v) = V(u) + V(v)",
                witness is None,
                witnesses=[] if witness is None else [witness],
                precision={"mode": pair_mode, "count": pair_count},
            )
            # F[a] = [a^p] over all of A
            witness = next(
                (
                    a
                    for a in ring.enumerate_elements()
                    if witt.frobenius(witt.teichmuller(a, p, 3)) != witt.teichmuller(a**p, p, 2)
                ),
                None,
            )
            rep.add(
                f"f-teichmuller-{ring.descriptor()}",
                "F([a]) = [a^p]",
                witness is None,
                witnesses=[] if witness is None else [witness],
                precision={"mode": mode},
            )
        samples = 1000 if mode == "sampled" else 200
        checks = [
            (
                "xv-identity",
                "x V(y) = V(F(x) y)",
                lambda x, y, fx: same(raw3.mul_batch(x, _V(y)), _V(raw2.mul_batch(fx, y))),
                lambda x, y: ("xV(y)", x, y),
            ),
            (
                "rf-commute",
                "R F = F R",
                lambda x, y, fx: same(_R(raw2, fx), raw2.frob_batch(_R(raw3, x))),
                lambda x, y: ("RF=FR", x),
            ),
        ]
        # the exhaustive fv-eq-p above already covers F(V(y)) = p y there
        if mode == "sampled":
            checks.append(
                ("fv-eq-p", "F(V(w)) = p w", lambda x, y, fx: fv_eq_p(y), lambda x, y: ("FV=p", y))
            )
        # x, then y, per sample
        chunks = (
            ((xs, ys, raw3.frob_batch(xs)), at)
            for (xs, ys), at in sample_chunks(rng, samples, raw3, raw2)
        )
        found = _first_failures(chunks, [check[2] for check in checks])
        for (name, anchor, _, explain), witness in zip(checks, found):
            rep.add(
                f"{name}-{ring.descriptor()}",
                anchor,
                witness is None,
                witnesses=[] if witness is None else [explain(*witness)],
                precision={"mode": mode, "samples": samples},
            )

    # units in Witt vectors: w unit iff first coordinate unit
    small = CyclotomicTruncation(p, 1, 1)
    raw_small = witt.raw_witt_ops(small, p, 2)
    size = small.cardinality() ** 2
    if size <= min(cfg.budget, 10**4):
        candidates = (raw_small.wrap(w) for w in raw_small.enumerate_payloads())
        unit_mode = "exhaustive"
    else:
        candidates = (witt.random_witt(small, p, 2, rng) for _ in range(2000))
        unit_mode = "sampled"
    ok = True
    witness = None
    for w in candidates:
        unit_w, inv = witt.witt_is_unit(w)
        unit_a0, _ = small.is_unit(w.coords[0])
        if unit_w != unit_a0 or (unit_w and witt.witt_mul(w, inv) != witt.witt_one(small, p, 2)):
            ok, witness = False, w
            break
    rep.add(
        "units-first-coordinate",
        "w is a unit in W_n(A) iff its first coordinate is a unit in A",
        ok,
        witnesses=[witness] if witness else [],
        precision={"mode": unit_mode, "domain": f"W_2({small.descriptor()})"},
    )

    # congruence implies unit, contrapositive sampling
    ring = CyclotomicTruncation(p, cfg.N, cfg.M)
    zeta = ring.zeta(cfg.N)
    mu = witt.witt_add(
        witt.teichmuller(zeta, p, cfg.N), witt.witt_neg(witt.witt_one(ring, p, cfg.N))
    )
    witness = None
    for _ in range(50):
        y = witt.random_witt(ring, p, cfg.N, rng)
        lhs = witt.witt_mul(mu, y)
        diff = witt.witt_add(lhs, witt.witt_neg(mu))
        congruent = all(all(c % p == 0 for c in t) for t in diff.data)
        if congruent and witness is None:
            unit, _ = ring.is_unit(y.coords[0])
            if not unit:
                witness = y
    rep.add(
        "zeta-congruence-unit",
        "([zeta]-1) y = [zeta]-1 mod p W_n(A) forces y to be a unit mod p",
        witness is None,
        witnesses=[] if witness is None else [witness],
        precision={"samples": 50},
    )

    # divide by a Teichmuller representative
    ring27 = CyclotomicTruncation(p, 1, 3)
    x = witt.witt_one(ring27, p, 1)
    a = ring27.zeta(1) - ring27.one()
    got = witt.teichmuller_divide(x, a, 3)
    ok = got is not None and got[0] == 1
    rep.add(
        "teichmuller-divide",
        "[a] q = p^N x solvable with minimal N ([zeta_p - 1] divides p)",
        ok,
        witnesses=[] if ok else [repr(got)],
        precision={"ring": ring27.descriptor()},
    )
    trivial = witt.teichmuller_divide(x, ring27.one(), 3)
    ok = trivial is not None and trivial[0] == 0 and trivial[1] == x
    rep.add(
        "teichmuller-divide-unit",
        "[1] q = p^0 x",
        ok,
        witnesses=[] if ok else [repr(trivial)],
    )
    return rep.finish()


# --- suite: sequences -----------------------------------------------------------


def suite_sequences(cfg):
    rep = CheckReport("sequences")
    rng = cfg.rng("sequences")
    p = cfg.p

    instances = [
        (CharPQuotient(p, 0, 3), 1),
        (CharPQuotient(p, 0, 2), 2),
        (CyclotomicTruncation(p, 1, 1), 1),
    ]
    for ring, n in instances:
        cx = sequences.witt_restriction_complex(ring, p, n)
        verdicts = sequences.exactness_report(cx, budget=cfg.budget, rng=rng)
        bad = [v for v in verdicts if v.verdict == "fail"]
        rep.add(
            f"witt-sequence-{ring.descriptor()}-n{n}",
            "0 -> A --V^n--> W_{n+1}(A) --R--> W_n(A) -> 0 exact",
            not bad,
            witnesses=[b.as_dict() for b in bad[:1]],
            precision={"slots": [v.as_dict() for v in verdicts]},
        )

    ring = CyclotomicTruncation(p, max(cfg.N, cfg.n + 1), cfg.M)
    cx, classifiers = sequences.exact_rz_complex(ring, cfg.n)
    verdicts = sequences.exactness_report(cx, budget=cfg.budget, rng=rng, classifiers=classifiers)
    bad = [v for v in verdicts if v.verdict == "fail"]
    limited = [v for v in verdicts if v.verdict == "truncation-limited"]
    rep.add(
        f"exact-rz-{ring.descriptor()}-n{cfg.n}",
        "0 -> A --V^n--> W_{n+1} --R z--> W_n --F^n--> A/p^n -> 0",
        not bad,
        witnesses=[b.as_dict() for b in bad[:1]],
        precision={"slots": [v.as_dict() for v in verdicts]},
        note="; ".join(v.note for v in limited),
        limited=bool(limited),
    )

    tm_ring = CyclotomicTruncation(p, max(2, cfg.N), 1)
    for n in (1, 2):
        tm = sequences.TwistedModule(tm_ring, n)
        fails = sequences.check_module_axioms(tm, rng, triples=100)
        rep.add(
            f"twisted-module-axioms-n{n}",
            "y.(alpha,a) = (F^n(y) alpha - a F^n(dy), F^n(y) a) is a module law",
            not fails,
            witnesses=fails[:1],
            precision={"triples": 100, "ring": tm_ring.descriptor()},
        )
        y = witt.verschiebung(witt.witt_one(tm_ring, p, n))
        m = tm.random_element(rng)
        got = tm.action(y, m)
        want = (
            tuple(p * c % tm_ring.m for c in m[0]),
            p * m[1],
        )
        rep.add(
            f"twisted-v1-action-n{n}",
            "V(1).(alpha, a) = (p alpha, p a)",
            tm.eq(got, want),
        )
    leib = sequences.check_fnd_leibniz(tm_ring, 1, rng, samples=50)
    rep.add(
        "fnd-leibniz",
        "F^n d (xw) = F^n(x) F^n d(w) + F^n(w) F^n d(x)",
        not leib,
        witnesses=leib[:1],
    )
    xv = sequences.check_xv_identity(tm_ring, p, 1, rng, samples=100)
    rep.add("xvy-module-law", "x V(y) = V(F(x) y)", not xv, witnesses=xv[:1])
    for n in (1, 2):
        vh = sequences.check_vn_module_hom(tm_ring, p, n, rng, samples=60)
        rep.add(
            f"vn-module-hom-n{n}",
            "x V^n(a) = V^n(F^n(x) a): V^n is a module map for the F^n structure",
            not vh,
            witnesses=vh[:1],
        )

    if cfg.N >= cfg.n + 2:
        s_max = min(3, cfg.N - cfg.n)
        inter = sequences.check_witt_intersection(
            CyclotomicTruncation(p, cfg.n + s_max, 1), cfg.n, s_max, rng, samples=3
        )
        rep.add(
            "witt-intersection",
            "chain R^s(z_{n+s})...R(z_{n+1}) ([zeta_{p^{n+s}}]-1) = [zeta_{p^n}]-1; members divide",
            inter["chain_identity"] and inter["members_divide"] and inter["nonmember_rejected"],
            witnesses=inter["witnesses"][:2],
            precision={"s_max": s_max},
        )
    return rep.finish()


# --- suite: kaehler-torsion -----------------------------------------------------


def suite_kaehler_torsion(cfg):
    rep = CheckReport("kaehler-torsion")
    rng = cfg.rng("kaehler-torsion")
    p = cfg.p

    om = kaehler.omega1_monogenic([1] * p)  # Phi_p
    tor, free = om.invariant_factors()
    rep.add(
        "omega-zeta-p",
        "Omega^1 of Z[zeta_p] is cyclic of order p on d zeta_p",
        tor == [p] * (p - 2) and free == 0 and not om.is_zero(om.dx) and om.is_zero([p] + [0] * (om.gens - 1)),
        precision={"invariants": tor},
    )
    con_zero, con_surj = kaehler.conormal_check([1] * p)
    rep.add(
        "conormal",
        "I/I^2 -> Omega^1 tensor A/I -> Omega^1_{A/I} -> 0: composite zero, right map onto",
        con_zero and con_surj,
    )

    for q in (p, p * p):
        orders, _ = om.torsion(q)
        rep.add(
            f"torsion-{q}",
            f"[{q}]-torsion of Omega^1(Z[zeta_p]) is the whole module",
            orders == tor,
            precision={"orders": orders},
        )

    for pp in (3, 5):
        for N in (2, 3):
            ring = CyclotomicTruncation(pp, N, cfg.M + 1)
            try:
                kaehler.solve_alpha(ring)
                ok = True
            except ArithmeticError:
                ok = False
            rep.add(
                f"alpha-identity-p{pp}-N{N}",
                "(zeta_p - 1) alpha = dlog zeta_p with alpha = (sum m zeta_p^m) dlog zeta_{p^2}",
                ok,
                precision={"ring": ring.descriptor()},
            )

    # stability of the torsion report under (N, M) -> (N+1, M+1)
    o1 = kaehler.alpha_order_report(p, 2, 2)
    o2 = kaehler.alpha_order_report(p, 3, 3)
    cap = p**2
    rep.add(
        "alpha-order-stable",
        "additive order of alpha agrees at (N,M) and (N+1,M+1) on the common range",
        min(o1, cap) == min(o2, cap),
        precision={"order_N2M2": o1, "order_N3M3": o2},
    )
    v1, d1 = kaehler.torsion_is_free_rank_one(CyclotomicTruncation(p, 2, 2), 1)
    v2, d2 = kaehler.torsion_is_free_rank_one(CyclotomicTruncation(p, 3, 3), 1)
    rep.add(
        "torsion-free-rank-one-stable",
        "Omega^1[p] is free of rank one over A/pA, stably in (N,M)",
        v1 and v2,
        precision={"N2M2": d1, "N3M3": d2},
    )

    ring = CyclotomicTruncation(p, cfg.N, cfg.M)
    samples = [ring.zeta(n) for n in range(1, cfg.N + 1)] + [
        ring.one(),
        random_element(ring, rng),
    ]
    results = kaehler.check_p_surjectivity(ring, samples)
    verdicts = [v for _, v, _ in results]
    top_defect = verdicts[cfg.N - 1] == "truncation-limited"  # zeta_{p^N} has no root
    lower_ok = all(v == "pass" for v in verdicts[: cfg.N - 1]) and verdicts[cfg.N] == "pass"
    rep.add(
        "p-surjectivity",
        "da = p w via a = a_0^p + p a_1 and the Leibniz rule; defect only at the top level",
        lower_ok and top_defect and "fail" not in verdicts,
        precision={"verdicts": verdicts},
        note="the truncation is not perfectoid: the top-level root is missing by design",
    )
    return rep.finish()


# --- suite: tilt-theta ----------------------------------------------------------


def suite_tilt_theta(cfg):
    rep = CheckReport("tilt-theta")
    rng = cfg.rng("tilt-theta")
    p = cfg.p
    ring = CyclotomicTruncation(p, cfg.N, cfg.M)
    T = min(cfg.T, cfg.N)
    eps = tilt.epsilon(ring, T)

    ok = True
    for n in range(1, T + 1):
        tw = tilt.tilt_teichmuller(eps, n + 1)
        if tilt.theta_r(tw, n) != witt.teichmuller(ring.zeta(n), p, n):
            ok = False
    rep.add("theta-eps", "theta_n([eps]) = [zeta_{p^n}]", ok, precision={"T": T})

    one_t = tilt.tilt_one(ring, T)
    rep.add(
        "theta-one",
        "theta_r([1]) = [1]",
        tilt.theta_r(tilt.tilt_teichmuller(one_t, T), T) == witt.witt_one(ring, p, T),
    )

    # ring-map property on samples
    samp = [tilt.tilt_teichmuller(eps**i, T) for i in range(1, min(p + 1, 4))]
    samp.append(tilt.tilt_teichmuller(tilt.tilt_const(ring, 2, T), T))
    r = max(1, T - tilt.default_delta(ring))
    ops = (("+", tilt.tilt_witt_add, witt.witt_add), ("*", tilt.tilt_witt_mul, witt.witt_mul))
    wit_map = []  # the first (operation, u, v) that theta_r does not respect
    for u, v, (op, tilt_op, witt_op) in itertools.product(samp, samp, ops):
        if tilt.theta_r(tilt_op(u, v), r) != witt_op(tilt.theta_r(u, r), tilt.theta_r(v, r)):
            wit_map = [(op, u, v)]
            break
    rep.add(
        "theta-ring-map",
        "theta_r(u + v) = theta_r(u) + theta_r(v), same for products",
        not wit_map,
        witnesses=wit_map,
        precision={"r": r},
    )

    ok_f = ok_rtwist = True
    for w in samp:
        if T >= 2:
            if witt.frobenius(tilt.theta_r(w, 2)) != tilt.theta_r(w, 1):
                ok_f = False
            if witt.restriction(tilt.theta_r(w, 2)) != tilt.theta_r(
                tilt.tilt_witt_phi_inv(w), 1
            ):
                ok_rtwist = False
    rep.add("theta-F-compat", "F . theta_{r+1} = theta_r", ok_f)
    rep.add("theta-R-compat", "R . theta_{r+1} = theta_r . phi^{-1}", ok_rtwist)

    # the kernel generators
    if cfg.N >= 2:
        xi = tilt.xi_element(ring, T, 1)
        th = tilt.theta(xi)
        rep.add(
            "theta-xi-kernel",
            "theta(xi) = 0 for xi = 1 + [eps^(1/p)] + ... + [eps^(1/p)]^(p-1)",
            th.is_zero(),
            witnesses=[] if th.is_zero() else [ring.format_element(th)],
        )
        terms = [tilt.tilt_teichmuller(tilt.tilt_one(ring, T), 1)] + [
            tilt.tilt_teichmuller(eps**i, 1) for i in range(1, p)
        ]
        th1 = tilt.theta_r(tilt.tilt_witt_sum_many(terms), 1)
        rep.add(
            "theta1-kernel",
            "theta_1(1 + [eps] + ... + [eps]^(p-1)) = 0",
            th1.is_zero(),
            witnesses=[] if th1.is_zero() else [th1],
        )
        kf = tilt.check_ker_F_generators(ring, min(cfg.n, cfg.N - 1), rng=rng)
        rep.add_verdict(
            "ker-F-generators",
            "F^n(z_{n+1}) = 0 and F(sum_{i<p^n} [zeta_{p^{n+1}}]^i) = 0; members divide",
            kf["verdict"],
            witnesses=kf["witnesses"][:2],
            precision={
                "membership_z": kf["membership_z"],
                "membership_big_sum": kf["membership_big_sum"],
            },
        )

    # stabilized addition example (eps - 1)
    if cfg.M == 1 and cfg.N >= 2:
        e1 = tilt.epsilon(ring, 2)
        s = tilt.tilt_sum([e1, -tilt.tilt_one(ring, 2)], delta=2)
        direct = (ring.zeta(2) - ring.one()) ** (p**2)
        rep.add(
            "tilt-add-stabilized",
            "(eps - 1)^(0) approximant at k=2 equals (zeta_{p^2} - 1)^(p^2)",
            s.lift(0) == direct,
        )
    return rep.finish()


# --- suite: fixed-points --------------------------------------------------------


def _fixed_points_report(ring, n):
    """tate.fixed_points_report, with a solution count past the solver's
    budget a usage error."""
    try:
        return tate.fixed_points_report(ring, n)
    except tilt.SolutionBudgetError as exc:
        raise UsageError(str(exc)) from exc


def suite_fixed_points(cfg):
    rep = CheckReport("fixed-points")
    p = cfg.p
    ring = CharPQuotient(p, cfg.e, cfg.K)
    for n in (1, 2):
        # at n = 2 the report reads only the inclusion: nothing is enumerated
        r = _fixed_points_report(ring, n) if n == 1 else tilt.claimed_inclusion(ring, n)
        rep.add(
            f"fixed-inclusion-n{n}",
            "phi(c([eps]-1)) = (([eps^p]-1)/([eps]-1)) c([eps]-1) for all c in W_n(F_p)",
            r["inclusion_exact"],
            precision=r["precision"],
        )
        if n == 1:
            r1 = r  # reused by the shrink check below
            t = ring.t_element()
            expect = {
                witt.WittVector(ring, p, (ring.from_int(c) * t,)) for c in range(p)
            }
            got = set(r["claimed"]) | {witt.witt_zero(ring, p, 1)}
            rep.add(
                "fixed-enumeration",
                "solution set is {c t : c in F_p} modulo nilpotent truncation artifacts",
                expect == got,
                precision={
                    "solutions": sorted(repr(y) for y in r["solutions"]),
                    "spurious": [
                        {
                            "element": repr(s["element"]),
                            "junk_s_valuation": s["junk_s_valuation"],
                            "junk_t_annihilator": s["junk_t_annihilator"],
                        }
                        for s in sorted(
                            r["spurious"], key=lambda s: repr(s["element"])
                        )
                    ],
                },
            )
            min_junk = min(
                (s["junk_s_valuation"] for s in r["spurious"]), default=ring.d
            )
            rep.add(
                "spurious-depth",
                "spurious deviations are nilpotent of t-order >= ceil(K/(p-1))",
                min_junk * 1 >= math.ceil(ring.d / (p - 1)),
                precision={"min_junk_valuation": min_junk},
            )
    # strict shrink under precision growth K -> pK
    big = CharPQuotient(p, cfg.e, cfg.K * p)
    r2 = _fixed_points_report(big, 1)
    claimed_small = set(r1["claimed_forms"])
    still = set()
    for s in r2["spurious"]:
        proj = tilt.project_charp_witt(big, ring, s["element"])
        if proj not in claimed_small:
            still.add(proj)
    v_small = min((s["junk_s_valuation"] for s in r1["spurious"]), default=ring.d)
    v_big = min((s["junk_s_valuation"] for s in r2["spurious"]), default=big.d)
    rep.add(
        "spurious-shrink",
        "spurious set strictly shrinks under K -> pK (projected junk vanishes)",
        len(still) < len(r1["spurious"]) and (not r2["spurious"] or v_big > v_small),
        precision={
            "spurious_K": len(r1["spurious"]),
            "projected_still_spurious": len(still),
            "min_junk_K": v_small,
            "min_junk_pK": v_big,
        },
    )
    return rep.finish()


# --- suite: qlog ----------------------------------------------------------------


def suite_qlog(cfg):
    rep = CheckReport("qlog")
    p = cfg.p
    ring = CharPQuotient(p, max(cfg.e, 1), max(cfg.K, 3))
    length = 2
    eps = tilt.eps_charp(ring)
    q = witt.teichmuller(eps, p, length)
    val, per = tilt.q_log(q, q, 4)
    mu = witt.witt_add(q, witt.witt_neg(witt.witt_one(ring, p, length)))
    rep.add(
        "qlog-eps",
        "log_q([eps]) = [eps] - 1 (terms n >= 2 contain the factor [x]-q = 0)",
        val == mu and all(per[n]["vanished"] for n in per if n >= 2),
    )
    val1, _ = tilt.q_log(witt.witt_one(ring, p, length), q, 3)
    rep.add("qlog-one", "log_q([1]) = 0", val1.is_zero())

    xsq = witt.teichmuller(eps**2, p, length)
    try:
        v5, per5 = tilt.q_log(xsq, q, 5)
        div_ok = True
    except tilt.QLogDivisionError as exc:
        div_ok = False
        per5 = {}
        rep.add("qlog-divisibility", "[n]_q divides every retained term, n <= 5", False, witnesses=[str(exc)])
    if div_ok:
        rep.add(
            "qlog-divisibility",
            "[n]_q divides every retained term, n <= 5",
            True,
            precision={"vanished_from": min((n for n in per5 if per5[n]["vanished"]), default=None)},
        )
        v3, _ = tilt.q_log(xsq, q, 3)
        v4, _ = tilt.q_log(xsq, q, 4)
        rep.add(
            "qlog-cutoff-agreement",
            "log_q([eps^2]) agrees between cutoffs 3 and 4 at working precision",
            v3 == v4,
            precision={"ring": ring.descriptor()},
        )
    return rep.finish()


# --- suite: tate-tower ----------------------------------------------------------


def suite_tate_tower(cfg):
    rep = CheckReport("tate-tower")
    rng = cfg.rng("tate-tower")
    p = cfg.p
    height = min(3, max(2, cfg.N - 1))
    ring = CyclotomicTruncation(p, height + 1, cfg.M)
    tower = tate.TateTower(ring, height)

    rep.add(
        "ratio-identity",
        "([zeta_{p^{n+1}}] - 1) R(z_{n+1}) = [zeta_{p^n}] - 1",
        all(tower.ratio_identity_holds(n) for n in range(1, height + 1)),
        precision={"heights": height},
    )
    compat = tower.dlog_compatibility()
    rep.add(
        "dlog-compat",
        "F(dlog_{n+1}) = dlog_n and R(dlog_{n+1}) = dlog_n",
        all(f and r for _, f, r in compat),
        precision={"levels": [n for n, _, _ in compat]},
    )
    rep.add(
        "towers-f-compatible",
        "F(alpha_{n+1}) = alpha_n on the generator and dlog towers",
        tower.is_f_compatible(tower.alpha_tower())
        and tower.is_f_compatible(tower.dlog_tower()),
    )

    eps = tilt.epsilon(ring, height + 1)
    ok_twist = True
    count = 0
    for i in range(1, 11):
        w = tilt.tilt_teichmuller(eps**i, height)
        for elem in (tower.alpha_tower(), tower.dlog_tower()):
            if not tower.twist_law_holds(w, elem):
                ok_twist = False
            count += 1
    w = tilt.tilt_witt_add(
        tilt.tilt_teichmuller(eps, height), tilt.tilt_teichmuller(eps**2, height)
    )
    ok_twist = ok_twist and tower.twist_law_holds(w, tower.alpha_tower())
    ok_twist = ok_twist and tower.twist_law_holds_int(p, tower.alpha_tower())
    count += 2
    rep.add(
        "twist-law",
        "R(t x) = phi^{-1}(t) R(x) for sampled tilt scalars t",
        ok_twist,
        precision={"samples": count},
    )

    if ring.N >= height + 1:
        xi = tilt.xi_element(ring, height + 1, height)
        rep.add(
            "r-alpha-ratio",
            "R(alpha-tower) = (([eps]-1)/([eps^{1/p}]-1)) alpha-tower (the xi scalar)",
            tate.r_of_alpha_tower_is_xi_tower(tower, xi),
        )
    probes = (
        (CyclotomicTruncation(p, 1, 1), 1, 10**5),
        (CyclotomicTruncation(p, 2, 1), 2, 10**6),
    )
    sampled = any(A.cardinality() ** n > budget for A, n, budget in probes)
    rep.add(
        "freeness",
        "scalar representation of the rank-one model is faithful",
        all(tate.freeness_probe(A, n, budget=budget, rng=rng) for A, n, budget in probes),
        precision={"mode": "sampled", "samples": tate.FREENESS_SAMPLES} if sampled else None,
    )
    rep.add(
        "bott-image",
        "the Bott class maps to ([zeta_{p^n}] - 1) alpha_n at every layer",
        all(tower.bott_image(n) == tower.dlog(n) for n in range(1, height + 1)),
    )
    rep.add(
        "bott-limit",
        "q_log([eps]) = [eps] - 1, so the limit image is ([eps]-1) alpha",
        tate.bott_limit_cross_check(CharPQuotient(p, 1, max(cfg.K // p, 2)), 2),
    )
    return rep.finish()


# --- suite: log-presentation ----------------------------------------------------


def suite_log_presentation(cfg):
    rep = CheckReport("log-presentation")
    p = cfg.p
    ring = CyclotomicTruncation(p, 2, 3)
    y = (ring.zeta(2) - ring.one()) ** (ring.d // p)
    x = ring.divide_exact(ring.from_int(p), y)
    u = ring.divide_exact(y**p, ring.from_int(p))
    ok = x is not None and u is not None and ring.is_unit(u)[0]
    if ok:
        ok = kaehler.log_presentation_check(ring, ring.from_int(p), u, x, y, 1)
    rep.add(
        "dlog-unit-p",
        "dlog m = x dy - u^{-1} du for m = p (unit), via y^(p^N) = um, yx = p^N",
        ok,
        precision={"ring": ring.descriptor(), "N": 1},
    )
    u0 = ring.zeta(2)
    _, u0i = ring.is_unit(u0)
    rep.add(
        "dlog-unit-degenerate",
        "the unit case m = 1, y = u, x = u^{-1}, N = 0",
        kaehler.log_presentation_check(ring, ring.one(), u0, u0i, u0, 0),
    )
    rep.add(
        "dlog-one",
        "dlog 1 = 0",
        kaehler.log_presentation_check(ring, ring.one(), ring.one(), ring.one(), ring.one(), 0),
    )
    return rep.finish()


# --- suite: negative-controls ---------------------------------------------------


def suite_negative_controls(cfg):
    """Deliberately broken inputs; this suite is supposed to FAIL."""
    import json
    import pathlib

    rep = CheckReport("negative-controls")
    rng = cfg.rng("negative-controls")
    p = cfg.p
    fixture_path = pathlib.Path(__file__).parent / "fixtures" / "negative_controls.json"
    fixture = json.loads(fixture_path.read_text())

    ring = CyclotomicTruncation(p, 2, 1)
    cx = sequences.broken_complex(ring, p, fixture["broken_complex"]["n"])
    verdicts = sequences.exactness_report(cx, budget=10**4, rng=rng)
    bad = [v for v in verdicts if v.verdict == "fail"]
    rep.add(
        "broken-complex",
        "a complex with one map corrupted must fail with a witness",
        not bad,  # reported as a failure on purpose
        witnesses=[b.as_dict() for b in bad[:1]],
    )

    table = witt.WittUniversalTable(p, fixture["corrupted_table"]["length"])
    mono, delta = fixture["corrupted_table"]["perturbation"]
    poly = table.eta_sym_polys[1]
    key = tuple(mono)
    poly[key] = poly.get(key, 0) + delta
    witness = witt.verify_ghost_symbolic(table)
    rep.add(
        "corrupted-witt-table",
        "a perturbed universal polynomial must violate the ghost identity",
        witness is None,  # reported as a failure on purpose
        witnesses=[] if witness is None else [witness],
    )
    return rep.finish()


SUITES = {
    "witt-identities": suite_witt_identities,
    "sequences": suite_sequences,
    "kaehler-torsion": suite_kaehler_torsion,
    "tilt-theta": suite_tilt_theta,
    "fixed-points": suite_fixed_points,
    "qlog": suite_qlog,
    "tate-tower": suite_tate_tower,
    "log-presentation": suite_log_presentation,
}

# invocable explicitly, excluded from "all" (it fails by design)
EXTRA_SUITES = {"negative-controls": suite_negative_controls}

# the longest Witt vectors each suite builds, as a function of the config
WITT_LENGTHS = {
    "witt-identities": lambda c: max(4 if c.p == 3 else 3, c.N),
    "sequences": lambda c: max(3, c.n + 1, min(c.n + 3, c.N) if c.N >= c.n + 2 else 0),
    "kaehler-torsion": lambda c: 0,
    "tilt-theta": lambda c: max(min(c.T, c.N), min(c.n, c.N - 1) + 1 if c.N >= 2 else 0),
    "fixed-points": lambda c: 2,
    "qlog": lambda c: 2,
    "tate-tower": lambda c: min(3, max(2, c.N - 1)) + 1,
    "log-presentation": lambda c: 0,
    "negative-controls": lambda c: 2,
}


def run_suites(cfg):
    """Run the named suites one after another (cfg.workers selects nothing)."""
    from .report import AggregateReport

    names = []
    for s in cfg.suites:
        if s == "all":
            names.extend(SUITES)
        elif s in SUITES or s in EXTRA_SUITES:
            names.append(s)
        else:
            raise UsageError(f"unknown suite {s!r}")
    seen = set()
    names = [s for s in names if not (s in seen or seen.add(s))]
    agg = AggregateReport(cfg.to_dict())
    funcs = {**SUITES, **EXTRA_SUITES}
    for s in names:
        agg.add(funcs[s](cfg))
    return agg
