"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).  Each criterion's stated time budget is
multiplied by BUDGET_SLACK, a constant.
"""

import random
import time

from wittkit.cli import main as cli_main
from wittkit.kaehler import (
    alpha_order_report,
    omega1_monogenic,
    solve_alpha,
    torsion_is_free_rank_one,
)
from wittkit.rings import CharPQuotient, CyclotomicTruncation, IntegerRing
from wittkit.sequences import (
    TwistedModule,
    check_module_axioms,
    exact_rz_complex,
    exactness_report,
    witt_restriction_complex,
)
from wittkit.tate import TateTower, bott_limit_cross_check, r_of_alpha_tower_is_xi_tower
from wittkit.tilt import (
    eps_charp,
    epsilon,
    frobenius_equation_solve,
    project_charp,
    q_log,
    theta,
    theta_r,
    tilt_teichmuller,
    tilt_witt_add,
    xi_element,
)
from wittkit.witt import (
    WittVector,
    frobenius,
    frobenius_power,
    ghost,
    random_witt,
    raw_witt_ops,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_zero,
    z_element,
    get_table,
    verify_ghost_symbolic,
)

BUDGET_SLACK = 6.0


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget
        self.t0 = time.monotonic()

    def done(self, ok):
        dt = time.monotonic() - self.t0
        status = "PASS" if ok and dt < self.budget * BUDGET_SLACK else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} [{dt:.1f}s/{self.budget}s] {self.label}")
        assert ok, f"criterion {self.number} failed: {self.label}"
        assert dt < self.budget * BUDGET_SLACK, (
            f"criterion {self.number} exceeded its {self.budget}s budget ({dt:.1f}s)"
        )


def test_criterion_1_ghost_homomorphism():
    c = Criterion(1, "ghost homomorphism of universal tables, p in {3,5}", 30)
    rng = random.Random(101)
    Z = IntegerRing()
    ok = True
    shapes = [(3, n) for n in (1, 2, 3, 4)] + [(5, n) for n in (1, 2, 3)]
    for p, n in shapes:
        if verify_ghost_symbolic(get_table(p, n)) is not None:
            ok = False
        for _ in range(1000):
            u = WittVector(Z, p, tuple(Z.from_int(rng.randint(-4, 4)) for _ in range(n)))
            v = WittVector(Z, p, tuple(Z.from_int(rng.randint(-4, 4)) for _ in range(n)))
            gu, gv = ghost(u), ghost(v)
            gs = ghost(witt_add(u, v))
            gp = ghost(witt_mul(u, v))
            if any(a.data != b.data + cc.data for a, b, cc in zip(gs, gu, gv)):
                ok = False
                break
            if any(a.data != b.data * cc.data for a, b, cc in zip(gp, gu, gv)):
                ok = False
                break
    c.done(ok)


def test_criterion_2_witt_identities():
    c = Criterion(2, "Witt identities, exhaustive charp + sampled cyclotomic", 60)
    p = 3
    ok = True
    ring = CharPQuotient(3, 0, 3)  # 27 elements, |W_2| = 729
    raw2 = raw_witt_ops(ring, p, 2)
    raw3 = raw_witt_ops(ring, p, 3)
    zero = ring.zero().data
    # FV = p, exhaustive over W_2
    for w in raw2.enumerate_payloads():
        if raw3.frob((zero,) + w) != raw2.scalar_mul(p, w):
            ok = False
            break
    # F[a] = [a^p], exhaustive over A
    for a in ring.enumerate_elements():
        if frobenius(teichmuller(a, p, 3)) != teichmuller(a**p, p, 2):
            ok = False
            break
    # V additivity, exhaustive over all |W_2|^2 = 729^2 pairs
    payloads = list(raw2.enumerate_payloads())
    for u in payloads:
        vu = (zero,) + u
        for v in payloads:
            if raw3.add(vu, (zero,) + v) != (zero,) + raw2.add(u, v):
                ok = False
                break
        if not ok:
            break
    # xV(y) = V(F(x)y) and RF = FR: exhaustive on the small shapes
    for x in raw2.enumerate_payloads():
        wx = raw2.wrap(x)
        fx = frobenius(wx)
        for a in ring.enumerate_elements():
            y = WittVector(ring, p, (a,))
            if witt_mul(wx, verschiebung(y)) != verschiebung(witt_mul(fx, y)):
                ok = False
                break
        if not ok:
            break
    # sampled identities over cyc(3,2,2)
    cyc = CyclotomicTruncation(3, 2, 2)
    rng = random.Random(202)
    for _ in range(1000):
        x3 = random_witt(cyc, p, 3, rng)
        y2 = random_witt(cyc, p, 2, rng)
        if witt_mul(x3, verschiebung(y2)) != verschiebung(witt_mul(frobenius(x3), y2)):
            ok = False
            break
        if restriction_frobenius_mismatch(x3):
            ok = False
            break
        if frobenius(verschiebung(y2)) != witt_scalar3(y2):
            ok = False
            break
        if verschiebung(witt_add(y2, y2)) != witt_add(
            verschiebung(y2), verschiebung(y2)
        ):
            ok = False
            break
    c.done(ok)


def restriction_frobenius_mismatch(x3):
    from wittkit.witt import restriction

    return restriction(frobenius(x3)) != frobenius(restriction(x3))


def witt_scalar3(y):
    from wittkit.witt import witt_scalar_mul

    return witt_scalar_mul(3, y)


def test_criterion_3_witt_sequence_exact():
    c = Criterion(3, "restriction sequence exact, exhaustive |W_{n+1}| <= 10^6", 120)
    ok = True
    instances = [
        (CyclotomicTruncation(3, 2, 1), 1),  # |W_2| = 531441
        (CharPQuotient(3, 0, 3), 3),  # |W_4| = 531441
        (CharPQuotient(3, 0, 3), 1),
        (CyclotomicTruncation(3, 1, 1), 2),
    ]
    for ring, n in instances:
        assert ring.cardinality() ** (n + 1) <= 10**6
        cx = witt_restriction_complex(ring, ring.p, n)
        verdicts = exactness_report(cx, budget=10**6)
        if not all(v.verdict == "pass" and v.mode == "exhaustive" for v in verdicts):
            ok = False
    c.done(ok)


def test_criterion_4_kernel_generator_membership():
    c = Criterion(4, "F(z_2) = 0, F^2(z_3) = 0, F(sum [zeta_{p^2}]^i) = 0, p in {3,5}", 5)
    ok = True
    for p in (3, 5):
        r2 = CyclotomicTruncation(p, 2, 1)
        if not frobenius(z_element(r2, 2)).is_zero():
            ok = False
        big = witt_zero(r2, p, 2)
        for i in range(p):
            big = witt_add(big, teichmuller(r2.zeta(2) ** i, p, 2))
        if not frobenius(big).is_zero():
            ok = False
        r3 = CyclotomicTruncation(p, 3, 1)
        if not frobenius_power(z_element(r3, 3), 2).is_zero():
            ok = False
    # the length-3 kernel-of-F generator for p = 3 as well
    r3 = CyclotomicTruncation(3, 3, 1)
    big = witt_zero(r3, 3, 3)
    for i in range(9):
        big = witt_add(big, teichmuller(r3.zeta(3) ** i, 3, 3))
    if not frobenius(big).is_zero():
        ok = False
    c.done(ok)


def test_criterion_5_exact_rz_instance():
    c = Criterion(5, "twisted restriction-kernel sequence at p=3, n=1, cyc(3,2,1)", 300)
    ring = CyclotomicTruncation(3, 2, 1)
    cx, classifiers = exact_rz_complex(ring, 1)
    verdicts = exactness_report(cx, budget=10**6, classifiers=classifiers)
    by_slot = {v.slot: v for v in verdicts}
    ok = (
        by_slot["composite 0->2"].verdict == "pass"
        and by_slot["composite 1->3"].verdict == "pass"
        and by_slot["composite 0->2"].mode == "exhaustive"
        and by_slot["exact at cyc(3,2,1) (injectivity)"].verdict == "pass"
        and by_slot["exact at W_2(cyc(3,2,1))"].verdict in ("pass", "truncation-limited")
        and by_slot["exact at W_2(cyc(3,2,1))"].mode == "exhaustive"
        and by_slot["exact at W_1(cyc(3,2,1))"].verdict == "pass"
        and by_slot["exact at cyc(3,2,1)/p^1 (surjectivity)"].verdict
        in ("pass", "truncation-limited")
    )
    # "truncation-limited" is only granted when the defect is explained
    # exactly (annihilator / Frobenius defect), so reaching here means the
    # defect was exactly accounted for
    c.done(ok)


def test_criterion_6_theta():
    c = Criterion(6, "theta_n([eps]) = [zeta_{p^n}] and the xi kernel identity", 5)
    ring = CyclotomicTruncation(3, 2, 1)
    eps = epsilon(ring, 2)
    ok = True
    for n in (1, 2):
        if theta_r(tilt_teichmuller(eps, 2), n) != teichmuller(ring.zeta(n), 3, n):
            ok = False
    # xi = 1 + [eps^{1/p}] + ... + [eps^{1/p}]^{p-1} generates ker theta,
    # where theta = theta_1 after Frobenius
    xi = xi_element(ring, 2, 1)
    if not theta(xi).is_zero():
        ok = False
    # and the theta_1 kernel generator 1 + [eps] + ... + [eps]^{p-1}
    terms = [tilt_teichmuller(t, 1) for t in (epsilon(ring, 2) ** 0, eps, eps**2)]
    from wittkit.tilt import tilt_witt_sum_many

    if not theta_r(tilt_witt_sum_many(terms), 1).is_zero():
        ok = False
    c.done(ok)


def test_criterion_7_kaehler_torsion():
    c = Criterion(7, "Kahler torsion structure and the alpha identity", 60)
    ok = True
    om = omega1_monogenic([1, 1, 1])
    tor, free = om.invariant_factors()
    if not (tor == [3] and free == 0):
        ok = False
    if om.is_zero(om.dx) or not om.is_zero([3, 0]):
        ok = False
    for p in (3, 5):
        for N in (2, 3):
            try:
                solve_alpha(CyclotomicTruncation(p, N, 2))
            except ArithmeticError:
                ok = False
    if alpha_order_report(3, 2, 2) != alpha_order_report(3, 3, 3):
        ok = False
    v1, _ = torsion_is_free_rank_one(CyclotomicTruncation(3, 2, 2), 1)
    v2, _ = torsion_is_free_rank_one(CyclotomicTruncation(3, 3, 3), 1)
    if not (v1 and v2):
        ok = False
    c.done(ok)


def test_criterion_8_twisted_module():
    c = Criterion(8, "twisted module law on 10^3 random triples, n in {1,2}", 60)
    ring = CyclotomicTruncation(3, 2, 1)
    rng = random.Random(808)
    ok = True
    for n in (1, 2):
        tm = TwistedModule(ring, n)
        if check_module_axioms(tm, rng, triples=1000):
            ok = False
        y = verschiebung(witt_one(ring, 3, n))
        m = tm.random_element(rng)
        got = tm.action(y, m)
        want = (tuple(3 * x % ring.m for x in m[0]), 3 * m[1])
        if not tm.eq(got, want):
            ok = False
    c.done(ok)


def test_criterion_9_tate_tower():
    c = Criterion(9, "Tate tower transition laws and the twist law", 60)
    ring = CyclotomicTruncation(3, 4, 1)
    tower = TateTower(ring, 3)
    ok = all(tower.ratio_identity_holds(n) for n in (1, 2, 3))
    ok = ok and all(f and r for _, f, r in tower.dlog_compatibility())
    ok = ok and tower.is_f_compatible(tower.alpha_tower())
    ok = ok and tower.is_f_compatible(tower.dlog_tower())
    eps = epsilon(ring, 4)
    count = 0
    for i in range(1, 26):
        w = tilt_teichmuller(eps**i, 3)
        for elem in (tower.alpha_tower(), tower.dlog_tower()):
            if not tower.twist_law_holds(w, elem):
                ok = False
            count += 1
    for i in range(1, 26):
        w = tilt_witt_add(
            tilt_teichmuller(eps**i, 3), tilt_teichmuller(eps ** (i + 1), 3)
        )
        if not tower.twist_law_holds(w, tower.alpha_tower()):
            ok = False
        count += 1
    ok = ok and count >= 75 and tower.twist_law_holds_int(3, tower.alpha_tower())
    xi = xi_element(ring, 4, 3)
    ok = ok and r_of_alpha_tower_is_xi_tower(tower, xi)
    c.done(ok)


def test_criterion_10_fixed_points():
    c = Criterion(10, "fixed points of R: inclusion, enumeration, spurious shrink", 300)
    ok = True
    small = CharPQuotient(3, 0, 9)
    big = CharPQuotient(3, 0, 27)
    for n in (1, 2):
        rep = frobenius_equation_solve(small, n)
        if not rep["inclusion_exact"]:
            ok = False
    r1 = frobenius_equation_solve(small, 1)
    t = small.t_element()
    claimed = {y.coords[0].data for y in r1["claimed"]} | {small.zero().data}
    if claimed != {(small.from_int(cc) * t).data for cc in range(3)}:
        ok = False
    # spurious set strictly shrinks from K = 9 to K = 27
    r2 = frobenius_equation_solve(big, 1)
    v1 = min(s["junk_s_valuation"] for s in r1["spurious"])
    v2 = min(s["junk_s_valuation"] for s in r2["spurious"])
    if not (v2 > v1):
        ok = False
    for s in r2["spurious"]:
        if not all(
            project_charp(big, small, cc).is_zero() for cc in s["junk"].coords
        ):
            ok = False
    c.done(ok)


def test_criterion_11_qlog():
    c = Criterion(11, "q-logarithm identities and [n]_q divisibility", 30)
    ring = CharPQuotient(3, 1, 3)
    eps = eps_charp(ring)
    q = teichmuller(eps, 3, 2)
    val, _ = q_log(q, q, 4)
    ok = val == witt_add(q, witt_neg(witt_one(ring, 3, 2)))
    xsq = teichmuller(eps**2, 3, 2)
    try:
        v5, per5 = q_log(xsq, q, 5)
        ok = ok and len(per5) == 5
    except Exception:
        ok = False
    v3, _ = q_log(xsq, q, 3)
    v4, _ = q_log(xsq, q, 4)
    ok = ok and v3 == v4
    ok = ok and bott_limit_cross_check(CharPQuotient(3, 1, 3), 2)
    c.done(ok)


def test_criterion_12_negative_controls(tmp_path):
    c = Criterion(12, "negative controls fail with witnesses and exit 1", 60)
    out = tmp_path / "neg.json"
    code = cli_main(
        ["--suite", "negative-controls", "--format", "json", "--out", str(out)]
    )
    import json

    data = json.loads(out.read_text())
    fails = [
        chk
        for s in data["suites"]
        for chk in s["checks"]
        if chk["verdict"] == "fail"
    ]
    ok = code == 1 and len(fails) == 2 and all(chk["witnesses"] for chk in fails)
    c.done(ok)
