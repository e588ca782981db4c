"""End-to-end suite runs (running the suite is the oracle)."""

import json
import random

import pytest

from wittkit import tate, tilt, witt
from wittkit.cli import main
from wittkit.rings import CyclotomicTruncation, random_payload, ring_from_descriptor
from wittkit.sequences import SAMPLE_CHUNK
from wittkit.suites import SUITES, SuiteConfig, run_suites


def test_spec_invocation_witt_identities(tmp_path):
    # paper-check --suite witt-identities -p 3 -n 2 -N 2 -M 2 --seed 7
    out = tmp_path / "r.json"
    code = main(
        [
            "--suite",
            "witt-identities",
            "-p",
            "3",
            "-n",
            "2",
            "-N",
            "2",
            "-M",
            "2",
            "--seed",
            "7",
            "--budget",
            "20000",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["exit"] == 0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_quickly(name):
    # a tight budget keeps the big enumerations in sampled mode; every
    # verdict must still be pass or truncation-limited
    cfg = SuiteConfig(suites=[name], budget=20000, seed=1).validate()
    agg = run_suites(cfg)
    assert agg.exit_code == 0, agg.to_text()
    checks = agg.reports[0].checks
    assert checks
    assert all(c.verdict in ("pass", "truncation-limited") for c in checks)


@pytest.mark.parametrize("p", [5, 7])
def test_kaehler_torsion_passes_beyond_p_3(p):
    # Omega^1(Z[zeta_p]) has invariants [p] * (p - 2): the suite checks
    # those, not the cyclic module of order p that only p = 3 gives
    agg = run_suites(SuiteConfig(p=p, suites=["kaehler-torsion"]).validate())
    checks = agg.reports[0].checks
    assert not [c.check_id for c in checks if c.verdict == "fail"], agg.to_text()
    assert agg.exit_code == 0
    omega = [c for c in checks if c.check_id == "omega-zeta-p"][0]
    assert omega.precision == {"invariants": [p] * (p - 2)}


def test_fixed_points_report_lists_solutions():
    cfg = SuiteConfig(suites=["fixed-points"], budget=20000).validate()
    agg = run_suites(cfg)
    enum = [
        c for c in agg.reports[0].checks if c.check_id == "fixed-enumeration"
    ][0]
    assert len(enum.precision["solutions"]) == 27
    assert all("junk_s_valuation" in s for s in enum.precision["spurious"])


def test_fixed_points_suite_enumerates_solutions_only_at_n1(monkeypatch):
    # at n = 2 the report reads only the claimed-form inclusion: the suite
    # checks it without enumerating the 19,683 solutions over
    # W_2(charp(3,0,9))
    solved, included = [], []
    solve, include = tate.frobenius_equation_solve, tilt.claimed_inclusion

    def recording_solve(ring, n, *args):
        solved.append(n)
        return solve(ring, n, *args)

    def recording_include(ring, n):
        included.append(n)
        return include(ring, n)

    monkeypatch.setattr(tate, "frobenius_equation_solve", recording_solve)
    monkeypatch.setattr(tilt, "claimed_inclusion", recording_include)
    agg = run_suites(SuiteConfig(suites=["fixed-points"]).validate())
    assert agg.exit_code == 0, agg.to_text()
    assert solved == [1, 1]  # charp(3,0,9) and the K*p shrink ring
    assert included == [1, 2, 1]


def test_tate_tower_samples_freeness_over_budget():
    # W_2(cyc(5,2,1)) has 5^40 elements: the probe samples instead of failing
    agg = run_suites(SuiteConfig(p=5, N=3, suites=["tate-tower"]).validate())
    assert agg.exit_code == 0, agg.to_text()
    freeness = [c for c in agg.reports[0].checks if c.check_id == "freeness"][0]
    assert freeness.verdict == "pass"
    assert freeness.precision == {"mode": "sampled", "samples": 1000}


def test_freeness_probe_samples_the_payloads_of_the_per_payload_loop(monkeypatch):
    ring, n = CyclotomicTruncation(5, 2, 1), 2  # d = 20, 5^40 elements
    raw = witt.raw_witt_ops(ring, 5, n)
    seen, wrap = set(), raw.wrap

    def recording(u):
        seen.add(u)
        return wrap(u)

    monkeypatch.setitem(raw.__dict__, "wrap", recording)
    rng, oracle_rng = random.Random(5), random.Random(5)
    oracle_rng.random()
    rng.random()  # a stream already in use
    assert tate.freeness_probe(ring, n, budget=10**6, rng=rng) is True
    want = {
        tuple(random_payload(ring, oracle_rng) for _ in range(n))
        for _ in range(tate.FREENESS_SAMPLES)
    }
    assert seen == want and len(want) == tate.FREENESS_SAMPLES
    assert rng.getstate() == oracle_rng.getstate()


# The sampled checks of witt-identities at budget 500000: 1000 V-additivity
# pairs over charp(3,0,3), and 1000 samples (x, y) over cyc(3,2,2), drawn
# SAMPLE_CHUNK at a time.  The chosen samples sit in two chunks, the later
# one named first.
CHOSEN = (700, 300)


def _witt_identities_under(cfg, corrupt, draws):
    """The checks of the suite run with add perturbed on the chosen pairs
    and the W_3 product on the chosen x V(y), and the first perturbed pair
    and sample of a per-sample loop over the oracle's draws."""
    p = cfg.p
    charp, cyc = ring_from_descriptor("charp(3,0,3)"), ring_from_descriptor("cyc(3,2,2)")
    c2, c3 = witt.raw_witt_ops(charp, p, 2), witt.raw_witt_ops(charp, p, 3)
    y2, y3 = witt.raw_witt_ops(cyc, p, 2), witt.raw_witt_ops(cyc, p, 3)
    vs = draws["charp(3,0,3)", 2][:2000]
    pairs = [(u.data, v.data) for u, v in zip(vs[::2], vs[1::2])]
    xs, ys = draws["cyc(3,2,2)", 3], draws["cyc(3,2,2)", 2]
    assert len(pairs) == len(xs) == 1000
    assert len({k // SAMPLE_CHUNK for k in CHOSEN}) == 2
    c0, y0 = (charp.zero().data,), (cyc.zero().data,)
    corrupt(c2, "add", [pairs[k] for k in CHOSEN])
    corrupt(y3, "mul", [(xs[k].data, y0 + ys[k].data) for k in CHOSEN])
    bad_pairs = (
        (u, v) for u, v in pairs if c3.add(c0 + u, c0 + v) != c0 + c2.add(u, v)
    )
    bad_samples = (
        ("xV(y)", x, y)
        for x, y in zip(xs, ys)
        if y3.mul(x.data, y0 + y.data) != y0 + y2.mul(y3.frob(x.data), y.data)
    )
    checks = {c.check_id: c for c in run_suites(cfg).reports[0].checks}
    return checks, next(bad_pairs), next(bad_samples)


def test_witt_identities_witnesses_are_the_first_perturbed_samples(corrupt, witt_identity_draws):
    cfg = SuiteConfig(suites=["witt-identities"], seed=4, budget=500000).validate()
    draws = witt_identity_draws(cfg)
    checks, pair, sample = _witt_identities_under(cfg, corrupt, draws)
    vs, xs, ys = draws["charp(3,0,3)", 2], draws["cyc(3,2,2)", 3], draws["cyc(3,2,2)", 2]
    k = min(CHOSEN)
    assert pair == (vs[2 * k].data, vs[2 * k + 1].data)
    assert sample == ("xV(y)", xs[k], ys[k])
    v_additive, xv = checks["v-additive-charp(3,0,3)"], checks["xv-identity-cyc(3,2,2)"]
    assert v_additive.verdict == "fail" and v_additive.witnesses == [pair]
    assert v_additive.precision == {"mode": "sampled pairs", "count": 1000}
    assert xv.verdict == "fail" and [str(w) for w in xv.witnesses] == [str(sample)]


def test_tate_tower_restricts_each_z_once(monkeypatch):
    # R(z_{n+1}) is kept on the tower: the ratio identities, the twist laws
    # and every other R transition of one run build each z_{n+1} once
    calls = []

    def counting_z_element(ring, n):
        calls.append(n)
        return witt.z_element(ring, n)

    monkeypatch.setattr(tate, "z_element", counting_z_element)
    agg = run_suites(SuiteConfig(suites=["tate-tower"], seed=3).validate())
    assert agg.exit_code == 0, agg.to_text()
    checks = {c.check_id: c for c in agg.reports[0].checks}
    height = checks["ratio-identity"].precision["heights"]
    assert checks["twist-law"].verdict == "pass"
    assert calls and len(calls) <= height
    assert len(set(calls)) == len(calls)


def test_each_failing_identity_carries_its_own_witness(monkeypatch):
    # a restriction that drops the first coordinate breaks R F = F R outside
    # characteristic p, and no other identity
    monkeypatch.setattr(
        witt, "restriction", lambda u: witt.WittVector(u.ring, u.p, u.coords[1:])
    )
    agg = run_suites(SuiteConfig(suites=["witt-identities"], budget=1).validate())
    checks = {c.check_id: c for c in agg.reports[0].checks}
    rf, xv = checks["rf-commute-cyc(3,2,2)"], checks["xv-identity-cyc(3,2,2)"]
    assert rf.verdict == "fail" and len(rf.witnesses) == 1
    assert xv.verdict == "pass" and xv.witnesses == []
    assert [c.check_id for c in agg.reports[0].failed] == ["rf-commute-cyc(3,2,2)"]


def test_forced_failures_of_witness_less_checks_carry_a_witness(monkeypatch):
    # F([a]) off by one for every a; a non-unit y with ([zeta]-1) y = [zeta]-1;
    # and [1] q = p^N x solved with N = 1
    frobenius, draw, divide = witt.frobenius, witt.random_witt, witt.teichmuller_divide
    is_unit = CyclotomicTruncation.is_unit
    target = CyclotomicTruncation(3, 2, 1)  # the zeta-congruence ring at N = 2, M = 1

    def off_by_one(u):
        w = frobenius(u)
        if u.ring.descriptor() == "charp(3,0,3)" and u.length == 3:
            w = witt.witt_add(w, witt.witt_one(u.ring, u.p, 2))
        return w

    def ones(ring, p, n, rng):
        w = draw(ring, p, n, rng)
        return witt.witt_one(ring, p, n) if ring == target and n == 2 else w

    def no_units(ring, a):
        return (False, None) if ring == target else is_unit(ring, a)

    def one_too_many(x, a, n_max):
        got = divide(x, a, n_max)
        return (1, got[1]) if a == a.ring.one() else got

    monkeypatch.setattr(witt, "frobenius", off_by_one)
    monkeypatch.setattr(witt, "random_witt", ones)
    monkeypatch.setattr(CyclotomicTruncation, "is_unit", no_units)
    monkeypatch.setattr(witt, "teichmuller_divide", one_too_many)
    agg = run_suites(SuiteConfig(suites=["witt-identities"], budget=1).validate())
    checks = {c.check_id: c for c in agg.reports[0].checks}
    teich = checks["f-teichmuller-charp(3,0,3)"]
    assert teich.verdict == "fail" and [str(w) for w in teich.witnesses] == ["<charp(3,0,3): 0>"]
    congruence = checks["zeta-congruence-unit"]
    assert congruence.verdict == "fail"
    assert [str(w) for w in congruence.witnesses] == ["W[p=3,n=2; 1; 0]"]
    unit = checks["teichmuller-divide-unit"]
    assert unit.verdict == "fail" and len(unit.witnesses) == 1
    assert unit.witnesses[0].startswith("(1, W[p=3,n=1;")
