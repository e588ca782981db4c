"""The benchmark's own tests: reference arithmetic against hand-computed
values, the expected-verdict checker, and the tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import pytest

import expected
import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


# --- reference arithmetic, by hand -------------------------------------------------


def test_teichmuller_sum_over_z():
    # ghost(1,0) = (1, 1); (2, 2) = ghost(2, s1) with 2^3 + 3 s1 = 2
    assert ref.witt_add(ref.integers(3), (1, 0), (1, 0)) == (2, -2)


def test_teichmuller_is_multiplicative_over_z():
    assert ref.witt_mul(ref.integers(3), (2, 0), (3, 0)) == (6, 0)


def test_fv_is_p_over_z():
    Z = ref.integers(3)
    assert ref.frobenius(Z, ref.verschiebung(Z, (1,))) == (3,)
    assert ref.ghost(Z, [(2,), (-2,)]) == [(2,), (2,)]


def test_sum_in_w2_of_f3():
    F3 = ref.truncated(3, 0, 1)
    assert ref.witt_add(F3, ((1,), (0,)), ((1,), (0,))) == ((2,), (1,))


def test_cyclotomic_products():
    # Phi_3 = 1 + x + x^2, so x^2 = -1 - x; Phi_9 = 1 + x^3 + x^6, so x^6 = -1 - x^3
    A = ref.cyclotomic(3, 1, 1)
    assert A.reduce(A.mul((0, 1), (0, 1))) == (2, 2)
    B = ref.cyclotomic(3, 2, 1)
    assert B.reduce(B.mul((0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0))) == (2, 0, 0, 2, 0, 0)
    assert ref.cyclotomic(5, 3, 1).d == 100


def test_truncated_product():
    S = ref.truncated(3, 0, 2)
    assert S.reduce(S.mul((0, 1), (0, 1))) == (0, 0)
    assert ref.truncated(3, 1, 3).d == 9


def test_from_ghost_rejects_non_integral_vectors():
    with pytest.raises(ArithmeticError):
        ref.from_ghost(ref.integers(3), [(1,), (2,)])


def test_reference_agrees_with_wittkit():
    import random

    from wittkit import rings, witt

    rng = random.Random(0)
    A, R = rings.CyclotomicTruncation(3, 2, 3), ref.cyclotomic(3, 2, 3)
    for _ in range(5):
        u, v = witt.random_witt(A, 3, 3, rng), witt.random_witt(A, 3, 3, rng)
        a, b = (tuple(c.data for c in w.coords) for w in (u, v))
        assert tuple(c.data for c in witt.witt_mul(u, v).coords) == ref.witt_mul(R, a, b)
        assert tuple(c.data for c in witt.frobenius(u).coords) == ref.frobenius(R, a)


# --- expected verdicts -------------------------------------------------------------


def _report(suite, verdicts, exit_code=0, witnesses=()):
    checks = [
        {"id": cid, "verdict": verdicts.get(cid, "pass"), "witnesses": list(witnesses) if cid in verdicts else [],
         "note": "", "precision": {}}
        for cid in expected.SUITES[suite]
    ]
    return {"suites": [{"suite": suite, "checks": checks}], "exit": exit_code}


def test_all_pass_matches():
    assert expected.check_report(["--suite", "qlog"], _report("qlog", {}), 0) == ([], False)


def test_unexpected_fail_is_a_problem():
    problems, known = expected.check_report(["--suite", "qlog"], _report("qlog", {"qlog-one": "fail"}, 1), 1)
    assert problems and not known


def test_missing_check_is_a_problem():
    report = _report("qlog", {})
    report["suites"][0]["checks"].pop()
    assert expected.check_report(["--suite", "qlog"], report, 0)[0]


def test_known_fault_is_recognised_only_in_its_shape():
    argv = ["--suite", "tate-tower", "-p", "5", "-N", "3"]
    assert expected.check_report(argv, _report("tate-tower", {"freeness": "fail"}, 1), 1) == ([], True)
    # a witness means the probe found something: a different failure
    problems, known = expected.check_report(argv, _report("tate-tower", {"freeness": "fail"}, 1, ["w"]), 1)
    assert problems and not known
    # once fixed, the invocation passes and counts as succeeded
    assert expected.check_report(argv, _report("tate-tower", {}), 0) == ([], False)


def test_slot_rules():
    modes = expected.EXACT_RZ_MODES[2]
    slots = [
        {"slot": name, "verdict": "pass", "mode": mode, "note": "" if name.startswith(("composite", "exact at cyc(3,2,1) (")) else "n"}
        for name, mode in modes.items()
    ]
    assert expected.check_slots(slots, modes) == []
    slots[3]["note"] = ""
    assert expected.check_slots(slots, modes)
    slots[3]["note"], slots[0]["mode"] = "n", "sampled"
    assert expected.check_slots(slots, modes)


# --- failed operations in a round ---------------------------------------------------


class _SteadyClock:
    def sample(self):
        return 0.008

    def scale(self, before, after):
        return 1.0


class _Op:
    calls = 3

    def __init__(self, name, run, problems=(), known_fault=False):
        self.name, self.run = name, run
        self.result = (list(problems), known_fault)

    def digest(self, output):
        return repr(output)

    def check(self, output):
        return self.result


def _boom():
    raise ValueError("boom")


def _two_rounds(op):
    import run

    rounds = run.Rounds([op], _SteadyClock())
    rounds.run_round()
    rounds.run_round()
    return rounds


def test_an_operation_that_raises_fails_every_round():
    rounds = _two_rounds(_Op("raises", _boom))
    assert (rounds.attempted, rounds.failed) == (6, 6)
    assert len(rounds.problems) == 2 and "ValueError: boom" in rounds.problems[0]


def test_a_wrong_output_fails_and_makes_the_run_incorrect():
    rounds = _two_rounds(_Op("wrong", lambda: 41, problems=["41 != 42"]))
    assert (rounds.attempted, rounds.failed) == (6, 6)
    assert rounds.problems == ["41 != 42"]


def test_the_known_fault_fails_without_a_problem():
    rounds = _two_rounds(_Op("known", lambda: 1, known_fault=True))
    assert (rounds.attempted, rounds.failed, rounds.problems) == (6, 6, [])


def test_a_right_output_passes():
    rounds = _two_rounds(_Op("right", lambda: 42))
    assert (rounds.attempted, rounds.failed, rounds.problems) == (6, 0, [])


# --- tracer ------------------------------------------------------------------------


def test_tracer_spans_and_self_time():
    import tracer
    from wittkit import rings, witt

    original = witt.witt_mul
    tr = tracer.Tracer().install()
    try:
        A = rings.CyclotomicTruncation(3, 2, 2)
        u = witt.teichmuller(A.zeta(2), 3, 2)
        witt.witt_mul(u, u)
        layers, inclusive = tr.self_times()
        assert tr.count(["witt.witt_mul"]) == 1
        assert tr.count(["rings.poly_mulmod"]) > 0
        assert layers["witt"] > 0 and layers["rings"] > 0
        assert inclusive["witt.witt_mul"] > 0  # entered from outside: a span
    finally:
        tr.uninstall()
    assert witt.witt_mul is original
