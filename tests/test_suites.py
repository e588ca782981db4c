"""End-to-end suite runs (running the suite is the oracle)."""

import json

import pytest

from wittkit.cli import main
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


def test_fixed_points_report_lists_solutions():
    cfg = SuiteConfig(suites=["fixed-points"], budget=20000).validate()
    agg = run_suites(cfg)
    enum = [
        c for c in agg.reports[0].checks if c.check_id == "fixed-enumeration"
    ][0]
    assert len(enum.precision["solutions"]) == 27
    assert all("junk_s_valuation" in s for s in enum.precision["spurious"])


def test_tate_tower_samples_freeness_over_budget():
    # W_2(cyc(5,2,1)) has 5^40 elements: the probe samples instead of failing
    agg = run_suites(SuiteConfig(p=5, N=3, suites=["tate-tower"]).validate())
    assert agg.exit_code == 0, agg.to_text()
    freeness = [c for c in agg.reports[0].checks if c.check_id == "freeness"][0]
    assert freeness.verdict == "pass"
    assert freeness.precision == {"mode": "sampled", "samples": 1000}
