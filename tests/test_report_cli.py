"""Report schema, determinism, and the CLI exit-code contract."""

import hashlib
import json
import subprocess
import sys

import pytest

from wittkit import cli
from wittkit.cli import main
from wittkit.report import AggregateReport, CheckReport, report_write
from wittkit.suites import SuiteConfig, UsageError, run_suites


def test_suite_config_validation():
    SuiteConfig().validate()
    with pytest.raises(UsageError):
        SuiteConfig(p=4).validate()
    with pytest.raises(UsageError):
        SuiteConfig(n=3, N=2).validate()
    with pytest.raises(UsageError):
        SuiteConfig(T=5, N=2).validate()
    with pytest.raises(UsageError):
        SuiteConfig(T=0, suites=["qlog"]).validate()
    with pytest.raises(UsageError):
        run_suites(SuiteConfig(suites=["nope"]).validate())


def test_report_roundtrip(tmp_path):
    agg = AggregateReport({"p": 3})
    rep = CheckReport("demo")
    rep.add("c1", "x = x", True, precision={"k": 1})
    rep.add("c2", "y = z", False, witnesses=["y != z at 0"])
    agg.add(rep.finish())
    path = tmp_path / "r.json"
    report_write(agg, str(path), "json")
    parsed = json.loads(path.read_text())
    assert parsed == agg.to_json_dict()
    assert parsed["schema"] == "1"
    assert agg.exit_code == 1
    txt = tmp_path / "r.txt"
    report_write(agg, str(txt), "text")
    body = txt.read_text()
    assert "x = x" in body  # the anchor string is cited per check
    assert "witness" in body


def test_report_write_io_error():
    agg = AggregateReport({})
    with pytest.raises(OSError) as exc:
        report_write(agg, "/nonexistent-dir/r.json", "json")
    assert "/nonexistent-dir/r.json" in str(exc.value)


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == [
        "witt-identities",
        "sequences",
        "kaehler-torsion",
        "tilt-theta",
        "fixed-points",
        "qlog",
        "tate-tower",
        "log-presentation",
    ]


def test_cli_usage_errors(capsys):
    assert main(["--suite", "qlog", "-p", "4"]) == 2
    assert main(["--suite", "does-not-exist"]) == 2


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    # a parser per call would leave its cyclic garbage behind on every call
    assert main(["--list"]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["--list"]) == 0
    assert main(["--no-such-option"]) == 2
    assert main(["--suite", "qlog", "-p", "4"]) == 2
    assert capsys.readouterr().out.split() == 2 * list(cli.SUITES)


def test_cli_pass_and_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["--suite", "qlog", "--seed", "3", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "1" and data["exit"] == 0
    assert data["suites"][0]["suite"] == "qlog"


def test_cli_negative_controls_exit_one(tmp_path):
    out = tmp_path / "neg.json"
    code = main(
        ["--suite", "negative-controls", "--format", "json", "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    fails = [
        c
        for s in data["suites"]
        for c in s["checks"]
        if c["verdict"] == "fail"
    ]
    assert fails and all(c["witnesses"] for c in fails)


def test_cli_tilt_theta_failures_carry_witnesses(tmp_path):
    out = tmp_path / "tilt.json"
    argv = ["--suite", "tilt-theta", "-N", "3", "-M", "2", "-T", "3"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 1
    fails = [
        c
        for s in json.loads(out.read_text())["suites"]
        for c in s["checks"]
        if c["verdict"] == "fail"
    ]
    assert {"theta-ring-map", "theta1-kernel"} <= {c["id"] for c in fails}
    assert all(c["witnesses"] for c in fails)


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, workers in ((a, "1"), (b, "2")):
        assert (
            main(
                [
                    "--suite",
                    "qlog",
                    "--suite",
                    "log-presentation",
                    "--seed",
                    "11",
                    "--format",
                    "json",
                    "--out",
                    str(path),
                    "--workers",
                    workers,
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of `paper-check --suite all --seed 7 --format json`, report schema
# 1: a change of the schema, or of any verdict, witness or figure in the
# report, changes these bytes and must record the new digest here
ALL_SEED7_JSON_SHA256 = "0168a26a0457af895afde3119ae19b96a3387b889cd8157c65230678dead23d7"


def test_cli_all_suites_report_bytes_are_pinned(tmp_path):
    path = tmp_path / "all.json"
    assert main(["--suite", "all", "--seed", "7", "--format", "json", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_SEED7_JSON_SHA256


LIGHT = ["--suite", "tilt-theta", "--suite", "kaehler-torsion", "--suite", "qlog", "--suite", "log-presentation"]

# SHA-256 of the JSON report on stdout, and the exit code, of more configs
# at --seed 1 unless stated, under the same rule as ALL_SEED7_JSON_SHA256
PINNED_STDOUT = [
    (LIGHT + ["-N", "4", "-T", "3"], "801c15097566cb5bfa726056be1563e05a6bc937ff201e5fc557b6e2c7d39e6d", 0),
    (
        ["--suite", "tilt-theta", "--suite", "qlog", "--suite", "log-presentation", "-p", "7", "-N", "2"],
        "f644f2adada2267229901b3d4989e8b48a645c8fb16dbdc3045ee0a719a2db66",
        0,
    ),
    (["--suite", "tate-tower", "-p", "5", "-N", "3"], "620963372260c7958c43ad5197e04d18208921a81f4f976cfb6aaf289f705aae", 0),
    (LIGHT, "c8a3c68907c7a565377a3c804ccd46c753db186ce8210901ea85e0726804ef53", 0),
    (
        ["--suite", "witt-identities", "--budget", "500000"],
        "6370d206d6187c81a3c7da5457bee5ca6d2ed74d3bb979226399ad18d31b0f64",
        0,
    ),
    (["--suite", "fixed-points", "-K", "6"], "814e94453e454e9977d0d1d0f2b2ad908a7fc6cf3e1184bb21af70fa8a98b86e", 0),
    # the sampled checks' draw stream: the sequences suite's module checks,
    # the negative controls' witnesses, and m = 25, where 7 of every 32
    # drawn words are rejected
    (
        ["--suite", "sequences", "--budget", "100000"],
        "39c7b2ca11c441f5ea2dbafaf2e44d0972aacc517b035dc25efd9ba61da70931",
        0,
    ),
    (
        ["--suite", "negative-controls", "--seed", "3"],
        "b1a5e4074d3343753858a00f3b80f9197921b86413b86185054aa8d6825cb6be",
        1,
    ),
    (
        ["--suite", "witt-identities", "-p", "5"],
        "4f01ba55753c926720220dcae9f4befe760c25a60b37fd40ca3dd04231170584",
        0,
    ),
]


@pytest.mark.parametrize(
    "argv,digest,code",
    PINNED_STDOUT,
    ids=[
        "light-N4-T3",
        "tilt-qlog-logpres-p7-N2",
        "tate-tower-p5-N3",
        "light",
        "witt-identities",
        "fixed-points-K6",
        "sequences",
        "negative-controls-seed3",
        "witt-identities-p5",
    ],
)
def test_cli_report_bytes_on_stdout_are_pinned(argv, digest, code, capsys):
    # --seed 1 unless argv names another seed: the last --seed wins
    assert main(["--seed", "1"] + argv + ["--format", "json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_env_budget_override(monkeypatch, tmp_path):
    out = tmp_path / "r.json"
    monkeypatch.setenv("PAPERCHECK_BUDGET", "12345")
    assert main(["--suite", "qlog", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["budget"] == 12345
    monkeypatch.setenv("PAPERCHECK_BUDGET", "junk")
    assert main(["--suite", "qlog"]) == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "wittkit.cli", "--list"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "qlog" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["-n", "6", "-N", "7", "--suite", "sequences"],
        ["-p", "5", "-N", "5", "--suite", "witt-identities"],
    ],
)
def test_out_of_envelope_witt_length_is_a_usage_error(argv, capsys):
    # both used to end in a ValueError traceback from the table-length bound
    assert main(argv) == 2
    assert "practical bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "tilt-theta", "-T", "0"],
        ["--suite", "tilt-theta", "-T", "-1"],
        ["--suite", "tilt-theta", "-T", "1", "-N", "1"],
        ["--suite", "tilt-theta", "-T", "2", "-M", "2"],
        ["--suite", "tilt-theta", "-T", "3", "-N", "3", "-M", "3"],
        ["--suite", "tilt-theta", "-T", "2", "-M", "3"],
        ["--suite", "all", "-M", "2"],
    ],
    ids=["T0", "T-1", "T1-N1", "T2-M2", "T3-N3-M3", "T2-M3", "all-M2"],
)
def test_out_of_envelope_tilt_depth_is_a_usage_error(argv, capsys):
    # each used to end in a traceback: a stabilized tilt sum loses min(M, 3)
    # lifts, and tilt-theta then reads lift 1
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("paper-check: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["-M", "2"],
        ["-M", "2", "-N", "5"],
        ["-M", "3", "-N", "3"],
        ["-M", "4", "-N", "3"],
        ["-p", "5", "-M", "2", "-N", "3"],
    ],
    ids=["M2", "M2-N5", "M3-N3", "M4-N3", "p5-M2-N3"],
)
def test_tate_tower_above_m1_is_a_usage_error(argv, capsys):
    # each used to end in a TiltPrecisionError traceback: the suite reads
    # theta_r up to lift h of a tilt sum of depth h + 1, and a stabilized
    # sum loses min(M, 3) lifts
    assert main(["--suite", "tate-tower"] + argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("paper-check: suite tate-tower needs M = 1")


@pytest.mark.parametrize(
    "argv",
    [["-p", "7", "-K", "1"], ["-p", "7"]],
    ids=["p7-K1", "p7"],
)
def test_fixed_points_past_the_solution_budget_is_a_usage_error(argv, capsys):
    # both reach the budget at n = 1: the first on the K*p shrink ring
    # charp(7,0,7), the second on charp(7,0,9) itself
    assert main(["--suite", "fixed-points"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("paper-check: fixed-point solver over W_1(")


@pytest.mark.parametrize(
    "argv",
    [["-p", "5"], ["-p", "3", "-e", "1", "-K", "9"]],
    ids=["p5", "p3-e1-K9"],
)
def test_fixed_points_past_the_old_n2_budget_pass(argv, capsys):
    # these reached the solution budget only in the n = 2 enumeration,
    # which the report never read; at n = 2 the suite now checks only the
    # claimed-form inclusion, so they run to the end
    assert main(["--suite", "fixed-points", "--format", "json"] + argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c["verdict"] for c in checks] == ["pass"] * 5
    assert checks[3]["id"] == "fixed-inclusion-n2"
