"""Report schema, determinism, and the CLI exit-code contract."""

import json
import subprocess
import sys

import pytest

from wittkit.cli import main
from wittkit.report import AggregateReport, CheckReport, report_parse, report_write
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
        run_suites(SuiteConfig(suites=["nope"]).validate())


def test_report_roundtrip(tmp_path):
    agg = AggregateReport({"p": 3})
    rep = CheckReport("demo")
    rep.add("c1", "x = x", True, precision={"k": 1})
    rep.add("c2", "y = z", False, witnesses=["y != z at 0"])
    agg.add(rep.finish())
    path = tmp_path / "r.json"
    report_write(agg, str(path), "json")
    parsed = report_parse(str(path))
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


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
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
                    "2",
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


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
