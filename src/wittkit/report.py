"""Structured pass/fail reporting.

A CheckResult records one verification: a stable id, the identity it checks
(the "anchor" printed by the text format), a verdict in
{pass, fail, truncation-limited}, witnesses for failures, and precision
metadata.  Verdict semantics: "truncation-limited" marks a statement that
only holds for the completed ring and whose finite-level defect was
explained exactly; it does not fail a run.

JSON output is canonical (sorted keys, no volatile fields) so identical
(config, seed) pairs produce byte-identical files; wall time appears only in
the text rendering.
"""

import json
import time
from dataclasses import dataclass, field


SCHEMA_VERSION = "1"


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    verdict: str  # pass | fail | truncation-limited
    witnesses: list = field(default_factory=list)
    precision: dict = field(default_factory=dict)
    note: str = ""

    def to_json_dict(self):
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "witnesses": [str(w) for w in self.witnesses],
            "precision": self.precision,
            "note": self.note,
        }


class CheckReport:
    def __init__(self, suite):
        self.suite = suite
        self.checks = []
        self.wall_time = 0.0
        self._t0 = time.monotonic()

    def add(self, check_id, anchor, ok, witnesses=None, precision=None, note="", limited=False):
        if ok:
            verdict = "pass"
        elif limited:
            verdict = "truncation-limited"
        else:
            verdict = "fail"
        self.checks.append(
            CheckResult(check_id, anchor, verdict, witnesses or [], precision or {}, note)
        )
        return ok or limited

    def add_verdict(self, check_id, anchor, verdict, witnesses=None, precision=None, note=""):
        self.checks.append(
            CheckResult(check_id, anchor, verdict, witnesses or [], precision or {}, note)
        )

    def finish(self):
        self.wall_time = time.monotonic() - self._t0
        return self

    @property
    def failed(self):
        return [c for c in self.checks if c.verdict == "fail"]

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "checks": [c.to_json_dict() for c in self.checks],
        }


class AggregateReport:
    def __init__(self, config_dict):
        self.config = config_dict
        self.reports = []

    def add(self, report):
        self.reports.append(report)

    @property
    def exit_code(self):
        return 1 if any(r.failed for r in self.reports) else 0

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config,
            "suites": [r.to_json_dict() for r in sorted(self.reports, key=lambda r: r.suite)],
            "exit": self.exit_code,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self):
        lines = [f"schema {SCHEMA_VERSION}; exit {self.exit_code}"]
        cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        lines.append(f"config: {cfg}")
        for r in sorted(self.reports, key=lambda r: r.suite):
            lines.append(f"suite {r.suite}  [{r.wall_time:.2f}s]")
            for c in r.checks:
                mark = {"pass": "PASS", "fail": "FAIL", "truncation-limited": "TRUNC"}[
                    c.verdict
                ]
                lines.append(f"  [{mark}] {c.check_id}  ({c.anchor})")
                if c.note:
                    lines.append(f"         note: {c.note}")
                for w in c.witnesses:
                    lines.append(f"         witness: {w}")
        return "\n".join(lines) + "\n"


def report_write(aggregate, path, fmt="json"):
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    body = aggregate.to_json() if fmt == "json" else aggregate.to_text()
    try:
        with open(path, "w") as fh:
            fh.write(body)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path
