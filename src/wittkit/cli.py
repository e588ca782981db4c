"""The paper-check command line harness.

Runs named check suites against a configuration (prime, Witt length,
cyclotomic depth, coefficient precision, tilt depth, char-p precision,
budgets, seed) and emits a JSON or text report.  Exit codes: 0 all pass
(truncation-limited does not fail), 1 at least one fail verdict, 2 usage
error.  PAPERCHECK_BUDGET overrides --budget.
"""

import argparse
import functools
import os
import sys

from .report import report_write
from .suites import SUITES, SuiteConfig, UsageError, run_suites


def build_parser():
    ap = argparse.ArgumentParser(
        prog="paper-check",
        description="machine-check Witt vector, tilt, and differential identities on finite cyclotomic approximations",
    )
    ap.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite id or 'all' (repeatable); see --list",
    )
    ap.add_argument("-p", type=int, default=3, help="odd prime (default 3)")
    ap.add_argument("-n", type=int, default=1, help="Witt length parameter")
    ap.add_argument("-N", type=int, default=2, help="cyclotomic depth")
    ap.add_argument("-M", type=int, default=1, help="coefficient precision p^M")
    ap.add_argument("-T", type=int, default=2, help="tilt depth")
    ap.add_argument("-e", type=int, default=0, help="char-p root depth")
    ap.add_argument("-K", type=int, default=9, help="char-p t-adic precision")
    ap.add_argument("--budget", type=int, default=10**6, help="exhaustive-check budget")
    ap.add_argument("--seed", type=int, default=0, help="random seed")
    ap.add_argument("--out", default=None, help="write the report to this path")
    ap.add_argument("--format", choices=["json", "text"], default="text")
    ap.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and checked (>= 1); suites run one after another",
    )
    ap.add_argument("--list", action="store_true", help="print suite ids and exit")
    return ap


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of main, built once per process: parsing leaves it as it
    was, and each build leaves cyclic garbage for the collector."""
    return build_parser()


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.list:
        for name in SUITES:
            print(name)
        return 0
    budget = args.budget
    env_budget = os.environ.get("PAPERCHECK_BUDGET")
    if env_budget is not None:
        try:
            budget = int(env_budget)
        except ValueError:
            print(f"paper-check: bad PAPERCHECK_BUDGET {env_budget!r}", file=sys.stderr)
            return 2
    cfg = SuiteConfig(
        p=args.p,
        n=args.n,
        N=args.N,
        M=args.M,
        T=args.T,
        e=args.e,
        K=args.K,
        budget=budget,
        seed=args.seed,
        workers=args.workers,
        suites=args.suite or ["all"],
    )
    try:
        cfg.validate()
        agg = run_suites(cfg)
    except UsageError as exc:
        print(f"paper-check: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            report_write(agg, args.out, args.format)
        except OSError as exc:
            print(f"paper-check: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(agg.to_json() if args.format == "json" else agg.to_text())
    return agg.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
