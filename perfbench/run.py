#!/usr/bin/env python3
"""wittkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a wittkit checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics: set-up time (the median of several fresh interpreters that import
wittkit and build the workload's tables and inputs), the median wall time of
one round of the workload's operations, and peak resident memory.  With
``--trace 1`` it measures the per-layer metrics: a child run with tracing
off gives the untraced round time and the per-layer probes, and this
process then repeats the rounds with spans installed around every public
function of the package.

The machine this runs on is shared, and its speed drifts by a fifth over
tens of seconds.  So every timed call is bracketed by a fixed pure-Python
calibration task that does not touch wittkit, and the reported times are
scaled to the speed at which that task takes Calibration.NOMINAL_S: a time
in seconds at the machine's reference speed.  Each set-up child is scaled
by samples taken in that child.  The raw times are printed beside them.

Every round repeats the same operations on the same inputs.  The first
round's outputs are checked against the expected-verdict table and the
reference arithmetic; later rounds must reproduce them byte for byte (the
SHA-256 of every JSON report is compared).  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
RAISED = object()  # the output of an operation that raised


class Calibration:
    """Schoolbook products in Z[x]/(Phi_27), from reference.py: the same kind
    of interpreter work as wittkit's, but none of its code."""

    NOMINAL_S = 0.008  # a fixed scale: one sample takes 5 to 11 ms on a shared 2-core machine
    PASSES = 5  # a sample is the median of this many passes

    def __init__(self):
        import reference

        rng = random.Random(0)
        self.ring = reference.cyclotomic(3, 3, 1)
        self.pairs = [
            (tuple(rng.randrange(3) for _ in range(18)), tuple(rng.randrange(3) for _ in range(18)))
            for _ in range(200)
        ]

    def sample(self):
        """Seconds per pass of the task, as the median of PASSES passes."""
        times = []
        for _ in range(self.PASSES):
            t0 = time.perf_counter()
            for a, b in self.pairs:
                self.ring.mul(a, b)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, before, after):
        """Factor from raw seconds to seconds at the reference speed, for a
        call made between two samples."""
        return self.NOMINAL_S / ((before + after) / 2)


def import_wittkit():
    """Import wittkit from ./src of the current directory, or exit 2."""
    src = Path.cwd() / "src"
    if not (src / "wittkit" / "__init__.py").is_file():
        print(f"perfbench: no wittkit sources under {src}; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import wittkit

    if not Path(wittkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported {wittkit.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    return wittkit


def environment(wittkit):
    import numpy

    return {
        "kernel": wittkit.impl_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(args):
    """Median set-up time of fresh interpreters, each at the reference speed.

    Each child gets the time just before it is spawned (perf_counter is
    system-wide on Linux), imports wittkit and sets the workload up, and
    reports the time elapsed since the spawn together with the scale of
    calibration samples taken around that work in the same process.  The
    child's exit is not timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run([*cmd, "--setup-only", repr(time.perf_counter())], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up run exited {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print("# set-up runs, raw s: " + " ".join(f"{t['elapsed']:.4f}" for t in times))
    return statistics.median(t["elapsed"] * t["scale"] for t in times)


def report_setup(args):
    """The child of measure_setup: set the workload up, print the timing."""
    t0 = time.perf_counter()
    cal = Calibration()
    before = cal.sample()
    calibration_s = time.perf_counter() - t0
    import_wittkit()
    import workloads

    workloads.build(args.workload, args.seed)
    elapsed = time.perf_counter() - args.setup_only - calibration_s
    print(json.dumps({"elapsed": elapsed, "scale": cal.scale(before, cal.sample())}))
    return 0


class Rounds:
    """Repeat a workload's operations in whole rounds and check every output."""

    def __init__(self, ops, cal):
        self.ops = ops
        self.cal = cal
        self.round_s = []  # raw wall seconds
        self.round_ref_s = []  # seconds at the reference speed
        self.cal_samples = []  # per round: the calibration samples around its operations
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.baseline = None  # round 1, per op: (digest, failed count, seconds)

    def run_round(self):
        elapsed, elapsed_ref, results = 0.0, 0.0, []
        cal = [self.cal.sample()]
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a crash is a failed operation; report it and go on
                out = RAISED
                self.problems.append(f"{op.name}: raised\n{traceback.format_exc()}")
            dt = time.perf_counter() - t0
            cal.append(self.cal.sample())
            elapsed += dt
            elapsed_ref += dt * self.cal.scale(cal[-2], cal[-1])
            results.append((out, dt))
        self.round_s.append(elapsed)
        self.round_ref_s.append(elapsed_ref)
        self.cal_samples.append(cal)
        this_round = []
        for i, (op, (out, dt)) in enumerate(zip(self.ops, results)):
            digest = "raised" if out is RAISED else op.digest(out)
            if self.baseline is not None and digest == self.baseline[i][0]:
                failed = self.baseline[i][1]
            else:
                failed = self.check(op, out)
                if self.baseline is not None:
                    self.problems.append(f"{op.name}: output differs from round 1 ({digest[:16]})")
            this_round.append((digest, failed, dt))
            self.attempted += op.calls
            self.failed += failed
        if self.baseline is None:
            self.baseline = this_round

    def check(self, op, out):
        """Failed operations in one output; records its problems.

        Every call of an operation that raised or whose output is wrong
        counts as failed.  Only the known fault fails without a problem,
        so it leaves the run correct."""
        if out is RAISED:
            return op.calls
        problems, known_fault = op.check(out)
        self.problems.extend(problems)
        return op.calls if problems or known_fault else 0

    def run_for(self, seconds):
        t0 = time.perf_counter()
        while True:
            self.run_round()
            if time.perf_counter() - t0 >= seconds:
                return

    def describe(self):
        for op, (digest, failed, dt) in zip(self.ops, self.baseline):
            state = "FAILED" if failed else "ok"
            print(f"# op {dt:9.4f} s  sha256 {digest[:16]}  {state}  {op.name}")
        print(f"# rounds {len(self.round_s)}, raw s: " + " ".join(f"{t:.4f}" for t in self.round_s))
        print(f"# rounds at reference speed, s: " + " ".join(f"{t:.4f}" for t in self.round_ref_s))
        print("# calibration ms per round: " + " | ".join(" ".join(f"{c * 1e3:.2f}" for c in cal) for cal in self.cal_samples))
        for p in self.problems:
            print(f"# PROBLEM {p}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, cal, workloads):
    ops = workloads.build(args.workload, args.seed)
    rounds = Rounds(ops, cal)
    rounds.run_for(args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds.describe()
    print(f"# raw median round wall time {statistics.median(rounds.round_s):.4f} s")
    metrics = {"wall_s": metric(statistics.median(rounds.round_ref_s), "s"), "peak_rss_mb": metric(peak_mb, "MB")}
    problems = list(rounds.problems)
    if args.layer_probes:
        import probes

        values, probe_problems = probes.run_all(args.seed)
        problems.extend(probe_problems)
        metrics.update({k: metric(v, _unit(k)) for k, v in values.items()})
    return rounds, metrics, problems


def _unit(name):
    """Unit from the metric name: rings.mul_us.cyc3_2_1 is in us, and so on."""
    part = name.split(".")[1]
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if part.endswith(suffix):
            return unit
    return "count"


def run_traced(args, cal, workloads):
    """Per-layer metrics: untraced baseline and probes in a child, then traced rounds here."""
    import tracer as tracing

    child_seconds = max(1, math.ceil(args.seconds / 3))
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(child_seconds), "--trace", "0", "--layer-probes",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced child run exited {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stdout.splitlines()[:-1]:
        print(f"# untraced {line.lstrip('# ')}")

    tr = tracing.Tracer().install()
    ops = workloads.build(args.workload, args.seed)
    tr.clear_spans()
    tr.counts[:] = [0] * len(tr.counts)
    tr.map_evals[0] = tr.elements[0] = 0
    rounds = Rounds(ops, cal)
    per_round, spans = [], 0
    remaining = args.seconds - (time.perf_counter() - t0)
    t_start = time.perf_counter()
    while True:
        rounds.run_round()
        spans += len(tr.span_fn)
        per_round.append(tr.self_times())
        tr.clear_spans()
        if time.perf_counter() - t_start >= remaining:
            break
    tr.uninstall()
    rounds.describe()

    n = len(per_round)
    layers = {name: statistics.median([r[0][name] for r in per_round]) for name in tracing.LAYER_NAMES}
    inclusive = {}
    for _, incl in per_round:
        for name, t in incl.items():
            inclusive[name] = inclusive.get(name, 0.0) + t / n
    suite_times = {k.split("suite_", 1)[1].replace("_", "-"): v for k, v in inclusive.items() if k.startswith("suites.suite_")}
    for name, t in sorted(suite_times.items()):
        print(f"# suite {name}: {t:.4f} s per round (traced)")
    report_s = inclusive.get("sequences.exactness_report", 0.0)
    wall_traced = statistics.median(rounds.round_ref_s)
    values = {
        "rings.mul_calls": tr.count(["rings.poly_mulmod"]) / n,
        "witt.raw_calls": tr.count([f"witt.RawWittOps.{m}" for m in ("add", "mul", "neg", "frob", "scalar_mul")]) / n,
        "witt.wrapped_calls": tr.count([
            f"witt.{f}" for f in ("witt_add", "witt_mul", "witt_neg", "witt_scalar_mul", "frobenius", "verschiebung", "restriction", "teichmuller")
        ]) / n,
        "sequences.map_evals": tr.map_evals[0] / n,
        "sequences.elements_per_s": (tr.elements[0] / n) / report_s if report_s else 0.0,
        "suites.slowest_s": max(suite_times.values(), default=0.0),
        "trace.overhead_s": wall_traced - child["metrics"]["wall_s"]["value"],
        "trace.spans": spans / n,
    }
    values.update({f"{name}.self_s": t for name, t in layers.items()})
    metrics = {k: metric(v, _unit(k)) for k, v in values.items()}
    metrics.update({k: v for k, v in child["metrics"].items() if k not in ("setup_s", "wall_s", "peak_rss_mb")})
    problems = list(rounds.problems)
    if not child["correct"]:
        problems.append("the untraced child run reported incorrect output")
    rounds.attempted += child["attempted"]
    rounds.failed += child["failed"]
    return rounds, metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    ap.add_argument("--layer-probes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # one thread: numpy's BLAS pool would otherwise start threads at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.setup_only is not None:
        return report_setup(args)
    wittkit = import_wittkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(wittkit), sort_keys=True))
    cal = Calibration()
    if args.trace:
        rounds, metrics, problems = run_traced(args, cal, workloads)
    elif args.layer_probes:  # the untraced child of a traced run: no set-up timing
        rounds, metrics, problems = run_untraced(args, cal, workloads)
    else:
        setup_s = measure_setup(args)
        rounds, metrics, problems = run_untraced(args, cal, workloads)
        metrics = {"setup_s": metric(setup_s, "s"), **metrics}
    for p in problems[len(rounds.problems):]:  # describe() printed the rest
        print(f"# PROBLEM {p}")
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": rounds.attempted, "failed": rounds.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
