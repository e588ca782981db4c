"""The benchmark's workloads: fixed lists of operations built from a seed.

An operation is one in-process ``paper-check`` invocation or a batch of
library calls; ``calls`` is how many operations it counts for.  ``setup``
builds everything an operation needs before its first timed call,
``run`` is the timed part, and ``check`` compares the output with the
expected-verdict table or with reference.py.  ``run`` re-creates any random
generator it uses, so every round repeats the same inputs.
"""

import contextlib
import hashlib
import io
import json
import random

import expected
import reference as ref


def _rng(seed, label):
    return random.Random(f"{seed}/{label}")


def _payload(w):
    return tuple(c.data for c in w.coords)


class CliOp:
    """One in-process paper-check invocation with a JSON report."""

    calls = 1

    def __init__(self, *argv):
        self.argv = argv
        self.name = "paper-check " + " ".join(argv)

    def setup(self, seed):
        from wittkit import cli

        self.main = cli.main
        self.full_argv = [*self.argv, "--seed", str(seed), "--format", "json"]

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.main(self.full_argv)
        return code, out.getvalue()

    def digest(self, output):
        return hashlib.sha256(output[1].encode()).hexdigest()

    def check(self, output):
        """(problems, whether the output shows the known fault)"""
        code, body = output
        try:
            report = json.loads(body)
        except ValueError:
            return [f"{self.name}: exit {code}, no JSON report"], False
        problems, known_fault = expected.check_report(list(self.argv), report, code)
        return [f"{self.name}: {p}" for p in problems], known_fault


class LibOp:
    """A batch of checked library calls."""

    def digest(self, output):
        return hashlib.sha256(repr(output).encode()).hexdigest()


class RzSweepOp(LibOp):
    """The exact-rz hot loop over a seeded slice of W_2(cyc(3,2,1)): each
    element goes through R z_2 into W_1 and on through F into A/p, and the
    images are collected in a set, as the exhaustive middle slot does."""

    def __init__(self, size, part):
        self.size, self.part = size, part
        self.calls = 2 * size
        self.name = f"exact-rz maps on {size} elements of W_2(cyc(3,2,1)), slice {part}"

    def setup(self, seed):
        from wittkit import rings, sequences

        ring = rings.CyclotomicTruncation(3, 2, 1)
        cx, _ = sequences.exact_rz_complex(ring, 1)
        self.rz, self.fnbar = cx.maps[1], cx.maps[2]
        rng = _rng(seed, f"rz-slice/{self.part}")
        zero = (0,) * ring.d

        def coord():
            return tuple(rng.randrange(3) for _ in range(ring.d))

        # every fourth element is a V-image, which R z must send to zero
        self.inputs = [((zero if i % 4 == 0 else coord()), coord()) for i in range(self.size)]

    def run(self):
        rz, fnbar = self.rz, self.fnbar
        images, composites, image_set = [], [], set()
        for w in self.inputs:
            y = rz(w)
            images.append(y)
            image_set.add(y)
            composites.append(fnbar(y))
        return images, composites, len(image_set)

    def check(self, output):
        images, composites, _ = output
        problems = []
        if any(any(c) for c in composites):
            problems.append("F . R z is not zero on the slice")
        zero = ((0,) * 6,)
        if any(images[i] != zero for i in range(0, self.size, 4)):
            problems.append("R z . V is not zero on the slice")
        # z_2 = [1] + [zeta_9] + [zeta_9^2], and zeta_9 is the class of x
        A = ref.cyclotomic(3, 2, 1)
        teich = [(tuple(int(i == k) for i in range(6)), (0,) * 6) for k in range(3)]
        z = ref.witt_add(A, ref.witt_add(A, teich[0], teich[1]), teich[2])
        for i in range(1, self.size, max(1, self.size // 128)):
            if images[i] != ref.witt_mul(A, z, self.inputs[i])[:-1]:
                problems.append(f"R z disagrees with the reference on {self.inputs[i]}")
                break
        return problems, False


class FreenessOp(LibOp):
    """tate.freeness_probe: wrap and hash every element of a carrier."""

    calls = 1

    def __init__(self, N, M, n):
        self.args, self.n = (3, N, M), n
        self.name = f"freeness probe over W_{n}(cyc(3,{N},{M}))"

    def setup(self, seed):
        from wittkit import rings, tate

        self.probe = tate.freeness_probe
        self.ring = rings.CyclotomicTruncation(*self.args)

    def run(self):
        return self.probe(self.ring, self.n)

    def check(self, output):
        return ([] if output is True else [f"{self.name} returned {output!r}"]), False


class TwistLawOp(LibOp):
    """The twist law R(t x) = phi^{-1}(t) R(x) of the Tate tower over
    cyc(3,3,1), for seeded tilt scalars t = [eps^i] and both towers."""

    def __init__(self, count):
        self.count = count
        self.calls = 2 * count
        self.name = f"twist law on {2 * count} tower elements over cyc(3,3,1)"

    def setup(self, seed):
        from wittkit import rings, tate, tilt

        ring = rings.CyclotomicTruncation(3, 3, 1)
        self.tower = tate.TateTower(ring, 2)
        eps = tilt.epsilon(ring, 3)
        exponents = _rng(seed, self.name).sample(range(1, 81), self.count)
        self.scalars = [tilt.tilt_teichmuller(eps**i, 2) for i in exponents]

    def run(self):
        t = self.tower
        return [t.twist_law_holds(w, elem) for w in self.scalars for elem in (t.alpha_tower(), t.dlog_tower())]

    def check(self, output):
        return ([] if all(output) else [f"{self.name}: the law fails"]), False


class WittOpsOp(LibOp):
    """Seeded witt_add / witt_mul / frobenius / verschiebung through the
    wrapped WittVector API, each result checked against reference.py."""

    def __init__(self, kind, args, n, pairs):
        self.kind, self.args, self.n, self.pairs = kind, args, n, pairs
        self.calls = 4 * pairs
        desc = "Z" if kind == "Z" else f"{kind}({','.join(map(str, args))})"
        self.name = f"{4 * pairs} Witt ops on W_{n}({desc})"

    def setup(self, seed):
        from wittkit import rings, witt

        self.witt = witt
        if self.kind == "cyc":
            self.ring, self.ref = rings.CyclotomicTruncation(*self.args), ref.cyclotomic(*self.args)
        else:
            self.ring, self.ref = rings.IntegerRing(), ref.integers(self.args[0])
        p = self.ref.p
        witt.get_table(p, self.n)
        witt.raw_witt_ops(self.ring, p, self.n)
        rng = _rng(seed, self.name)
        self.inputs = [
            (witt.random_witt(self.ring, p, self.n, rng), witt.random_witt(self.ring, p, self.n, rng))
            for _ in range(self.pairs)
        ]

    def run(self):
        w = self.witt
        return [
            tuple(_payload(r) for r in (w.witt_add(u, v), w.witt_mul(u, v), w.frobenius(u), w.verschiebung(u)))
            for u, v in self.inputs
        ]

    def check(self, output):
        R = self.ref
        for (u, v), got in zip(self.inputs, output):
            a, b = _payload(u), _payload(v)
            want = (ref.witt_add(R, a, b), ref.witt_mul(R, a, b), ref.frobenius(R, a), ref.verschiebung(R, a))
            if got != want:
                return [f"{self.name}: {got} != reference {want} on {a}, {b}"], False
        return [], False


class ExactnessOp(LibOp):
    """exactness_report on exact-rz over a carrier too large for the budget."""

    calls = 1

    def __init__(self, N, budget):
        self.N, self.budget = N, budget
        self.name = f"exactness_report(exact-rz, cyc(3,{N},1), budget {budget})"

    def setup(self, seed):
        from wittkit import rings, sequences

        self.report = sequences.exactness_report
        self.cx, self.classifiers = sequences.exact_rz_complex(rings.CyclotomicTruncation(3, self.N, 1), 1)
        self.seed = seed

    def run(self):
        verdicts = self.report(self.cx, budget=self.budget, rng=_rng(self.seed, self.name), classifiers=self.classifiers)
        return [v.as_dict() for v in verdicts]

    def check(self, output):
        return [f"{self.name}: {p}" for p in expected.check_slots(output, expected.EXACT_RZ_MODES[self.N])], False


class TwistedAxiomsOp(LibOp):
    """check_module_axioms on the F^n-twisted module Omega^1 (+) A."""

    calls = 1

    def __init__(self, N, n, triples):
        self.N, self.n, self.triples = N, n, triples
        self.name = f"twisted module axioms, cyc(3,{N},1), n={n}, {triples} triples"

    def setup(self, seed):
        from wittkit import rings, sequences

        self.axioms = sequences.check_module_axioms
        self.module = sequences.TwistedModule(rings.CyclotomicTruncation(3, self.N, 1), self.n)
        self.seed = seed

    def run(self):
        return [repr(f) for f in self.axioms(self.module, _rng(self.seed, self.name), triples=self.triples)]

    def check(self, output):
        return ([f"{self.name}: axiom fails: {output[0]}"] if output else []), False


# Operations are kept under ~3 s each: the calibration that scales each timed
# call to the reference speed tracks the machine's drift over short calls
# only.  That is why the sampled suites run as three invocations, and why
# `--suite tate-tower` at p = 3 (one 6 s freeness probe over W_2(cyc(3,2,1)))
# is replaced in sweep by the same probe over a carrier of 59,049 elements.
LIGHT = ("--suite", "tilt-theta", "--suite", "kaehler-torsion", "--suite", "qlog", "--suite", "log-presentation")

WORKLOADS = {
    "sweep": {
        "tables": [(3, 1), (3, 2), (3, 3)],
        "ops": lambda: [
            CliOp("--suite", "sequences", "--budget", "100000"),
            *(RzSweepOp(4096, part) for part in range(4)),
            FreenessOp(1, 5, 1),
            TwistLawOp(12),
        ],
    },
    "sampled": {
        "tables": [(3, 1), (3, 2), (3, 3), (3, 4)],
        "ops": lambda: [
            CliOp("--suite", "witt-identities", "--budget", "500000"),
            CliOp("--suite", "fixed-points", "-K", "6"),
            CliOp(*LIGHT),
            ExactnessOp(2, 10**4),
            TwistedAxiomsOp(2, 1, 50),
            TwistedAxiomsOp(2, 2, 50),
        ],
    },
    "wide": {
        "tables": [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)],
        "ops": lambda: [
            CliOp(*LIGHT, "-N", "4", "-T", "3"),
            CliOp(*LIGHT[:2], *LIGHT[4:], "-p", "7", "-N", "2"),
            # the known fault: the suite draws nothing from its seed
            CliOp("--suite", "tate-tower", "-p", "5", "-N", "3"),
            WittOpsOp("cyc", (5, 3, 1), 2, 12),
            WittOpsOp("cyc", (3, 2, 3), 3, 32),
            WittOpsOp("cyc", (3, 3, 1), 4, 4),
            WittOpsOp("Z", (3,), 4, 32),
            ExactnessOp(3, 10**4),
            TwistedAxiomsOp(4, 1, 20),
        ],
    },
}


def build(name, seed):
    """Set up a workload: its tables, ring handles and inputs."""
    from wittkit import witt

    spec = WORKLOADS[name]
    for p, n in spec["tables"]:
        witt.get_table(p, n)
    ops = spec["ops"]()
    for op in ops:
        op.setup(seed)
    return ops
