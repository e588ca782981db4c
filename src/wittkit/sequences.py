"""Exactness checking for finite complexes, and the concrete instances:
the Witt restriction sequence, the twisted restriction-kernel sequence
(multiply by z then restrict), the twisted module law on Omega^1 (+) A, and
the divisor-chain divisibility probes.

Carriers are finite abelian groups presented as enumerable sets of raw
payloads (hashable tuples); maps are plain callables on payloads.  Exhaustive
verdicts enumerate kernels and image sets; elements of a kernel that miss the
image are either failures (with witness) or, when a classifier explains them
as truncation artifacts, "truncation-limited".
"""

import itertools

from .kaehler import fn_d, fn_d_payload, omega1_for_ring
from .rings import RingElement, random_element
from .witt import (
    frobenius,
    frobenius_power,
    ghost_component,
    ghost_terms,
    random_witt,
    raw_witt_ops,
    restriction,
    teichmuller,
    verschiebung,
    witt_add,
    witt_divide_exact,
    witt_mul,
    witt_neg,
    witt_one,
    z_element,
)


class Carrier:
    """A finite abelian carrier: named, enumerable, with a zero test."""

    def __init__(self, name, size, elements, is_zero):
        self.name = name
        self.size = size
        self._elements = elements
        self.is_zero = is_zero

    def elements(self):
        return self._elements()


def ring_carrier(ring):
    zero = ring.zero().data
    return Carrier(
        ring.descriptor(),
        ring.cardinality(),
        lambda: (e.data for e in ring.enumerate_elements()),
        lambda x: x == zero,
    )


def witt_carrier(ring, p, n):
    raw = raw_witt_ops(ring, p, n)
    zero = (ring.zero().data,) * n
    return Carrier(
        f"W_{n}({ring.descriptor()})",
        ring.cardinality() ** n,
        raw.enumerate_payloads,
        lambda w: w == zero,
    )


def quotient_carrier(ring, k):
    """A / p^k A with canonical representatives (coefficients in [0, p^k))."""
    pk = min(ring.p**k, ring.m)
    return Carrier(
        f"{ring.descriptor()}/p^{k}",
        pk**ring.d,
        lambda: itertools.product(range(pk), repeat=ring.d),
        lambda x: all(c % pk == 0 for c in x),
    )


# carriers above the budget are read through their first SAMPLE elements
SAMPLE = 1000
UNCHECKED = "sampled evidence only (budget exceeded)"


class SlotVerdict:
    __slots__ = ("slot", "verdict", "witness", "note", "mode")

    def __init__(self, slot, verdict, witness=None, note="", mode="exhaustive"):
        self.slot = slot
        self.verdict = verdict
        self.witness = witness
        self.note = note
        self.mode = mode

    def as_dict(self):
        return {
            "slot": self.slot,
            "verdict": self.verdict,
            "witness": repr(self.witness) if self.witness is not None else None,
            "note": self.note,
            "mode": self.mode,
        }


class FiniteComplex:
    """carriers[0] -> carriers[1] -> ... with implied zeros at both ends.

    Exactness at carrier 0 means the first map is injective; at the last
    carrier it means the last map is surjective.
    """

    def __init__(self, name, carriers, maps):
        if len(maps) != len(carriers) - 1:
            raise ValueError("need one map per consecutive carrier pair")
        self.name = name
        self.carriers = carriers
        self.maps = maps


def exactness_report(complex_, budget=10**6, rng=None, classifiers=None):
    """Per-slot verdicts for a finite complex C_0 -> C_1 -> ... -> C_k.

    One scan per source carrier C_i, in order.  A carrier is swept (every
    element) when its size is at most `budget`, and read through its first
    SAMPLE elements otherwise; it is scanned only when some slot reads it.
    Each scanned x is mapped once into {f_i(x): first x}.  That one value
    answers injectivity (i = 0) and the kernel test of the middle slot at C_i
    against the previous map's image.  The composite slot i -> i+2 evaluates
    f_{i+1} once per distinct value of f_i, in order of first occurrence, so
    its witness is the first x with a non-zero composite.  The surjectivity
    slot compares the last carrier with the last map's image.  So f_i is
    evaluated at most |C_i| + min(|C_{i-1}|, |C_i|) times.  A middle or
    surjectivity slot is checked only when both of its carriers are swept;
    otherwise it reports "pass" in sampled mode.  The middle slot between
    the two maps of a failed composite gets no verdict.

    rng is accepted, since callers pass it, and unused: samples are the
    first elements in enumeration order until sampling is seeded (ROADMAP
    item 2).

    classifiers: optional {slot_index: fn(element) -> str | None}; a kernel
    element outside the image with a non-None explanation downgrades the slot
    to "truncation-limited" instead of "fail".
    """
    classifiers = classifiers or {}
    carriers, maps = complex_.carriers, complex_.maps
    last = len(maps)
    swept = [c.size is not None and c.size <= budget for c in carriers]
    mode = ["exhaustive" if s else "sampled" for s in swept]
    composites, slots = [], []
    # image: {f_{i-1}(x): first x}, kept when C_{i-1} and C_i are swept;
    # broken: the composite (i-1) -> (i+1) failed, and slot i gets no verdict
    image, broken = None, False
    for i, (src, f) in enumerate(zip(carriers, maps)):
        slot = f"exact at {src.name}"
        # the kernel test at C_i: membership in the image of the map into C_i
        if i == 0:
            in_image = src.is_zero
        elif broken or image is None:
            in_image = None
        else:
            in_image = image.__contains__
        if i and not broken and in_image is None:
            slots.append(SlotVerdict(slot, "pass", note=UNCHECKED, mode="sampled"))
        keep = swept[i] and swept[i + 1]
        if i == last - 1 and in_image is None and not keep:
            image = None
            break
        classify = classifiers.get(i) if i else None
        tgt_zero = carriers[i + 1].is_zero
        values, witness, note = {}, None, None
        for x in src.elements() if swept[i] else itertools.islice(src.elements(), SAMPLE):
            y = f(x)
            values.setdefault(y, x)
            if in_image and witness is None and tgt_zero(y) and not in_image(x):
                note = classify(x) if classify else None
                witness = x if note is None else None
        if i == 0:
            verdict = "pass" if witness is None else "fail"
            slots.append(SlotVerdict(f"{slot} (injectivity)", verdict, witness, mode=mode[0]))
        elif witness is not None:
            slots.append(SlotVerdict(slot, "fail", witness, "kernel element outside the image"))
        elif in_image:
            verdict = "pass" if note is None else "truncation-limited"
            slots.append(SlotVerdict(slot, verdict, note=note or ""))
        if i < last - 1:
            g, zero = maps[i + 1], carriers[i + 2].is_zero
            witness = next((x for y, x in values.items() if not zero(g(y))), None)
            broken = witness is not None
            note = "composite of consecutive maps is not zero" if broken else ""
            verdict = "fail" if broken else "pass"
            slot = f"composite {i}->{i + 2}"
            composites.append(SlotVerdict(slot, verdict, witness, note, mode[i]))
        image = values if keep else None

    tgt = carriers[last]
    slot = f"exact at {tgt.name} (surjectivity)"
    missing = [] if image is None else [y for y in tgt.elements() if y not in image]
    classify = classifiers.get(last)
    why = classify(missing) if missing and classify else None
    if image is None:
        slots.append(SlotVerdict(slot, "pass", note=UNCHECKED, mode="sampled"))
    elif not missing:
        slots.append(SlotVerdict(slot, "pass"))
    elif why is None:
        slots.append(SlotVerdict(slot, "fail", missing[0], f"{len(missing)} elements miss the image"))
    else:
        slots.append(SlotVerdict(slot, "truncation-limited", note=why))
    return composites + slots


# --- the two Witt-vector sequences --------------------------------------------


def witt_restriction_complex(ring, p, n):
    """0 -> A --V^n--> W_{n+1}(A) --R--> W_n(A) -> 0."""
    zero = ring.zero().data

    def vmap(a):
        return (zero,) * n + (a,)

    def rmap(w):
        return w[:-1]

    return FiniteComplex(
        f"witt-restriction(n={n}, {ring.descriptor()})",
        [ring_carrier(ring), witt_carrier(ring, p, n + 1), witt_carrier(ring, p, n)],
        [vmap, rmap],
    )


def _rz_map(ring, p, n):
    """(z, R z): the payload of z_{n+1} in W_{n+1}(A), and the map
    W_{n+1}(A) -> W_n(A), w -> R(z w), on payloads.

    R is a ring map, so R(z w) = R(z) R(w): one W_n product, never the
    W_{n+1} product whose top coordinate R drops.
    """
    z = z_element(ring, n + 1).data
    mul, z_low = raw_witt_ops(ring, p, n).mul, z[:-1]

    def rz(w):
        return mul(z_low, w[:-1])

    return z, rz


def exact_rz_complex(ring, n):
    """0 -> A --V^n--> W_{n+1}(A) --R z_{n+1}--> W_n(A) --F^n--> A/p^n A -> 0.

    Returns (complex, classifiers): the truncation-limited slots carry
    explanations (annihilator of the z-generator's first coordinate for the
    middle slot, the Frobenius defect of A/pA for the surjectivity slot).
    """
    p = ring.p
    zero = ring.zero().data
    z, rz = _rz_map(ring, p, n)
    pk = min(p**n, ring.m)
    terms = ghost_terms(ring, p, n)

    def vmap(a):
        return (zero,) * n + (a,)

    def fnbar(w):
        # F^n(w, 0)_0 is the ghost component w_n(w, 0); payloads are
        # already reduced mod m, so only p^n < m needs a reduction
        g = ghost_component(ring, p, w[:terms], n)
        return g if pk == ring.m else tuple(c % pk for c in g)

    z0_elem = RingElement(ring, z[0])

    def classify_middle(w):
        first = RingElement(ring, w[0])
        if (z0_elem * first).is_zero():
            return (
                "first coordinate lies in the annihilator of the z-generator's "
                "first coordinate (nilpotent truncation artifact)"
            )
        return None

    frob_image = None

    def classify_surj(missing):
        nonlocal frob_image
        if frob_image is None:
            frob_image = set()
            for a in ring.enumerate_elements():
                b = a ** (p**n)
                frob_image.add(tuple(c % pk for c in b.data))
        defect = {tuple(c % pk for c in itertools.chain(y)) for y in missing}
        expected = set()
        for y in itertools.product(range(pk), repeat=ring.d):
            if y not in frob_image:
                expected.add(y)
        if defect == expected:
            return (
                "missing classes are exactly the p^n-power defect of the "
                "truncation (the complete ring has surjective Frobenius)"
            )
        return None

    cx = FiniteComplex(
        f"exact-rz(n={n}, {ring.descriptor()})",
        [
            ring_carrier(ring),
            witt_carrier(ring, p, n + 1),
            witt_carrier(ring, p, n),
            quotient_carrier(ring, n),
        ],
        [vmap, rz, fnbar],
    )
    return cx, {1: classify_middle, 3: classify_surj}


def broken_complex(ring, p, n):
    """Negative control: the twisted restriction sequence with V replaced by
    the Teichmuller section a -> (a, 0, ..., 0).  The composite with the
    z-twist is no longer zero, so the checker must fail with a witness."""
    zero = ring.zero().data
    rz = _rz_map(ring, p, n)[1]

    def tmap(a):
        return (a,) + (zero,) * n

    return FiniteComplex(
        f"broken-rz(n={n}, {ring.descriptor()})",
        [ring_carrier(ring), witt_carrier(ring, p, n + 1), witt_carrier(ring, p, n)],
        [tmap, rz],
    )


# --- the twisted module on Omega^1 (+) A ---------------------------------------


class TwistedModule:
    """Omega^1_A (+) A as a W_{n+1}(A)-module:
    y . (alpha, a) = (F^n(y) alpha - a * fnd(y), F^n(y) a)."""

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n
        self.omega = omega1_for_ring(ring)
        self._ghost_terms = ghost_terms(ring, ring.p, n)

    def action(self, y, m):
        """On payloads: F^n(y)_0 is the ghost component w_n(y), and its
        powers y_i^(p^(n-i)) are each one product past the powers of fn_d;
        only the powers that w_n(y) reads are formed."""
        ring, u = self.ring, y.data
        if y.length != self.n + 1:
            raise ValueError("shape mismatch: scalar must live in W_{n+1}(A)")
        if y.ring is not ring and y.ring != ring:
            raise ValueError("owner mismatch")
        alpha, a = m
        fnd_y, powers = fn_d_payload(ring, ring.p, u, self.omega)
        t = self._ghost_terms
        powers = [*map(ring._mul, powers[:t], u), *u[self.n : t]]
        fny = ghost_component(ring, ring.p, u[:t], self.n, powers)
        part1 = ring._sub(
            ring._mul(fny, self.omega._canonical(alpha)), ring._mul(a.data, tuple(fnd_y))
        )
        return (part1, RingElement(ring, fny) * a)

    def add(self, m1, m2):
        a1, x1 = m1
        a2, x2 = m2
        return (
            tuple((u + v) % self.ring.m for u, v in zip(a1, a2)),
            x1 + x2,
        )

    def eq(self, m1, m2):
        return self.omega.eq(list(m1[0]), list(m2[0])) and m1[1] == m2[1]

    def random_element(self, rng):
        vec = tuple(rng.randrange(self.ring.m) for _ in range(self.omega.gens))
        return (vec, random_element(self.ring, rng))


def check_module_axioms(tm, rng, triples=100):
    """(y z) . m = y . (z . m) and (y + z) . m = y.m + z.m on random triples."""
    ring, n = tm.ring, tm.n
    p = ring.p
    failures = []
    for k in range(triples):
        y = random_witt(ring, p, n + 1, rng)
        z = random_witt(ring, p, n + 1, rng)
        m = tm.random_element(rng)
        assoc_l = tm.action(witt_mul(y, z), m)
        assoc_r = tm.action(y, tm.action(z, m))
        if not tm.eq(assoc_l, assoc_r):
            failures.append(("associativity", y, z, m))
            continue
        dist_l = tm.action(witt_add(y, z), m)
        dist_r = tm.add(tm.action(y, m), tm.action(z, m))
        if not tm.eq(dist_l, dist_r):
            failures.append(("distributivity", y, z, m))
    one = witt_one(ring, p, n + 1)
    m = tm.random_element(rng)
    if not tm.eq(tm.action(one, m), m):
        failures.append(("identity", one, None, m))
    return failures


def check_fnd_leibniz(ring, n, rng, samples=50):
    """fnd(x w) = F^n(x) fnd(w) + F^n(w) fnd(x), exact on samples."""
    omega = omega1_for_ring(ring)
    p = ring.p
    bad = []
    for _ in range(samples):
        x = random_witt(ring, p, n + 1, rng)
        w = random_witt(ring, p, n + 1, rng)
        lhs = fn_d(witt_mul(x, w), omega)
        fx = frobenius_power(x, n).coords[0]
        fw = frobenius_power(w, n).coords[0]
        rhs = [
            (a + b) % ring.m
            for a, b in zip(omega.mult(fw, fn_d(x, omega)), omega.mult(fx, fn_d(w, omega)))
        ]
        if not omega.eq(lhs, rhs):
            bad.append((x, w))
    return bad


def check_xv_identity(ring, p, n, rng, samples=100):
    """x V(y) = V(F(x) y) on samples (the formula behind the module law)."""
    bad = []
    for _ in range(samples):
        x = random_witt(ring, p, n + 1, rng)
        y = random_witt(ring, p, n, rng)
        lhs = witt_mul(x, verschiebung(y))
        rhs = verschiebung(witt_mul(frobenius(x), y))
        if lhs != rhs:
            bad.append((x, y))
    return bad


def check_vn_module_hom(ring, p, n, rng, samples=100):
    """V^n: A -> W_{n+1}(A) is a module map for the F^n-structure:
    x V^n(a) = V^n(F^n(x) a)."""
    bad = []
    for _ in range(samples):
        x = random_witt(ring, p, n + 1, rng)
        a = random_element(ring, rng)
        va = teichmuller(a, p, 1)
        for _ in range(n):
            va = verschiebung(va)
        lhs = witt_mul(x, va)
        fa = frobenius_power(x, n).coords[0] * a
        rhs = teichmuller(fa, p, 1)
        for _ in range(n):
            rhs = verschiebung(rhs)
        if lhs != rhs:
            bad.append((x, a))
    return bad


# --- divisor-chain divisibility (the Witt intersection lemma at truncation) ----


def check_witt_intersection(ring, n, s_max, rng, samples=5):
    """Constructive divisibility along the divisor chain.

    Verifies the chain identity
        R^s(z_{n+s}) ... R(z_{n+1}) * ([zeta_{p^{n+s}}] - 1) = [zeta_{p^n}] - 1
    exactly in W_n(A), then divides constructed intersection members by
    [zeta_{p^n}] - 1 and checks recovery up to the annihilator.  A non-member
    control (the unit 1) must fail to divide.
    """
    p = ring.p
    if ring.N < n + s_max:
        raise ValueError("depth shortfall: need N >= n + s_max")
    one = witt_one(ring, p, n)
    zeta_n = witt_add(teichmuller(ring.zeta(n), p, n), witt_neg(one))
    results = {"chain_identity": True, "members_divide": True, "nonmember_rejected": True}
    witnesses = []
    chain = one
    for s in range(1, s_max + 1):
        zk = z_element(ring, n + s)
        for _ in range(s):
            zk = restriction(zk)
        chain = witt_mul(chain, zk)
        zeta_ns = witt_add(teichmuller(ring.zeta(n + s), p, n), witt_neg(one))
        if witt_mul(chain, zeta_ns) != zeta_n:
            results["chain_identity"] = False
            witnesses.append(("chain identity fails", s))
        for _ in range(samples):
            w = random_witt(ring, p, n, rng)
            member = witt_mul(chain, witt_mul(zeta_ns, w))
            q = witt_divide_exact(member, zeta_n)
            if q is None or witt_mul(zeta_n, q) != member:
                results["members_divide"] = False
                witnesses.append(("member failed to divide", s, w))
    if witt_divide_exact(one, zeta_n) is not None:
        results["nonmember_rejected"] = False
        witnesses.append(("unit divided by [zeta]-1",))
    results["witnesses"] = witnesses
    return results
