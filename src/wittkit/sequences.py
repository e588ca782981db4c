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

import numpy as np

from .kaehler import omega1_for_ring
from ._compiler import _batch_mulmod, _coeff_batch_dtype
from .rings import RingElement, random_coefficients, random_element, random_payload
from .witt import (
    get_table,
    random_witt,
    raw_witt_ops,
    restriction,
    teichmuller,
    verschiebung_batch,
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
        ring.enumerate_payloads,
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
    item 3(b)).

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
    W_{n+1} product whose top coordinate R drops, compiled with R(z) as its
    fixed first operand.
    """
    z = z_element(ring, n + 1).data
    mul = get_table(p, n).compiled("prod", ring, fixed=dict(enumerate(z[:-1])))

    def rz(w):
        return mul(w[:-1])

    return z, rz


def _fn_map(ring, p, n):
    """F^n: W_n(A) -> A/p^n A, w -> F^n(w)_0 mod p^n, on payloads.

    F shifts the ghost components, so F^n(w, 0)_0 is the ghost component
    w_n(w, 0), read from the ghost block of W_{n+1} compiled with its last
    coordinate fixed at zero; its pruning mod m drops the terms that
    vanish.  Payloads are already reduced mod m, so only p^n < m needs a
    reduction.
    """
    ghost = get_table(p, n + 1).compiled("ghost", ring, fixed={n: ring.zero().data})
    pk = min(p**n, ring.m)
    if pk == ring.m:
        return lambda w: ghost(w)[n]
    return lambda w: tuple([c % pk for c in ghost(w)[n]])


def frobenius_image(ring, n):
    """The classes mod p^n of the p^n-th powers of A, as coefficient tuples
    reduced mod p^n.  a = b mod p gives a^(p^n) = b^(p^n) mod p^(n+1), so
    the representatives of A/pA, coefficients in [0, p), give them all;
    each is mapped by the compiled F^n on its Teichmuller payload
    (a, 0, ..., 0)."""
    p = ring.p
    fn, zeros = _fn_map(ring, p, n), (ring.zero().data,) * (n - 1)
    return {fn((a,) + zeros) for a in itertools.product(range(p), repeat=ring.d)}


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

    def vmap(a):
        return (zero,) * n + (a,)

    z0_elem = RingElement(ring, z[0])

    def classify_middle(w):
        first = RingElement(ring, w[0])
        if (z0_elem * first).is_zero():
            return (
                "first coordinate lies in the annihilator of the z-generator's "
                "first coordinate (nilpotent truncation artifact)"
            )
        return None

    def classify_surj(missing):
        # missing: the classes of A/p^n outside the image of F^n, reduced
        image = frobenius_image(ring, n)
        expected = {y for y in itertools.product(range(pk), repeat=ring.d) if y not in image}
        if set(missing) == expected:
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
        [vmap, rz, _fn_map(ring, p, n)],
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

# The sampled checks below draw and evaluate their samples SAMPLE_CHUNK at a
# time, as numpy batches: a chunk's arrays stay within a fraction of a MB, and
# a chunk's coefficients are drawn in one call from the same random stream.
SAMPLE_CHUNK = 256


def sample_chunks(rng, count, *layout):
    """The chunks of count samples over one quotient ring.  A sample is one
    payload of each raw_witt_ops in layout, in order; a chunk's coefficients
    are drawn by one random_coefficients call, so the draws, and rng's state
    after them, are those of one random_witt per payload in sample order.
    Each chunk is (batches, at): one batch per entry of layout, built from
    the coefficient array, and at(i), the i-th sample as WittVectors."""
    ring = layout[0].ring
    ends = list(itertools.accumulate(raw.n for raw in layout))
    for start in range(0, count, SAMPLE_CHUNK):
        k = min(SAMPLE_CHUNK, count - start)
        rows = random_coefficients(ring, rng, k * ends[-1] * ring.d).reshape(k, ends[-1], ring.d)
        batches = tuple(raw.from_coefficients(rows[:, e - raw.n : e]) for raw, e in zip(layout, ends))

        def at(i, rows=rows):
            payloads = tuple(map(tuple, rows[i].tolist()))
            return tuple(raw.wrap(payloads[e - raw.n : e]) for raw, e in zip(layout, ends))

        yield batches, at


def _failures(holds, at):
    """at(k) for every k, in order, at which the mask holds is False."""
    return [at(int(k)) for k in np.flatnonzero(~holds)]


def _stack(*batches):
    """One batch of the elements of several, in order."""
    return tuple(np.concatenate(cs) for cs in zip(*batches))


def _split(batch, k):
    """A batch cut into k batches of equal size: the inverse of _stack."""
    return list(zip(*(np.split(c, k) for c in batch)))


class TwistedModule:
    """Omega^1_A (+) A as a W_{n+1}(A)-module:
    y . (alpha, a) = (F^n(y) alpha - a * fnd(y), F^n(y) a).

    An element is a pair (alpha, a): alpha a coefficient tuple in the
    generators x^j dx of Omega^1, a a RingElement.  The action runs on
    batches of coefficient rows ((B, d) arrays, multiplied by
    _compiler._batch_mulmod), with the scalars as a batch of raw_witt_ops(ring, p,
    n + 1); action(y, m) is the batch of one.  F^n(y)_0 is the ghost
    component w_n(y), and the twist block of W_{n+1} (witt._witt_program)
    computes it together with the powers y_i^(p^(n-i) - 1) that fnd reads,
    each y_i^(p^(n-i)) of w_n one product past them, and the terms that
    vanish mod m pruned; d is no ring map, so the products by d(y_i) are
    batch products outside the block.
    Equality in Omega^1 reads the Smith basis of its relations: an element
    is zero iff its coordinates vec * V there are divisible by the invariant
    factors.  Every invariant factor divides m (m dx^j is a relation), so V
    is kept reduced mod m.
    """

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n
        self.omega = omega1_for_ring(ring)
        self._raw = raw_witt_ops(ring, ring.p, n + 1)
        self._twist = get_table(ring.p, n + 1).compiled("twist", ring, batch=True)
        self._mul = _batch_mulmod(ring)
        self._dtype = dtype = _coeff_batch_dtype(ring)
        m, d = ring.m, ring.d
        # d(sum_i a_i x^i) = sum_i i a_i x^(i-1) dx
        self._d_scale = np.arange(1, d, dtype=dtype)
        diag, v_cols, _ = self.omega._snf_data()
        v = np.zeros((d, d), dtype=dtype)
        for j, col in enumerate(v_cols):
            for i, c in col.items():
                v[i, j] = c % m
        self._smith_v, self._smith_diag = v, np.array(diag, dtype=dtype)

    def _d(self, a):
        out = np.zeros_like(a)
        out[:, :-1] = a[:, 1:] * self._d_scale % self.ring.m
        return out

    def _scalars(self, ys):
        """(F^n(y)_0, fnd(y)) as coefficient rows, for a batch ys of
        W_{n+1}(A): fnd(y) = sum_i y_i^(p^(n-i) - 1) d y_i, with w_n(y) and
        the powers (i < n) from the twist block."""
        rows = self._raw.coefficient_rows
        fny, *powers = self._twist(ys)
        u = list(map(rows, ys))
        # one power's rows at a time, and d(y_n) last: the batch products
        # run with no more (B, d) arrays alive than they read
        acc = sum(self._mul(rows(x), self._d(c)) for x, c in zip(powers, u))
        return rows(fny), (acc + self._d(u[self.n])) % self.ring.m

    def _act(self, scalars, ms):
        (fny, fnd), (alpha, a), mul = scalars, ms, self._mul
        return (mul(fny, alpha) - mul(a, fnd)) % self.ring.m, mul(fny, a)

    def _add(self, m1, m2):
        return tuple((x + y) % self.ring.m for x, y in zip(m1, m2))

    def _omega_eq(self, alpha1, alpha2):
        y = (alpha1 - alpha2) % self.ring.m @ self._smith_v
        return (y % self._smith_diag == 0).all(axis=1)

    def _eq(self, m1, m2):
        return self._omega_eq(m1[0], m2[0]) & (m1[1] == m2[1]).all(axis=1)

    def action(self, y, m):
        ring = self.ring
        if y.length != self.n + 1:
            raise ValueError("shape mismatch: scalar must live in W_{n+1}(A)")
        if y.ring is not ring and y.ring != ring:
            raise ValueError("owner mismatch")
        alpha, a = m
        ms = tuple(np.array([c], dtype=self._dtype) for c in (self.omega._canonical(alpha), a.data))
        part1, part2 = self._act(self._scalars(self._raw.to_batch([y.data])), ms)
        return tuple(part1[0].tolist()), RingElement(ring, tuple(part2[0].tolist()))

    def eq(self, m1, m2):
        return self.omega.eq(list(m1[0]), list(m2[0])) and m1[1] == m2[1]

    def random_element(self, rng):
        return (random_payload(self.ring, rng), random_element(self.ring, rng))


def check_module_axioms(tm, rng, triples=100):
    """(y z) . m = y . (z . m) and (y + z) . m = y.m + z.m on random triples
    (y, z, m), drawn in that order; then 1 . m = m on one more m.  A triple
    that fails associativity is not checked for distributivity."""
    ring, n, raw = tm.ring, tm.n, tm._raw
    p = ring.p
    raw1 = raw_witt_ops(ring, p, 1)
    failures = []
    # m is drawn as tm.random_element draws it: alpha's payload, then a
    for (ys, zs, alphas, elems), at in sample_chunks(rng, triples, raw, raw, raw1, raw1):
        ms = tuple(raw1.coefficient_rows(c) for (c,) in (alphas, elems))
        # the scalars y, z, y z and y + z, each on m, as one batch; then y on z.m
        scalars = tm._scalars(_stack(ys, zs, raw.mul_batch(ys, zs), raw.add_batch(ys, zs)))
        y_m, z_m, yz_m, sum_m = _split(tm._act(scalars, _stack(ms, ms, ms, ms)), 4)
        assoc = tm._eq(yz_m, tm._act(_split(scalars, 4)[0], z_m))
        dist = tm._eq(sum_m, tm._add(y_m, z_m))
        for k in np.flatnonzero(~(assoc & dist)):
            y, z, alpha, a = at(int(k))
            kind = "associativity" if not assoc[k] else "distributivity"
            failures.append((kind, y, z, (alpha.data[0], *a.coords)))
    one = witt_one(ring, p, n + 1)
    m = tm.random_element(rng)
    if not tm.eq(tm.action(one, m), m):
        failures.append(("identity", one, None, m))
    return failures


def check_fnd_leibniz(ring, n, rng, samples=50):
    """fnd(x w) = F^n(x) fnd(w) + F^n(w) fnd(x), exact on samples (x, w),
    with F^n(.)_0 and fnd of x w, x and w from one call of the twisted
    module's scalars (its twist block); x w is the compiled Witt product."""
    tm = TwistedModule(ring, n)
    raw, mul = tm._raw, tm._mul
    bad = []
    for (xs, ws), at in sample_chunks(rng, samples, raw, raw):
        fn0, fnd = tm._scalars(_stack(raw.mul_batch(xs, ws), xs, ws))
        _, fx, fw = np.split(fn0, 3)
        lhs, fnd_x, fnd_w = np.split(fnd, 3)
        rhs = (mul(fw, fnd_x) + mul(fx, fnd_w)) % ring.m
        bad += _failures(tm._omega_eq(lhs, rhs), at)
    return bad


def check_xv_identity(ring, p, n, rng, samples=100):
    """x V(y) = V(F(x) y) on samples (x, y) over a quotient ring (the formula
    behind the module law)."""
    raw, low = raw_witt_ops(ring, p, n + 1), raw_witt_ops(ring, p, n)
    bad = []
    for (xs, ys), at in sample_chunks(rng, samples, raw, low):
        lhs = raw.mul_batch(xs, verschiebung_batch(ys))
        rhs = verschiebung_batch(low.mul_batch(raw.frob_batch(xs), ys))
        bad += _failures(raw.equal_batch(lhs, rhs), at)
    return bad


def check_vn_module_hom(ring, p, n, rng, samples=100):
    """V^n: A -> W_{n+1}(A) is a module map for the F^n-structure:
    x V^n(a) = V^n(F^n(x) a), on samples (x, a) over a quotient ring, with
    F^n(x)_0 = w_n(x) read from the twist block of W_{n+1}, the one that the
    twisted module compiles."""
    raw, raw1 = raw_witt_ops(ring, p, n + 1), raw_witt_ops(ring, p, 1)
    twist = get_table(p, n + 1).compiled("twist", ring, batch=True)
    bad = []
    for (xs, a), at in sample_chunks(rng, samples, raw, raw1):
        zeros = (np.zeros_like(a[0]),) * n
        fa = raw1.mul_batch(twist(xs)[:1], a)
        holds = raw.equal_batch(raw.mul_batch(xs, zeros + a), zeros + fa)
        bad += [(x, *w.coords) for x, w in _failures(holds, at)]
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
