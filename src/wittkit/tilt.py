"""Finite-precision tilts and the maps back to Witt vectors.

Two complementary models:

* Lift model.  A TiltElement over a cyclotomic truncation A is a tuple of
  lifts (t^(0), ..., t^(T)) in A with (t^(i+1))^p = t^(i) mod pA.
  Multiplication is exact and coordinatewise; addition is the stabilized
  limit (s+t)^(i) = (s^(i+k) + t^(i+k))^(p^k) truncated at k = delta, losing
  delta lifts, delta = min(M, 3).  Witt vectors of tilts compute through
  the compiled W_n(A) operations (raw_witt_ops): a sum, product or k-fold
  sum runs on the payloads of the operands' lifts j, exactly in W_n(A), and
  each coordinate is then stabilized once like a sum, losing delta lifts.
  Any integral lift of the mod-p Witt polynomials stabilizes to the same
  tilt value (Bhatt-Morrow-Scholze, Integral p-adic Hodge theory, sec. 3).
  Three cases are exact at full depth: adding zero, F (the coordinatewise
  p-th power, the tilt having characteristic p), and a product with a
  Teichmuller factor, [a] x = (a^(p^i) x_i).  theta_r sends a truncated
  Witt vector of tilts to W_r(A); theta (= theta_1 after Frobenius) sends
  it to A.

* Characteristic-p model.  The tilt of the standard cyclotomic tower is
  approximated by F_p[s]/(s^(K p^e)) with eps = 1 + t, t = s^(p^e).  This is
  an honest ring, so W_n of it has exact arithmetic; the q-logarithm and the
  Frobenius fixed-point equation phi(y) = (([eps^p]-1)/([eps]-1)) y live
  here.
"""

import functools
import itertools

from .modlin import Elimination
from .rings import CharPQuotient, RingElement
from .witt import (
    WittVector,
    frobenius,
    frobenius_power,
    raw_witt_ops,
    teichmuller,
    witt_add,
    witt_divide_exact,
    witt_is_unit,
    witt_mul,
    witt_neg,
    witt_one,
    witt_zero,
)


class TiltPrecisionError(ArithmeticError):
    """Stabilized addition failed its agreement check, or depth ran out."""


def default_delta(ring):
    return min(getattr(ring, "M", 1), 3)


def _omega_teichmuller(c, m, p):
    """Teichmuller representative of c mod p^M: the fixed point of x -> x^p."""
    c %= m
    seen = c
    for _ in range(64):
        nxt = pow(seen, p, m)
        if nxt == seen:
            return seen
        seen = nxt
    raise ArithmeticError("Teichmuller iteration did not converge")


class TiltElement:
    """A depth-T p-power compatible sequence of lifts in A."""

    __slots__ = ("base", "lifts")

    def __init__(self, base, lifts, check=True):
        lifts = tuple(lifts)
        if not lifts:
            raise ValueError("depth must be >= 0")
        self.base = base
        self.lifts = lifts
        if check:
            self.validate()

    @property
    def depth(self):
        return len(self.lifts) - 1

    def validate(self):
        p = self.base.p
        for i in range(self.depth):
            diff = self.lifts[i + 1] ** p - self.lifts[i]
            if any(c % p for c in diff.data):
                raise ValueError(
                    f"lift {i + 1} is not a p-th root of lift {i} mod p"
                )
        return self

    def lift(self, i):
        if i > self.depth:
            raise TiltPrecisionError(
                f"depth shortfall: lift {i} requested, depth {self.depth}"
            )
        return self.lifts[i]

    def truncated(self, depth):
        if depth > self.depth:
            raise TiltPrecisionError("cannot extend depth")
        return TiltElement(self.base, self.lifts[: depth + 1], check=False)

    def root(self, k=1):
        """p^k-th root: shift the lift sequence; depth drops by k."""
        if k > self.depth:
            raise TiltPrecisionError("depth shortfall for root")
        return TiltElement(self.base, self.lifts[k:], check=False)

    def frobenius(self):
        """p-th power, exact and coordinatewise."""
        p = self.base.p
        return TiltElement(self.base, tuple(c**p for c in self.lifts), check=False)

    def __mul__(self, other):
        d = min(self.depth, other.depth)
        return TiltElement(
            self.base,
            tuple(a * b for a, b in zip(self.lifts[: d + 1], other.lifts[: d + 1])),
            check=False,
        )

    def __pow__(self, e):
        return TiltElement(self.base, tuple(c**e for c in self.lifts), check=False)

    def __neg__(self):
        # p odd: (-x)^p = -x^p, so negation keeps compatibility
        return TiltElement(self.base, tuple(-c for c in self.lifts), check=False)

    def __eq__(self, other):
        return (
            isinstance(other, TiltElement)
            and other.base == self.base
            and other.lifts == self.lifts
        )

    def __hash__(self):
        return hash(self.lifts)

    def is_zero(self):
        return all(c.is_zero() for c in self.lifts)

    def serialize(self):
        body = "; ".join(self.base.format_element(c) for c in self.lifts)
        return f"tilt[depth={self.depth}; {body}]"

    def __repr__(self):
        return self.serialize()


def tilt_const(base, c, depth):
    """The constant c in F_p inside the tilt, with exactly compatible lifts."""
    p, m = base.p, base.m
    w = _omega_teichmuller(c, m, p)
    elem = base.element((w,) + (0,) * (base.d - 1))
    return TiltElement(base, (elem,) * (depth + 1), check=False)


def tilt_zero(base, depth):
    return tilt_const(base, 0, depth)


def tilt_one(base, depth):
    return tilt_const(base, 1, depth)


def _stabilize(base, depth, delta, level):
    """The stabilized limit of values computed lift by lift.

    level(j) is a tuple of payloads in A, each computed from lift j of the
    operands, for j <= depth.  The result holds one TiltElement per entry,
    whose lift i is that entry of level(i + delta) raised to p^delta, so
    depth drops by delta.  The check compares the delta and delta-1
    approximants mod p^min(M, delta) and raises on disagreement.  Each
    level is raised once, to p^(delta-1), and the delta approximant is the
    p-th power of that.
    """
    if delta > depth:
        raise TiltPrecisionError(
            f"depth shortfall: delta={delta} exceeds common depth {depth}"
        )
    p = base.p
    levels = [level(j) for j in range(max(delta - 1, 0), depth + 1)]
    agree_mod = p ** min(getattr(base, "M", 1), delta)
    coords = []
    for k in range(len(levels[-1])):
        if not delta:
            lifts = [lv[k] for lv in levels]
        else:
            # roots[j] is level(j + delta - 1) raised to p^(delta-1)
            roots = [lv[k] if delta == 1 else base._pow(lv[k], p ** (delta - 1)) for lv in levels]
            lifts = []
            for prev, root in zip(roots, roots[1:]):
                val = base._pow(root, p)
                if any((a - b) % agree_mod for a, b in zip(val, prev)):
                    raise TiltPrecisionError(
                        f"tilt sum did not stabilize at delta={delta}"
                    )
                lifts.append(val)
        coords.append(TiltElement(base, [RingElement(base, v) for v in lifts], check=False))
    return coords


def tilt_sum(elems, delta=None):
    """Stabilized sum: result lift i is (sum of lifts at i+delta)^(p^delta).

    Depth drops by delta.  Zero addends are dropped first, so adding zero is
    exact at full depth.
    """
    elems = [e for e in elems if not e.is_zero()]
    if not elems:
        raise ValueError("tilt_sum of an empty collection needs a base")
    base = elems[0].base
    if len(elems) == 1:
        return elems[0]
    if delta is None:
        delta = default_delta(base)

    def level(j):
        return (functools.reduce(base._add, [e.lifts[j].data for e in elems]),)

    (total,) = _stabilize(base, min(e.depth for e in elems), delta, level)
    return total


def epsilon(ring, T):
    """The tilt element with lifts (1, zeta_p, ..., zeta_{p^T})."""
    if ring.kind != "CyclotomicTruncation":
        raise ValueError("epsilon needs a cyclotomic truncation")
    if T > ring.N:
        raise ValueError(f"depth shortfall: T = {T} > N = {ring.N}")
    lifts = [ring.one()] + [ring.zeta(i) for i in range(1, T + 1)]
    return TiltElement(ring, lifts)


# --- Witt vectors of tilts ----------------------------------------------------


class TiltWittVector:
    """Truncated W(A-flat) in the lift model: coordinates are TiltElements."""

    __slots__ = ("base", "p", "coords")

    def __init__(self, base, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("length must be >= 1")
        self.base = base
        self.p = base.p
        self.coords = coords

    @property
    def length(self):
        return len(self.coords)

    @property
    def depth(self):
        return min(c.depth for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, TiltWittVector)
            and other.base == self.base
            and other.coords == self.coords
        )

    def __repr__(self):
        return "TW[" + "; ".join(c.serialize() for c in self.coords) + "]"


def tilt_teichmuller(t, n):
    zero = tilt_zero(t.base, t.depth)
    return TiltWittVector(t.base, (t,) + (zero,) * (n - 1))


def _is_teichmuller(u):
    return all(c.is_zero() for c in u.coords[1:])


def _tilt_witt_op(op, vectors, delta):
    """The operation op ("add" or "mul") of raw_witt_ops(A, p, n), folded
    over the vectors at each lift level, then stabilized once per
    coordinate: depth drops by delta.

    Level j is exact in W_n(A): the integer Witt polynomials on the lifts j
    of the operands, an integral lift of the mod-p ones.
    """
    base, n = vectors[0].base, vectors[0].length
    fn = getattr(raw_witt_ops(base, base.p, n), op)

    def level(j):
        return functools.reduce(fn, [tuple(c.lifts[j].data for c in v.coords) for v in vectors])

    depth = min(v.depth for v in vectors)
    return TiltWittVector(base, _stabilize(base, depth, delta, level))


def tilt_witt_add(u, v):
    return tilt_witt_sum_many([u, v])


def tilt_witt_mul(u, v):
    """The Witt product.  With a Teichmuller factor it is exact at the
    common depth, [a] x = (a^(p^i) x_i), and zero coordinates stay zero;
    otherwise it loses min(M, 3) lifts."""
    if not _is_teichmuller(u):
        if not _is_teichmuller(v):
            return _tilt_witt_op("mul", [u, v], default_delta(u.base))
        u, v = v, u
    depth = min(u.depth, v.depth)
    a, zero = u.coords[0].truncated(depth), tilt_zero(u.base, depth)
    return TiltWittVector(
        u.base, [zero if c.is_zero() else a ** (u.p**i) * c for i, c in enumerate(v.coords)]
    )


def tilt_witt_sum_many(vectors):
    """k-fold Witt sum with a single stabilization cost per coordinate.

    Zero vectors are dropped first, so adding zero is exact at full depth;
    any other sum loses delta = min(M, 3) lifts.
    """
    base, n = vectors[0].base, vectors[0].length
    nonzero = [v for v in vectors if not all(c.is_zero() for c in v.coords)]
    if not nonzero:
        return TiltWittVector(base, (tilt_zero(base, min(v.depth for v in vectors)),) * n)
    if len(nonzero) == 1:
        return nonzero[0]
    return _tilt_witt_op("add", nonzero, default_delta(base))


def tilt_witt_phi_inv(u):
    """phi^{-1} on the lift model: coordinatewise p-th root (depth - 1)."""
    return TiltWittVector(u.base, tuple(c.root(1) for c in u.coords))


def xi_element(ring, T, length):
    """xi = 1 + [eps^(1/p)] + ... + [eps^(1/p)]^(p-1), the ker-theta generator."""
    p = ring.p
    root = epsilon(ring, T).root(1)
    terms = [tilt_teichmuller(tilt_one(ring, root.depth), length)]
    for i in range(1, p):
        terms.append(tilt_teichmuller(root**i, length))
    return tilt_witt_sum_many(terms)


# --- theta maps ---------------------------------------------------------------


def theta_r(w, r):
    """pr_r of the canonical map to the F-limit: W(A-flat) -> W_r(A).

    Computed through the Teichmuller expansion w = sum_i V^i([t_i]):
    theta_r(w) = sum_{i < min(len, r)} V^i([t_i^(r)]), each coordinate
    evaluated at its r-th lift.  Every Witt vector is sum_i V^i([a_i]), so
    that sum is the vector (t_0^(r), ..., t_{k-1}^(r), 0, ..., 0) with
    k = min(len, r).  At M = 1 this equals the p-adic digit form
    sum_i p^i [t_i^(r+i)]: there V^i[t^(r)] = p^i [t^(r+i)], and p^i
    vanishes in W_r(A) for i >= r.  At M >= 2 it does not: the terms
    p^i [t_i^(r+i)] with i >= r are nonzero mod p^M and missing here
    (ROADMAP item 1, open).
    """
    base = w.base
    digits = [t.lift(r) for t in w.coords[:r]]
    return WittVector(base, base.p, digits + [base.zero()] * (r - len(digits)))


def theta(w):
    """theta = theta_1 after Frobenius: sum_i p^i t_i^(0) in A."""
    base = w.base
    acc = base.zero()
    for i, t in enumerate(w.coords):
        acc = acc + (base.p**i) * t.lift(0)
    return acc


# --- kernel generators of Frobenius powers ------------------------------------


def check_ker_F_generators(ring, n, rng=None):
    """Membership for ker F^n.

    (i)  F^n(z_{n+1}) = 0 and F(sum_{i<p^n} [zeta_{p^(n+1)}]^i) = 0, exactly.
    (ii) constructed members z_{n+1}*r divide back by z_{n+1}.

    Returns a dict of named results.
    """
    from .witt import z_element

    p = ring.p
    if ring.N < n + 1:
        raise ValueError("depth shortfall: need N >= n+1")
    z = z_element(ring, n + 1)
    membership_zn = frobenius_power(z, n).is_zero()

    big = witt_zero(ring, p, n + 1)
    zeta = ring.zeta(n + 1)
    for i in range(p**n):
        big = witt_add(big, teichmuller(zeta**i, p, n + 1))
    membership_big = frobenius(big).is_zero()

    constructed_ok = True
    witnesses = []
    if rng is not None:
        from .witt import random_witt

        for _ in range(4):
            r = random_witt(ring, p, n + 1, rng)
            w = witt_mul(z, r)
            if not frobenius_power(w, n).is_zero():
                constructed_ok = False
                witnesses.append(("constructed member escaped the kernel", repr(w)))
                continue
            q = witt_divide_exact(w, z)
            if q is None or witt_mul(z, q) != w:
                constructed_ok = False
                witnesses.append(("constructed member did not divide", repr(w)))

    verdict = "pass" if (membership_zn and membership_big and constructed_ok) else "fail"
    return {
        "membership_z": membership_zn,
        "membership_big_sum": membership_big,
        "constructed_members_divide": constructed_ok,
        "verdict": verdict,
        "witnesses": witnesses,
    }


# --- the q-logarithm (characteristic-p model) ---------------------------------


class QLogDivisionError(ArithmeticError):
    def __init__(self, term, precision):
        super().__init__(
            f"[{term}]_q does not divide the term-{term} numerator at precision {precision}"
        )
        self.term = term
        self.precision = precision


def eps_charp(ring):
    """eps = 1 + t in the characteristic-p tilt model."""
    return ring.one() + ring.t_element()


def q_log(x, q, terms):
    """Partial sum of log_q([x]) = sum (-1)^(n-1) q^(-n(n-1)/2)
    ([x]-1)([x]-q)...([x]-q^(n-1)) / [n]_q.

    x and q are Witt vectors over the char-p model (q = [eps] a unit).
    Returns (value, per_term) where per_term[n] records the quotient witness
    and whether the numerator vanished.
    """
    ring = x.ring
    p, length = x.p, x.length
    one = witt_one(ring, p, length)
    ok, q_inv = witt_is_unit(q)
    if not ok:
        raise ValueError("q must be a unit")
    acc = witt_zero(ring, p, length)
    per_term = {}
    numerator = one
    q_pow = one
    for n in range(1, terms + 1):
        numerator = witt_mul(numerator, witt_add(x, witt_neg(q_pow)))
        q_pow = witt_mul(q_pow, q)
        bracket = witt_zero(ring, p, length)
        qk = one
        for _ in range(n):
            bracket = witt_add(bracket, qk)
            qk = witt_mul(qk, q)
        if numerator.is_zero():
            per_term[n] = {"vanished": True, "term": None}
            continue
        quotient = witt_divide_exact(numerator, bracket)
        if quotient is None:
            raise QLogDivisionError(n, ring.descriptor())
        qinv_pow = witt_one(ring, p, length)
        for _ in range(n * (n - 1) // 2):
            qinv_pow = witt_mul(qinv_pow, q_inv)
        term = witt_mul(qinv_pow, quotient)
        if n % 2 == 0:
            term = witt_neg(term)
        acc = witt_add(acc, term)
        per_term[n] = {"vanished": False, "term": term}
    return acc, per_term


# --- Frobenius fixed-point equation (characteristic-p model) -------------------


def witt_phi(w):
    """The Frobenius automorphism of W_n over a characteristic-p ring:
    coordinatewise p-th power."""
    return WittVector(w.ring, w.p, tuple(c ** w.p for c in w.coords))


def enumerate_wn_fp(ring, p, n):
    """The image of W_n(F_p) inside W_n(ring), as a list."""
    out = []
    for combo in itertools.product(range(p), repeat=n):
        out.append(WittVector(ring, p, tuple(ring.from_int(c) for c in combo)))
    return out


def _frobenius_affine_solutions(ring, a, b, cap=None):
    """All u in the char-p ring with u^p - a*u = b (F_p-affine in u), as
    payloads in increasing order, or None if there are more than cap; a and
    b are payloads."""
    p = ring.p
    rows = [
        [(f - c) % p for f, c in zip(fr, cr)]
        for fr, cr in zip(ring._frobenius_rows(), ring._mul_matrix(RingElement(ring, a)))
    ]
    out = Elimination(rows, p, 1).solutions(b, cap)
    return out if out is None else sorted(out)


class SolutionBudgetError(ArithmeticError):
    """The fixed-point equation has more solutions at some Witt length than
    the solver's budget."""

    def __init__(self, ring, n, level, budget):
        super().__init__(
            f"fixed-point solver over W_{n}({ring.descriptor()}): more than "
            f"{budget} solutions at Witt length {level}, the solver's budget"
        )


def claimed_inclusion(ring, n):
    """The claimed-form inclusion in W_n of the char-p model, checked exactly:
    every y = c([eps]-1), c in W_n(F_p), solves phi(y) = ratio * y, where
    ratio = ([eps^p]-1)/([eps]-1), and phi(y)([eps]-1) = ([eps^p]-1) y.

    Returns a dict with the ratio, the claimed forms, inclusion_exact and
    precision.
    """
    if not isinstance(ring, CharPQuotient):
        raise ValueError("the fixed-point solver runs on the char-p model")
    p = ring.p
    eps = eps_charp(ring)
    one = witt_one(ring, p, n)
    mu = witt_add(teichmuller(eps, p, n), witt_neg(one))  # [eps] - 1
    mu_p = witt_add(teichmuller(eps**p, p, n), witt_neg(one))  # [eps^p] - 1
    ratio = witt_divide_exact(mu_p, mu)
    if ratio is None:
        raise ArithmeticError("([eps]-1) does not divide ([eps^p]-1) at this precision")

    claimed_forms = [witt_mul(c, mu) for c in enumerate_wn_fp(ring, p, n)]
    inclusion_ok = True
    for y in claimed_forms:
        lhs = witt_phi(y)
        if lhs != witt_mul(ratio, y):
            inclusion_ok = False
            break
        if witt_mul(lhs, mu) != witt_mul(mu_p, y):
            inclusion_ok = False
            break
    return {
        "ratio": ratio,
        "claimed_forms": claimed_forms,
        "inclusion_exact": inclusion_ok,
        "precision": {"ring": ring.descriptor(), "witt_length": n},
    }


def frobenius_equation_solve(ring, n, solution_budget=100000):
    """Solutions of phi(y) = (([eps^p]-1)/([eps]-1)) y in W_n of the char-p
    model, with the claimed-form inclusion checked exactly
    (claimed_inclusion).

    Returns the dict of claimed_inclusion with the full solution list
    (level-by-level affine-linear solving; exact), the claimed forms found
    among them, and the spurious remainder classified by minimal
    annihilating t-power.
    """
    inclusion = claimed_inclusion(ring, n)
    ratio = inclusion["ratio"]

    # level-by-level enumeration: coordinate k of phi(y) = ratio * y is
    # y_k^p - (linear in y_k) = (known), since the product polynomial is
    # linear in its top variable
    partials = [tuple()]
    for k in range(n):
        new_partials = []
        for prefix in partials:
            a_coeff, b_const = _mul_coord_affine_parts(ratio, prefix, k)
            level = _frobenius_affine_solutions(
                ring, a_coeff, b_const, solution_budget - len(new_partials)
            )
            if level is None:
                raise SolutionBudgetError(ring, n, k + 1, solution_budget)
            new_partials.extend(prefix + (u,) for u in level)
        partials = new_partials
    solutions = [WittVector._trusted(ring, ring.p, coords) for coords in partials]

    claimed_set = set(inclusion["claimed_forms"])
    claimed_found, spurious_info = _classify_solutions(ring, n, solutions, claimed_set)
    return {
        **inclusion,
        "solutions": solutions,
        "claimed": claimed_found,
        "spurious": spurious_info,
    }


def _mul_coord_affine_parts(ratio, prefix, k):
    """(a, b) with (ratio * y)_k = a*y_k + b, as payloads, given the payloads
    of the lower coordinates of y."""
    ring = ratio.ring
    mul = raw_witt_ops(ring, ratio.p, ratio.length).mul
    zero = ring.zero().data
    pad = (zero,) * (ratio.length - k - 1)

    def coord_at(u):
        return mul(ratio.data, prefix + (u,) + pad)[k]

    b = coord_at(zero)
    # linearity in y_k lets us recover a from one probe with u = 1
    a = ring._sub(coord_at(ring.one().data), b)
    return a, b


def _classify_solutions(ring, n, solutions, claimed_set):
    """(claimed, spurious): the solutions in claimed_set, and a record for
    each other one.

    A spurious y's junk is its deviation y - c from the claimed element c
    of highest s-valuation, the first in claimed_set's iteration order on a
    tie.  The junk is the nilpotent truncation artifact, so it is classified
    by that valuation and by its least annihilating t-power.

    The valuations need no Witt arithmetic.  Over A = F_p[s]/(s^d) the
    reduction W_n(A) -> W_n(A/s^k A) acts coordinate by coordinate, so its
    kernel is W_n(s^k A), the vectors whose every coordinate lies in s^k A.
    Hence y - c lies in that kernel iff y_i = c_i mod s^k for every i, and
    v_s(y - c) = min_i v_s(y_i - c_i): the first coefficient index at which
    some coordinate of y differs from that of c (d if y = c).  Payload
    coefficients are reduced mod p, so the best c is read off the raw
    payloads, and each spurious solution costs one raw Witt subtraction, for
    its junk.
    """
    raw = raw_witt_ops(ring, ring.p, n)
    claimed_payloads = [raw.unwrap(c) for c in claimed_set]
    claimed_lookup = set(claimed_payloads)
    claimed, spurious = [], []
    for y in solutions:
        u = raw.unwrap(y)
        if u in claimed_lookup:
            claimed.append(y)
            continue
        best_val, best = -1, None
        for c in claimed_payloads:
            val = min(map(_first_difference, u, c))
            if val > best_val:
                best_val, best = val, c
        spurious.append(
            {
                "element": y,
                "junk": raw.wrap(raw.add(u, raw.neg(best))),
                "junk_s_valuation": best_val,
                "junk_t_annihilator": _min_annihilating_t_power(ring, best_val),
            }
        )
    return claimed, spurious


def _first_difference(a, b):
    """The first index at which the coefficient tuples a and b differ
    (their length if they are equal)."""
    if a == b:
        return len(a)
    j = 0
    while a[j] == b[j]:
        j += 1
    return j


def _min_annihilating_t_power(ring, v):
    """Least j with t^j y = 0 for y in W_n(ring) of s-valuation v (d for y = 0).

    t = s^(p^e) and F_p[s] has no zero divisors below s^d, so t^j y = 0 iff
    j p^e + v >= d, where d = K p^e.
    """
    return -(-(ring.d - v) // ring.p**ring.e)


def project_charp(src, dst, elem):
    """Truncate an element of charp(p,e,K_src) into charp(p,e,K_dst)."""
    if src.p != dst.p or src.e != dst.e or dst.K > src.K:
        raise ValueError("projection needs the same (p, e) and smaller K")
    return RingElement(dst, elem.data[: dst.d])


def project_charp_witt(src, dst, w):
    return WittVector(dst, w.p, tuple(project_charp(src, dst, c) for c in w.coords))
