"""Kahler differentials of monogenic rings as finitely presented modules.

For A = Z[x]/(f) the module of differentials is A*dx / (f'(x) dx); adding a
coefficient modulus p^M appends the relations p^M * x^j dx.  Everything is
presented over the integers (generators x^j dx), so equality and torsion
questions reduce to Smith normal form, and A-scalar multiplication is
polynomial multiplication mod f on representatives.

Also here: the twisted differential fn_d (the level-lowering F^n d on Witt
vectors), the explicit p-torsion generator alpha with its defining identity
(zeta_p - 1) alpha = dlog zeta_p, the division-by-p witness search, and the
log-differential sub-presentation check dlog m = x dy - u^{-1} du.
"""

from math import gcd, prod

from .modlin import solve_mod_pp, solve_mod_pp_many
from .rings import CyclotomicTruncation, RingElement
from .snf import smith_sparse
from .witt import WittVector


class PresentedModule:
    """Z^g modulo the row span of an integer relation matrix."""

    def __init__(self, gens, relations):
        self.gens = gens
        self.relations = [list(map(int, row)) for row in relations]
        for row in self.relations:
            if len(row) != gens:
                raise ValueError("relation width mismatch")
        self._snf = None

    def _snf_data(self):
        if self._snf is None:
            rel = self.relations if self.relations else [[0] * self.gens]
            diag, v_cols, vinv_rows = smith_sparse(rel)
            diag += [0] * (self.gens - len(diag))
            self._snf = (diag, v_cols, vinv_rows)
        return self._snf

    def _snf_coords(self, vec):
        """vec in the Smith basis: the row vector vec * V, whose coordinate j
        is vec . (column j of V); entries past the end of vec count as zero."""
        _, v_cols, _ = self._snf_data()
        if len(vec) < self.gens:
            vec = [*vec, *[0] * (self.gens - len(vec))]
        return [sum([vec[i] * c for i, c in col.items()]) for col in v_cols]

    def normal_form(self, vec):
        diag = self._snf_data()[0]
        y = self._snf_coords(vec)
        return tuple(y[j] % diag[j] if diag[j] else y[j] for j in range(self.gens))

    def is_zero(self, vec):
        return all(c == 0 for c in self.normal_form(vec))

    def eq(self, a, b):
        return self.is_zero([x - y for x, y in zip(a, b)])

    def order_of(self, vec):
        """Additive order of the class of vec; None when infinite."""
        diag = self._snf_data()[0]
        y = self._snf_coords(vec)
        order = 1
        for j in range(self.gens):
            d = diag[j]
            if d == 0:
                if y[j] != 0:
                    return None
                continue
            dj = d // gcd(d, y[j] % d)
            order = order * dj // gcd(order, dj)
        return order

    def invariant_factors(self):
        """Nonunit elementary divisors, plus the free rank."""
        diag, _, _ = self._snf_data()
        torsion = [d for d in diag if d not in (0, 1)]
        free = sum(1 for d in diag if d == 0)
        return torsion, free

    def torsion(self, q):
        """The q-torsion subgroup (q a prime power).

        Returns (orders, generators): the subgroup is the direct sum of the
        cyclic groups of these orders, on generators given in the original
        coordinates, each of additive order exactly its entry of orders.
        """
        diag, _, vinv = self._snf_data()
        gens = []
        orders = []
        for j in range(self.gens):
            d = diag[j]
            if d in (0, 1):
                continue
            g = gcd(d, q)
            if g == 1:
                continue
            gens.append([(d // g) * vinv[j].get(i, 0) for i in range(self.gens)])
            orders.append(g)
        return orders, gens


# --- integer polynomial utilities mod a monic f ------------------------------


def _poly_mul_mod_f(a, b, f, modulus):
    d = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(d):
                out[k - d + j] -= c * f[j]
    out = out[:d] + [0] * max(0, d - len(out))
    if modulus:
        out = [c % modulus for c in out]
    return out


def _poly_derivative(a):
    return [i * a[i] for i in range(1, len(a))]


class Omega1(PresentedModule):
    """Omega^1 of Z[x]/(f) (optionally with coefficient modulus p^M).

    Generators are x^j dx for j < deg f; elements are integer coefficient
    vectors.  ``mult`` is A-scalar multiplication on representatives and
    ``d_of`` the universal derivation.

    Built with a ``ring`` (by ``omega1_for_ring``), ``mult`` multiplies with
    the ring's own multiplication on canonical tuples: lookup tables at or
    below rings.TABLE_CAP elements, packed kernel products above it.
    Without one, ``mult`` is schoolbook multiplication mod f (and mod the
    modulus, if any) through ``_poly_mul_mod_f``.
    """

    def __init__(self, f, modulus=None, ring=None):
        f = list(map(int, f))
        if not f or f[-1] != 1:
            raise ValueError("f must be monic")
        d = len(f) - 1
        self.f = f
        self.modulus = modulus
        fprime = _poly_derivative(f)
        relations = []
        xj = [1]
        for _ in range(d):
            relations.append(_poly_mul_mod_f(xj, fprime, f, modulus))
            xj = [0] + xj
        if modulus:
            for j in range(d):
                row = [0] * d
                row[j] = modulus
                relations.append(row)
        super().__init__(d, relations)
        self.dx = tuple([1] + [0] * (d - 1))
        self.ring = ring

    def _vec_of(self, a):
        if isinstance(a, RingElement):
            return list(a.data)
        return list(a)

    def d_of(self, a):
        """da for a in A (coefficient vector or RingElement): the list of
        i * a_i for 1 <= i <= deg f, reduced mod the modulus if there is one,
        with missing coefficients read as zero."""
        vec = a.data if isinstance(a, RingElement) else a
        m = self.modulus
        if m:
            out = [i * c % m for i, c in enumerate(vec[1 : self.gens + 1], 1)]
        else:
            out = [i * c for i, c in enumerate(vec[1 : self.gens + 1], 1)]
        out += [0] * (self.gens - len(out))
        return out

    def _canonical(self, a):
        """The ring payload of a: entries reduced mod the modulus, padded
        with zeros to the degree."""
        if isinstance(a, RingElement) and (a.ring is self.ring or a.ring == self.ring):
            return a.data
        vec = [c % self.modulus for c in self._vec_of(a)]
        if len(vec) > self.gens:
            raise ValueError("coefficient vector longer than the power basis")
        return tuple(vec) + (0,) * (self.gens - len(vec))

    def mult(self, a, elem):
        """a * elem for a in A, as a list."""
        if self.ring is None:
            return _poly_mul_mod_f(self._vec_of(a), list(elem), self.f, self.modulus)
        return list(self.ring._mul(self._canonical(a), self._canonical(elem)))

    def dlog(self, u, u_inv=None):
        """dlog u = u^{-1} du; u_inv may be supplied when u is only a unit
        in the modulus ring."""
        if u_inv is None:
            raise ValueError("dlog needs an inverse witness")
        return self.mult(u_inv, self.d_of(u))


def omega1_monogenic(f, modulus=None):
    return Omega1(f, modulus)


_omega1s = {}


def omega1_for_ring(ring):
    """Omega^1 of a cyclotomic truncation, in its own power basis.

    Its ``mult`` is the ring's multiplication (tables or packed kernel
    products) on canonical tuples.  One Omega1 is built per ring (equal
    rings share it) and kept with its Smith form once that is read, so
    callers must not modify it.
    """
    if ring.kind != "CyclotomicTruncation":
        raise ValueError("omega1_for_ring needs a cyclotomic truncation")
    omega = _omega1s.get(ring)
    if omega is None:
        omega = _omega1s.setdefault(ring, Omega1(ring.minpoly, ring.m, ring))
    return omega


def fn_d(w, omega):
    """F^n d of a length-(n+1) Witt vector, landing in Omega^1 of A.

    Closed form: sum_i a_i^(p^(n-i) - 1) d a_i; the last term is d a_n
    itself, its power being a_n^0 = 1.
    """
    if not isinstance(w, WittVector):
        raise ValueError("fn_d needs a Witt vector")
    ring, p, u = w.ring, w.p, w.data
    n = len(u) - 1
    mult = ring._mul if omega.ring is ring or omega.ring == ring else omega.mult
    acc = [0] * omega.gens
    for i, a in enumerate(u):
        term = omega.d_of(a)
        if i < n:
            term = mult(ring._pow(a, p ** (n - i) - 1), tuple(term))
        acc = [x + y for x, y in zip(acc, term)]
    if omega.modulus:
        acc = [c % omega.modulus for c in acc]
    return acc


def conormal_check(f, modulus=None):
    """The conormal sequence of the monogenic presentation.

    Composite I/I^2 -> A dx -> Omega^1_A must be zero (the image of the ideal
    generator is exactly the relation f' dx), and the right-hand map is
    surjective on generators.  Returns (composite_zero, surjective).
    """
    omega = Omega1(f, modulus)
    fprime = _poly_derivative(omega.f) + [0]
    image = fprime[: omega.gens] + [0] * max(0, omega.gens - len(fprime))
    composite_zero = omega.is_zero(image)
    if modulus:
        composite_zero = composite_zero and omega.is_zero(
            [modulus if j == 0 else 0 for j in range(omega.gens)]
        )
    surjective = True  # generators of the quotient are the images of x^j dx
    return composite_zero, surjective


# --- the p-torsion generator alpha -------------------------------------------


def solve_alpha(ring):
    """alpha = (sum_m m zeta_p^m) zeta_{p^2}^{-1} d zeta_{p^2}, with the
    verified identity (zeta_p - 1) alpha = dlog zeta_p.

    Returns (omega, alpha_vector).  Raises if the identity fails, which would
    indicate a presentation bug.
    """
    if ring.kind != "CyclotomicTruncation" or ring.N < 2:
        raise ValueError("solve_alpha needs a cyclotomic truncation with N >= 2")
    p = ring.p
    omega = omega1_for_ring(ring)
    zp = ring.zeta(1)
    zp2 = ring.zeta(2)
    s = ring.zero()
    for m in range(1, p):
        s = s + m * zp**m
    _, zp2_inv = ring.is_unit(zp2)
    _, zp_inv = ring.is_unit(zp)
    alpha = omega.mult(s * zp2_inv, omega.d_of(zp2))
    lhs = omega.mult(zp - ring.one(), alpha)
    rhs = omega.dlog(zp, zp_inv)
    if not omega.eq(lhs, rhs):
        raise ArithmeticError("(zeta_p - 1) alpha != dlog zeta_p in the presentation")
    return omega, alpha


def alpha_order_report(p, N, M):
    """Additive order of alpha at truncation parameters (N, M).

    The limit claim is that alpha is p-torsion; finite truncations may
    disagree, so this only reports.
    """
    ring = CyclotomicTruncation(p, N, M)
    omega, alpha = solve_alpha(ring)
    return omega.order_of(alpha)


def torsion_is_free_rank_one(ring, r):
    """Does alpha freely generate Omega^1[p^r] over A/p^r A?

    Checks |Omega^1[p^r]| = |A/p^r A| and that every SNF torsion generator is
    an A-multiple of alpha; together these make a |-> a*alpha bijective.
    Returns (verdict, details dict).
    """
    p = ring.p
    if r > ring.M:
        raise ValueError("torsion layer exceeds coefficient precision")
    omega, alpha = solve_alpha(ring)
    q = p**r
    orders, gens = omega.torsion(q)
    card_torsion = prod(orders)
    card_target = q**ring.d
    order = omega.order_of(alpha)
    if order not in (None, 0) and order > q:
        return False, {"reason": f"alpha has order {order} > {q}"}
    # a * alpha = t for a in A: columns x^j alpha, beside the relations
    mul_rows = ring._mul_matrix(ring.from_coeffs(alpha))
    rows = [mul_rows[i] + [rel[i] for rel in omega.relations] for i in range(ring.d)]
    sols = solve_mod_pp_many(rows, gens, p, ring.M)
    surj = None not in sols
    verdict = surj and card_torsion == card_target
    return verdict, {
        "torsion_cardinality": card_torsion,
        "target_cardinality": card_target,
        "generators_hit": surj,
    }


# --- division by p -----------------------------------------------------------


def check_p_surjectivity(ring, samples):
    """For each sampled a, try to write da = p*omega by lifting a through
    Frobenius mod p; record the Frobenius defect of the truncation otherwise.

    Returns a list of (a, verdict, witness) with verdict in
    {"pass", "truncation-limited"}.
    """
    p = ring.p
    omega = omega1_for_ring(ring)
    # Frobenius matrix on A/pA in the power basis
    frob_rows = CyclotomicTruncation(p, ring.N, 1)._frobenius_rows()
    sols = solve_mod_pp_many(frob_rows, [a.data for a in samples], p, 1)
    out = []
    for a, sol in zip(samples, sols):
        da = omega.d_of(a)
        if sol is None:
            out.append((a, "truncation-limited", None))
            continue
        b = ring.from_coeffs(sol)
        c = a - b**p
        assert all(x % p == 0 for x in c.data)
        cdivp = ring.from_coeffs([x // p for x in c.data])
        w = [
            x + y
            for x, y in zip(
                omega.mult(b ** (p - 1), omega.d_of(b)), omega.d_of(cdivp)
            )
        ]
        lhs = [pc % ring.m for pc in (p * wc for wc in w)]
        if omega.eq(lhs, da):
            out.append((a, "pass", tuple(w)))
        else:
            out.append((a, "fail", None))
    return out


# --- log differentials -------------------------------------------------------


def log_presentation_check(ring, m, u, x, y, bigN):
    """Verify dlog m = x dy - u^{-1} du in the finite sub-presentation of the
    log differential module on the monoid generators {m, y, u}.

    Requires y^(p^N) = u m and y x = p^N in A.  The sub-presentation is
    (Omega^1_A + A^3) / J with J generated by the A-multiples of
    (d m, -m e_m), (d y, -y e_y), (d u, -u e_u) and of the group relation
    p^N e_y - e_u - e_m.  Membership is solved on the reduced system of
    ``_log_presentation_system``.
    """
    p = ring.p
    if y ** (p**bigN) != u * m:
        raise ValueError("tuple constraint violation: y^(p^N) != u*m")
    if y * x != ring.from_int(p**bigN):
        raise ValueError("tuple constraint violation: y*x != p^N")
    ok, u_inv = ring.is_unit(u)
    if not ok:
        raise ValueError("tuple constraint violation: u is not a unit")
    rows, rhs = _log_presentation_system(ring, m, u, u_inv, x, y, bigN)
    return solve_mod_pp(rows, rhs, p, ring.M) is not None


def _log_presentation_system(ring, m, u, u_inv, x, y, bigN):
    """The linear system over Z/p^M whose solvability is the membership of
    (x dy - u^{-1} du, -e_m) in J; no constraint on the tuple is checked.

    An element of J is
        c f' dx + a_m (dm, -m e_m) + a_y (dy, -y e_y) + a_u (du, -u e_u)
               + b (-e_m + p^N e_y - e_u)
    with c, a_m, a_y, a_u, b in A (the p^M x^j dx relations of Omega^1
    vanish over Z/p^M).  Matching the target slot by slot: the
    m-slot gives -a_m m - b = -1, so b = 1 - a_m m; the u-slot gives
    -a_u u - b = 0, so a_u = -b u^{-1} since u is a unit.  With these, the
    y-slot reads a_y y + p^N m a_m = p^N, and the Omega part
        c f' dx + a_m (dm + m u^{-1} du) + a_y dy = x dy
    once -u^{-1} du is cancelled from both sides.  So the target lies in J
    iff some (c, a_m, a_y) solves these two equations: 2d equations in 3d
    unknowns, the y-slot rows first (they are the sparser ones).  Each
    block is a multiplication matrix, whose column j is x^j times a vector.

    Returns (rows, rhs).
    """
    omega = omega1_for_ring(ring)
    d = ring.d
    p_n = ring.from_int(ring.p**bigN)
    dlog_term = omega.mult(m, omega.dlog(u, u_inv))
    v_m = [a + b for a, b in zip(omega.d_of(m), dlog_term)]
    zero = [[0] * d for _ in range(d)]
    blocks = [
        (zero, ring._mul_matrix(p_n * m), ring._mul_matrix(y)),
        (
            ring._mul_matrix(ring.from_coeffs(omega.relations[0])),
            ring._mul_matrix(ring.from_coeffs(v_m)),
            ring._mul_matrix(ring.from_coeffs(omega.d_of(y))),
        ),
    ]
    rows = [c_row + m_row + y_row for block in blocks for c_row, m_row, y_row in zip(*block)]
    rhs = list(p_n.data) + omega.mult(x, omega.d_of(y))
    return rows, rhs
