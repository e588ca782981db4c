"""Exact arithmetic in the base rings.

Four kinds of ring handle:

* ``IntegerRing``            -- Z
* ``CyclotomicTruncation``   -- Z[x]/(Phi_{p^N}(x), p^M), finite, cardinality
                                p^(M*phi(p^N)); the class of x^(p^(N-n)) plays
                                the role of a primitive p^n-th root of unity
* ``CharPQuotient``          -- F_p[s]/(s^(K*p^e)) with distinguished element
                                t = s^(p^e), so t has p-power roots to depth e
* ``ProductRing``            -- finite direct products of the above

Elements are stored in canonical form (coefficient tuples reduced modulo the
minimal polynomial and modulo p^M, entries in [0, p^M)), so equality is
tuple equality.  Handles and elements are immutable; everything here is safe
to share between threads.

Quotient rings with at most TABLE_CAP elements multiply through lookup tables
over element indices (SmallRingTables); larger ones multiply coefficient
tuples through the kernel in ``_kernel``.  Payloads are tuples either way.

p = 2 is rejected everywhere.
"""

import itertools
import re
from array import array
from fractions import Fraction

import numpy as np

from . import _kernel as kernel
from .modlin import solve_mod_pp

# Quotient rings with m**d <= TABLE_CAP elements get lookup tables.  At the
# cap the two multiplication tables take 2 * 729 * 27 entries of 2 bytes.
TABLE_CAP = 729

# Largest temporary the table-building functions allocate, in bytes.  glibc keeps
# larger freed blocks resident, which would show as peak memory.
_BLOCK_BYTES = 1 << 16


class SmallRingTables:
    """Lookup tables for Z/m[x]/(modpoly) with Q = m**d <= TABLE_CAP elements.

    An element's index is its coefficient tuple read as base-m digits, first
    coefficient most significant, which is the order of
    ``_QuotientRing.enumerate_elements``; ``elems[i]`` and ``index[tuple]``
    convert.  With dh = d // 2, H = m**dh and L = m**(d-dh), index b // L
    holds the high digits of b (coefficients 0..dh-1) and b % L the low ones.
    A sum splits both operands, because digits add without carries:

        index(x + y) = add_hi[x//L*H + y//L] + add_lo[x%L*L + y%L]

    (``add_hi`` entries are already multiplied by L).  A product splits one
    operand: a*b is the ring sum of mul_hi[a*H + b//L], the product of a with
    the high digits of b, and mul_lo[a*L + b%L], with the low ones.  ``neg``,
    and the tables of ``pow_table(e)`` and ``scale_table(c)``, map an index to
    the index of -a, a**e and c*a.  Every table is an ``array('H')``; the two
    multiplication tables take 2*Q*(H+L) bytes, far less than a Q*Q table.

    ``add_expr`` and ``mul_expr`` give the sum and product as Python source
    over the tables in ``namespace``, for code generated elsewhere; ``add``
    and ``mul`` are compiled from the same source.
    """

    def __init__(self, m, d, red_rows):
        self.m, self.d = m, d
        self.Q = Q = m**d
        dh = d // 2
        self.H, self.L = H, L = m**dh, m ** (d - dh)
        self.elems = list(itertools.product(range(m), repeat=d))
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.one = m ** (d - 1)
        # x^s reduced, s = 0..2d-2: the coefficient rows of a product
        xpow = np.zeros((2 * d - 1, d), dtype=np.int64)
        xpow[np.arange(d), np.arange(d)] = 1
        if d > 1:
            xpow[d:] = np.array(red_rows, dtype=np.int64)
        place = m ** np.arange(d - 1, -1, -1, dtype=np.int64)
        digits = _digits(np.arange(Q, dtype=np.int64), m, d)
        self.mul_hi = _mul_table(digits, xpow, place, m, 0, dh)
        self.mul_lo = _mul_table(digits, xpow, place, m, dh, d)
        self.add_hi = _half_add_table(m, dh, L)
        self.add_lo = _half_add_table(m, d - dh, 1)
        self._pow = {}
        self._scale = {}
        self.neg = self.scale_table(m - 1)
        self.namespace = {
            "_MH": self.mul_hi,
            "_ML": self.mul_lo,
            "_AH": self.add_hi,
            "_AL": self.add_lo,
        }
        self.add = eval(f"lambda x, y: {self.add_expr('x', 'y')}", self.namespace)  # noqa: S307
        self.mul = eval(f"lambda a, b: {self.mul_expr('a', 'b')}", self.namespace)  # noqa: S307

    def add_expr(self, x, y):
        """Source of the index of x + y, for index names x and y."""
        H, L = self.H, self.L
        return f"_AH[{x} // {L} * {H} + {y} // {L}] + _AL[{x} % {L} * {L} + {y} % {L}]"

    def mul_expr(self, a, b):
        """Source of the index of a * b, for index names a and b."""
        H, L = self.H, self.L
        x = f"(_x := _MH[{a} * {H} + {b} // {L}])"
        y = f"(_y := _ML[{a} * {L} + {b} % {L}])"
        return f"_AH[{x} // {L} * {H} + {y} // {L}] + _AL[_x % {L} * {L} + _y % {L}]"

    def pow(self, a, e):
        table = self._pow.get(e)
        if table is not None:
            return table[a]
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def pow_table(self, e):
        """Table of a -> a**e, built once per exponent."""
        table = self._pow.get(e)
        if table is None:
            result = np.full(self.Q, self.one, dtype=np.int64)
            base = np.arange(self.Q, dtype=np.int64)
            k = e
            while k:
                if k & 1:
                    result = self._vmul(result, base)
                k >>= 1
                if k:
                    base = self._vmul(base, base)
            table = self._pow.setdefault(e, array("H", result.astype(np.uint16).tobytes()))
        return table

    def scale_table(self, c):
        """Table of a -> c*a for an integer c, built once per residue mod m."""
        c %= self.m
        table = self._scale.get(c)
        if table is None:
            prod = self._vmul(np.arange(self.Q, dtype=np.int64), np.int64(c * self.one))
            table = self._scale.setdefault(c, array("H", prod.astype(np.uint16).tobytes()))
        return table

    def nbytes(self):
        tables = [self.mul_hi, self.mul_lo, self.add_hi, self.add_lo]
        tables += list(self._pow.values()) + list(self._scale.values())
        return sum(t.itemsize * len(t) for t in tables)

    def _vmul(self, a, b):
        """mul on numpy index arrays (int64 in, int64 out)."""
        H, L = self.H, self.L
        x = _gather(self.mul_hi, a * H + b // L)
        y = _gather(self.mul_lo, a * L + b % L)
        return _gather(self.add_hi, x // L * H + y // L) + _gather(self.add_lo, x % L * L + y % L)


def _gather(table, idx):
    return np.frombuffer(table, dtype=np.uint16)[idx].astype(np.int64)


def _digits(idx, m, d):
    """Base-m digits of indices, most significant first: shape (len, d)."""
    place = m ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return idx[:, None] // place % m


def _mul_table(digits, xpow, place, m, lo, hi):
    """Entries a*B + b: the index of a * (b's digits placed at coefficients
    lo..hi-1), for every element a and every B = m**(hi-lo) digit block b."""
    Q, d = digits.shape
    k = hi - lo
    B = m**k
    part = _digits(np.arange(B, dtype=np.int64), m, k)
    # a * b = a @ mats[:, b, :] with mats[i, b, :] = sum_j b_j x^(i+lo+j)
    mats = np.zeros((d, B, d), dtype=np.int64)
    for j in range(k):
        mats += part[None, :, j, None] * xpow[lo + j : lo + j + d, None, :]
    mats = mats.reshape(d, B * d) % m
    out = np.empty(Q * B, dtype=np.uint16)
    rows = max(1, _BLOCK_BYTES // (B * d * 8))
    for a0 in range(0, Q, rows):
        block = digits[a0 : a0 + rows] @ mats
        block %= m
        out[a0 * B : (a0 + len(block)) * B] = block.reshape(-1, d) @ place
    return array("H", out.tobytes())


def _half_add_table(m, k, scale):
    """Entries x*B + y (B = m**k): the digitwise sum of k-digit blocks x and
    y, times scale."""
    B = m**k
    part = _digits(np.arange(B, dtype=np.int64), m, k)
    place = m ** np.arange(k - 1, -1, -1, dtype=np.int64) * scale
    out = np.empty(B * B, dtype=np.uint16)
    rows = max(1, _BLOCK_BYTES // (B * max(k, 1) * 8))
    for x0 in range(0, B, rows):
        block = (part[x0 : x0 + rows, None, :] + part[None, :, :]) % m
        out[x0 * B : (x0 + len(block)) * B] = (block @ place).reshape(-1)
    return array("H", out.tobytes())


_tables_cache = {}


def small_ring_tables(m, d, red_rows):
    """The shared SmallRingTables for a ring shape, or None above TABLE_CAP."""
    if m**d > TABLE_CAP:
        return None
    key = (m, d, red_rows)
    tables = _tables_cache.get(key)
    if tables is None:
        tables = _tables_cache.setdefault(key, SmallRingTables(m, d, red_rows))
    return tables


def is_odd_prime(p):
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


def require_odd_prime(p):
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p!r}")
    return p


class PrimeContext:
    """A fixed odd prime; the standing hypothesis for every structure here."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = require_odd_prime(p)

    def __repr__(self):
        return f"PrimeContext(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeContext) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeContext", self.p))


class RingElement:
    """Immutable element of a RingHandle, in canonical form.

    Supports +, -, *, ** (integer exponents >= 0), unary -, and scalar
    multiplication by Python ints on either side.  ``sum`` works with a ring
    zero as the start value (and tolerates the default 0).
    """

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise ValueError("owner mismatch")
        return other

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return RingElement(self.ring, self.ring._add(self.data, self._check(other).data))

    def __radd__(self, other):
        if other == 0:
            return self
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return RingElement(self.ring, self.ring._sub(self.data, self._check(other).data))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.data))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, self.ring._scale(self.data, other))
        return RingElement(self.ring, self.ring._mul(self.data, self._check(other).data))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        return RingElement(self.ring, self.ring._pow(self.data, e))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and other.ring == self.ring
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.ring, self.data))

    def is_zero(self):
        return self.data == self.ring.zero().data

    def __repr__(self):
        return f"<{self.ring.descriptor()}: {self.ring.format_element(self)}>"


class RingHandle:
    """Common interface of the concrete ring kinds."""

    kind = None

    # --- payload-level arithmetic, provided by subclasses ---
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _pow(self, a, e):
        raise NotImplementedError

    def _scale(self, a, c):
        raise NotImplementedError

    # --- elements ---
    def element(self, data):
        return RingElement(self, data)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, c):
        raise NotImplementedError

    def cardinality(self):
        """Number of elements, or None for Z."""
        return None

    def is_finite(self):
        return self.cardinality() is not None

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def pow(self, a, e):
        return a**e

    def is_unit(self, a):
        """(True, inverse) or (False, None)."""
        raise NotImplementedError

    def divide_exact(self, a, b):
        """Some c with b*c = a, or None.  A witness, not the witness."""
        raise NotImplementedError

    def enumerate_elements(self):
        """All elements exactly once, deterministic order.  Finite rings only."""
        raise NotImplementedError

    def annihilator(self, b, cap=None):
        """All c with b*c = 0, or None if there are more than ``cap``."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def format_element(self, a):
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


class IntegerRing(RingHandle):
    kind = "Integers"

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _pow(self, a, e):
        return a**e

    def _scale(self, a, c):
        return a * c

    def from_int(self, c):
        return RingElement(self, int(c))

    def is_unit(self, a):
        if a.data in (1, -1):
            return True, a
        return False, None

    def divide_exact(self, a, b):
        if b.data == 0:
            return self.zero() if a.data == 0 else None
        q, r = divmod(a.data, b.data)
        return self.element(q) if r == 0 else None

    def enumerate_elements(self):
        raise ValueError("cannot enumerate Z")

    def annihilator(self, b, cap=None):
        return [self.zero()] if b.data != 0 else None

    def descriptor(self):
        return "Z"

    def format_element(self, a):
        return str(a.data)

    def parse_element(self, s):
        return self.element(int(s.strip()))

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class _QuotientRing(RingHandle):
    """Shared machinery: Z/m[x]/(modpoly) with canonical coefficient tuples.

    Subclasses fix m, the degree d, the reduction rows for x^(d+j), and the
    printing variable.
    """

    # set by subclass __init__: p, m (coefficient modulus), d (degree),
    # _ctx (kernel context), _tables (SmallRingTables or None), _var (print
    # name)

    def _init_quotient(self, p, m, d, red_rows, var):
        self.p = p
        self.m = m
        self.d = d
        self._red_rows = tuple(tuple(r) for r in red_rows)
        self._ctx = kernel.make_ctx(self._red_rows, m, d)
        self._tables = small_ring_tables(m, d, self._red_rows)
        self._var = var

    def _add(self, a, b):
        return kernel.vec_addmod(a, b, self.m)

    def _sub(self, a, b):
        return kernel.vec_submod(a, b, self.m)

    def _neg(self, a):
        return kernel.vec_negmod(a, self.m)

    def _mul(self, a, b):
        t = self._tables
        if t is None:
            return kernel.poly_mulmod(a, b, self._ctx)
        return t.elems[t.mul(t.index[a], t.index[b])]

    def _pow(self, a, e):
        t = self._tables
        if t is None:
            return kernel.poly_powmod(a, e, self._ctx)
        return t.elems[t.pow(t.index[a], e)]

    def _scale(self, a, c):
        return kernel.vec_scalemod(a, c, self.m)

    def from_int(self, c):
        return RingElement(self, (c % self.m,) + (0,) * (self.d - 1))

    def from_coeffs(self, coeffs):
        """Element from (low-to-high) coefficients; reduced mod x^d and m."""
        coeffs = list(coeffs)
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than the power basis")
        coeffs += [0] * (self.d - len(coeffs))
        return RingElement(self, tuple(c % self.m for c in coeffs))

    def gen(self):
        return self.from_coeffs([0, 1])

    def cardinality(self):
        return self.m**self.d

    def enumerate_elements(self):
        for tup in itertools.product(range(self.m), repeat=self.d):
            yield RingElement(self, tup)

    def _mul_matrix(self, b):
        """Columns: b * x^j in canonical form (d x d over Z/m)."""
        cols = []
        cur = b.data
        for _ in range(self.d):
            cols.append(cur)
            cur = self._mul(cur, (0, 1) + (0,) * (self.d - 2)) if self.d > 1 else cur
        return [[cols[j][i] for j in range(self.d)] for i in range(self.d)]

    def divide_exact(self, a, b):
        ok, inv = self.is_unit(b)
        if ok:
            return a * inv
        sol = solve_mod_pp(self._mul_matrix(b), list(a.data), self.p, self._M_for_solve())
        if sol is None:
            return None
        c = RingElement(self, tuple(x % self.m for x in sol))
        assert (b * c) == a
        return c

    def annihilator(self, b, cap=None):
        from .modlin import nullspace_mod_p

        if self.m == self.p:
            basis = nullspace_mod_p(self._mul_matrix(b), self.p)
            if cap is not None and self.p ** len(basis) > cap:
                return None
            out = []
            for coeffs in itertools.product(range(self.p), repeat=len(basis)):
                vec = [0] * self.d
                for c, bas in zip(coeffs, basis):
                    for i in range(self.d):
                        vec[i] += c * bas[i]
                out.append(RingElement(self, tuple(v % self.p for v in vec)))
            return out
        # prime-power modulus: brute force below the cap, else give up
        if cap is None:
            cap = 4096
        if self.cardinality() <= cap:
            zero = self.zero()
            return [c for c in self.enumerate_elements() if b * c == zero]
        return None

    def _M_for_solve(self):
        raise NotImplementedError

    # printing
    def format_element(self, a):
        terms = []
        for i, c in enumerate(a.data):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = self._var_power(i)
                terms.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"

    def _var_power(self, i):
        return self._var if i == 1 else f"{self._var}^{i}"

    def _var_index(self, token):
        """Basis index for a printed variable power."""
        raise NotImplementedError

    def parse_element(self, s):
        s = s.replace(" ", "").replace("-", "+-")
        coeffs = [0] * self.d
        for term in s.split("+"):
            if not term:
                continue
            neg = term.startswith("-")
            if neg:
                term = term[1:]
            if "*" in term:
                c_str, var = term.split("*", 1)
                c = int(c_str)
            elif term[0].isdigit():
                c, var = int(term), None
            else:
                c, var = 1, term
            idx = 0 if var is None else self._var_index(var)
            coeffs[idx] += -c if neg else c
        return self.from_coeffs(coeffs)


def _cyclotomic_minpoly(p, N):
    """Coefficients of Phi_{p^N}(x) = sum_{i<p} x^(i*p^(N-1)), low to high."""
    d = p ** (N - 1) * (p - 1)
    coeffs = [0] * (d + 1)
    for i in range(p):
        coeffs[i * p ** (N - 1)] = 1
    return coeffs


def _reduction_rows(minpoly, m):
    """Canonical vectors of x^(d+j), j = 0..d-2, modulo (minpoly, m)."""
    d = len(minpoly) - 1
    # x^d = -(minpoly - x^d)
    base = [(-c) % m for c in minpoly[:d]]
    rows = [tuple(base)]
    for _ in range(d - 2):
        prev = rows[-1]
        # multiply by x: shift, then fold the overflow through x^d
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        row = [(shifted[i] + top * base[i]) % m for i in range(d)]
        rows.append(tuple(row))
    return rows if d > 1 else []


class CyclotomicTruncation(_QuotientRing):
    """Z[x]/(Phi_{p^N}(x), p^M); zeta(n) is the class of x^(p^(N-n))."""

    kind = "CyclotomicTruncation"

    def __init__(self, p, N, M):
        require_odd_prime(p)
        if N < 1:
            raise ValueError("depth N must be >= 1")
        if M < 1:
            raise ValueError("precision M must be >= 1")
        self.N = N
        self.M = M
        self.minpoly = _cyclotomic_minpoly(p, N)
        d = len(self.minpoly) - 1
        m = p**M
        self._init_quotient(p, m, d, _reduction_rows(self.minpoly, m), "z")
        self._fp_inverse_cache = {}

    def _M_for_solve(self):
        return self.M

    def zeta(self, n):
        """Primitive p^n-th root of unity, 1 <= n <= N."""
        if not 1 <= n <= self.N:
            raise ValueError(f"zeta({n}) needs 1 <= n <= N = {self.N}")
        idx = self.p ** (self.N - n)
        vec = [0] * self.d
        vec[idx] = 1
        return RingElement(self, tuple(vec))

    def is_unit(self, a):
        inv = _invert_via_fp_and_lift(self, a)
        if inv is None:
            return False, None
        return True, inv

    def descriptor(self):
        return f"cyc({self.p},{self.N},{self.M})"

    def _var_index(self, token):
        m = re.fullmatch(r"z(?:\^(\d+))?", token)
        if not m:
            raise ValueError(f"bad term {token!r}")
        return int(m.group(1) or 1)

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicTruncation)
            and (other.p, other.N, other.M) == (self.p, self.N, self.M)
        )

    def __hash__(self):
        return hash(("cyc", self.p, self.N, self.M))


class CharPQuotient(_QuotientRing):
    """F_p[s]/(s^(K*p^e)) with distinguished element t = s^(p^e).

    t admits p-power roots down to depth e: t^(1/p^j) = s^(p^(e-j)).  This is
    the finite characteristic-p model of a tilt, with eps = 1 + t.
    """

    kind = "CharPQuotient"

    def __init__(self, p, e, K):
        require_odd_prime(p)
        if e < 0:
            raise ValueError("root depth e must be >= 0")
        if K < 1:
            raise ValueError("t-adic precision K must be >= 1")
        self.e = e
        self.K = K
        d = K * p**e
        self._init_quotient(p, p, d, [(0,) * d] * max(d - 1, 0), "t")

    def _M_for_solve(self):
        return 1

    def t_element(self):
        return self.t_root(0)

    def t_root(self, j):
        """t^(1/p^j) = s^(p^(e-j)) for 0 <= j <= e."""
        if not 0 <= j <= self.e:
            raise ValueError(f"t^(1/p^{j}) not in this truncation (e = {self.e})")
        idx = self.p ** (self.e - j)
        if idx >= self.d:
            return self.zero()
        vec = [0] * self.d
        vec[idx] = 1
        return RingElement(self, tuple(vec))

    def s_valuation(self, a):
        """Index of the lowest nonzero coefficient (d for zero)."""
        for i, c in enumerate(a.data):
            if c:
                return i
        return self.d

    def is_unit(self, a):
        if a.data[0] % self.p == 0:
            return False, None
        # Newton iteration b <- b(2 - ab), doubling s-adic precision
        b = self.from_int(pow(a.data[0], -1, self.p))
        steps = max(1, (self.d - 1).bit_length())
        for _ in range(steps):
            b = b * (self.from_int(2) - a * b)
        if a * b == self.one():
            return True, b
        return False, None

    def descriptor(self):
        return f"charp({self.p},{self.e},{self.K})"

    def format_element(self, a):
        # powers of s are printed as fractional powers of t
        terms = []
        pe = self.p**self.e
        for i, c in enumerate(a.data):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            q = Fraction(i, pe)
            if q == 1:
                var = "t"
            elif q.denominator == 1:
                var = f"t^{q.numerator}"
            else:
                var = f"t^({q.numerator}/{q.denominator})"
            terms.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"

    def _var_index(self, token):
        m = re.fullmatch(r"t(?:\^(?:(\d+)|\((\d+)/(\d+)\)))?", token)
        if not m:
            raise ValueError(f"bad term {token!r}")
        pe = self.p**self.e
        if m.group(1):
            return int(m.group(1)) * pe
        if m.group(2):
            num, den = int(m.group(2)), int(m.group(3))
            if pe % den:
                raise ValueError(f"bad root depth in {token!r}")
            return num * (pe // den)
        return pe

    def __eq__(self, other):
        return (
            isinstance(other, CharPQuotient)
            and (other.p, other.e, other.K) == (self.p, self.e, self.K)
        )

    def __hash__(self):
        return hash(("charp", self.p, self.e, self.K))


class ProductRing(RingHandle):
    kind = "Product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("empty product")
        self.factors = factors

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def _pow(self, a, e):
        return tuple(x**e for x in a)

    def _scale(self, a, c):
        return tuple(x * c for x in a)

    def from_int(self, c):
        return RingElement(self, tuple(f.from_int(c) for f in self.factors))

    def from_components(self, comps):
        comps = tuple(comps)
        if len(comps) != len(self.factors):
            raise ValueError("component count mismatch")
        for c, f in zip(comps, self.factors):
            if c.ring != f:
                raise ValueError("component owner mismatch")
        return RingElement(self, comps)

    def cardinality(self):
        total = 1
        for f in self.factors:
            c = f.cardinality()
            if c is None:
                return None
            total *= c
        return total

    def is_unit(self, a):
        invs = []
        for comp in a.data:
            ok, inv = comp.ring.is_unit(comp)
            if not ok:
                return False, None
            invs.append(inv)
        return True, RingElement(self, tuple(invs))

    def divide_exact(self, a, b):
        out = []
        for x, y in zip(a.data, b.data):
            c = x.ring.divide_exact(x, y)
            if c is None:
                return None
            out.append(c)
        return RingElement(self, tuple(out))

    def annihilator(self, b, cap=None):
        per = []
        total = 1
        for comp in b.data:
            ann = comp.ring.annihilator(comp, cap=cap)
            if ann is None:
                return None
            per.append(ann)
            total *= len(ann)
            if cap is not None and total > cap:
                return None
        return [
            RingElement(self, tuple(combo)) for combo in itertools.product(*per)
        ]

    def enumerate_elements(self):
        for combo in itertools.product(
            *[list(f.enumerate_elements()) for f in self.factors]
        ):
            yield RingElement(self, tuple(combo))

    def descriptor(self):
        return "prod(" + ",".join(f.descriptor() for f in self.factors) + ")"

    def format_element(self, a):
        return "(" + "; ".join(c.ring.format_element(c) for c in a.data) + ")"

    def parse_element(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad product element {s!r}")
        parts = s[1:-1].split(";")
        return self.from_components(
            f.parse_element(part) for f, part in zip(self.factors, parts)
        )

    def __eq__(self, other):
        return isinstance(other, ProductRing) and other.factors == self.factors

    def __hash__(self):
        return hash(("prod", self.factors))


# --- F_p[x] helpers for unit testing via gcd + Hensel ---


def _fp_poly_divmod(a, b, p):
    a = list(a)
    db, bl = len(b) - 1, b[-1]
    inv = pow(bl, -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            f = c * inv % p
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    r = [c % p for c in a[:db]]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _fp_poly_invmod(a, f, p):
    """Inverse of a modulo f over F_p, or None if gcd(a, f) != 1."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return None
    r0, r1 = list(f), a
    s0, s1 = [], [1]
    while r1:
        q, r = _fp_poly_divmod(r0, r1, p)
        # s = s0 - q*s1
        prod = [0] * (len(q) + len(s1))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] = (prod[i + j] + qc * sc) % p
        s = [(x - y) % p for x, y in itertools.zip_longest(s0, prod, fillvalue=0)]
        while s and s[-1] == 0:
            s.pop()
        r0, r1, s0, s1 = r1, r, s1, s
    if len(r0) != 1:
        return None
    inv_lead = pow(r0[0], -1, p)
    return [c * inv_lead % p for c in s0]


def _invert_via_fp_and_lift(ring, a):
    """Unit inverse in Z/p^M[x]/(f) via F_p gcd + Hensel, or None."""
    inv_p = _fp_poly_invmod(list(a.data), ring.minpoly, ring.p)
    if inv_p is None:
        return None
    b = ring.from_coeffs(inv_p)
    two = ring.from_int(2)
    for _ in range(max(1, (ring.M - 1).bit_length() + 1)):
        b = b * (two - a * b)
    return b if (a * b) == ring.one() else None


# --- descriptors and sampling ---


def ring_from_descriptor(s):
    s = s.strip()
    if s == "Z":
        return IntegerRing()
    m = re.fullmatch(r"cyc\((\d+),(\d+),(\d+)\)", s)
    if m:
        return CyclotomicTruncation(*(int(g) for g in m.groups()))
    m = re.fullmatch(r"charp\((\d+),(\d+),(\d+)\)", s)
    if m:
        return CharPQuotient(*(int(g) for g in m.groups()))
    if s.startswith("prod(") and s.endswith(")"):
        inner = s[5:-1]
        parts = []
        depth = 0
        start = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        return ProductRing(ring_from_descriptor(part) for part in parts)
    raise ValueError(f"bad ring descriptor {s!r}")


def make_cyclotomic(p, N, M):
    return CyclotomicTruncation(p, N, M)


def random_element(ring, rng):
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-9, 9))
    if isinstance(ring, ProductRing):
        return ring.from_components(random_element(f, rng) for f in ring.factors)
    return RingElement(ring, tuple(rng.randrange(ring.m) for _ in range(ring.d)))
