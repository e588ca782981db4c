"""Exact arithmetic in the base rings.

Three kinds of ring handle:

* ``IntegerRing``            -- Z
* ``CyclotomicTruncation``   -- Z[x]/(Phi_{p^N}(x), p^M), finite, cardinality
                                p^(M*phi(p^N)); the class of x^(p^(N-n)) plays
                                the role of a primitive p^n-th root of unity
* ``CharPQuotient``          -- F_p[s]/(s^(K*p^e)) with distinguished element
                                t = s^(p^e), so t has p-power roots to depth e

Elements are stored in canonical form (coefficient tuples reduced modulo the
minimal polynomial and modulo p^M, entries in [0, p^M)), so equality is
tuple equality.  Handles and elements are immutable; everything here is safe
to share between threads.  Each divisor's elimination and annihilator are
kept in an lru_cache of DIVISOR_CACHE_SIZE entries, which does its own
bookkeeping under a lock; two threads may build one entry twice, and
either copy is right.

Quotient rings with at most TABLE_CAP elements multiply through lookup tables
over element indices (SmallRingTables); larger ones multiply coefficient
tuples through the pure-Python kernel in ``_kernel`` (packed big-int
products, or a schoolbook loop).  Payloads are tuples either way.

p = 2 is rejected everywhere.
"""

import functools
import itertools
import re
from array import array
from fractions import Fraction

import numpy as np

from . import _kernel as kernel
from .modlin import Elimination

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
    and the tables of ``pow_table(e)``, ``mul_row(k)`` and
    ``scale_table(c)``, map an index a to the index of -a, a**e, k*a and c*a.
    Every table is an ``array('H')``; the two multiplication tables take
    2*Q*(H+L) bytes, far less than a Q*Q table.

    ``add_expr`` and ``mul_expr`` give the sum and product as Python source
    over the tables in ``namespace``, for code generated elsewhere; ``add``
    and ``mul`` are compiled from the same source.  The same source also runs
    on numpy index arrays over ``int64`` copies of the tables.
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
        self._rows = {}
        self._int64 = {}
        self.neg = self.scale_table(m - 1)
        self.namespace = {
            "_MH": self.mul_hi,
            "_ML": self.mul_lo,
            "_AH": self.add_hi,
            "_AL": self.add_lo,
        }
        # eval adds __builtins__ to the dict it is given: keep namespace to the tables
        ns = dict(self.namespace)
        self.add = eval(f"lambda x, y: {self.add_expr('x', 'y')}", ns)  # noqa: S307
        self.mul = eval(f"lambda a, b: {self.mul_expr('a', 'b')}", ns)  # noqa: S307

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

    def mul_row(self, k):
        """Table of a -> k*a for the element of index k, built once per k:
        row k of the multiplication table."""
        table = self._rows.get(k)
        if table is None:
            prod = self._vmul(np.arange(self.Q, dtype=np.int64), np.int64(k))
            table = self._rows.setdefault(k, array("H", prod.astype(np.uint16).tobytes()))
        return table

    def scale_table(self, c):
        """Table of a -> c*a for an integer c: the row of c*1."""
        return self.mul_row(c % self.m * self.one)

    def int64(self, table):
        """An int64 numpy copy of one of these tables, built once, for index
        arrays to gather through: lookups then return numpy's own index type,
        and the index arithmetic between them cannot wrap as uint16 would.
        It would: at d = 1, add_lo holds Q * L = m^2 entries, and at
        charp(257,0,1) the index x % L * L + y % L passes 2^16, so a batch
        sum on uint16 views of the tables disagrees with the per-element
        one (tests/test_witt_batch.py)."""
        got = self._int64.get(id(table))
        if got is None:
            got = self._int64[id(table)] = np.frombuffer(table, dtype=np.uint16).astype(np.int64)
        return got

    def nbytes(self):
        tables = [self.mul_hi, self.mul_lo, self.add_hi, self.add_lo]
        tables += list(self._pow.values()) + list(self._rows.values())
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


_shapes = {}


def _quotient_shape(kind, m, d, q):
    """The kernel context and SmallRingTables (None above TABLE_CAP) of the
    quotient rings of one kind, modulus and degree, built once per process
    and shared by every ring handle of that shape.  q is the cyclotomic
    period p^(N-1), or None for x^d = 0; the context derives the reduction
    rows from it, and the tables read them there."""
    key = (kind, m, d)
    shape = _shapes.get(key)
    if shape is None:
        ctx = kernel.make_ctx(m, d, q)
        tables = SmallRingTables(m, d, ctx.red) if m**d <= TABLE_CAP else None
        shape = _shapes.setdefault(key, (ctx, tables))
    return shape


# The most divisors whose linear algebra _QuotientRing keeps, over all rings.
DIVISOR_CACHE_SIZE = 32


@functools.lru_cache(maxsize=DIVISOR_CACHE_SIZE)
def _divisor_entry(ring, payload):
    """The cache entry of the divisor payload of ring, a dict that keeps its
    elimination ("elim") and annihilator ("ann") once they are built.
    Equal rings share entries; past DIVISOR_CACHE_SIZE entries the least
    recently used is dropped."""
    return {}


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
        if not isinstance(other, RingElement) or (
            other.ring is not self.ring and other.ring != self.ring
        ):
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
            and (other.ring is self.ring or other.ring == self.ring)
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

    def mul(self, a, b):
        return a * b

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

    Subclasses fix m, the degree d, the cyclotomic period q (None for
    x^d = 0), from which the kernel context derives the reduction rows for
    x^(d+j), the residue map to F_p, and the printing variable.  Both rings
    are local: the maximal ideal is (x - 1) for cyc and (s) for charp.
    """

    # set by subclass __init__: p, m (coefficient modulus), d (degree),
    # _ctx (kernel context), _red_rows (its reduction rows), _tables
    # (SmallRingTables or None), _var (print name)

    def _init_quotient(self, p, m, d, q, var):
        self.p = p
        self.m = m
        self.d = d
        self._ctx, self._tables = _quotient_shape(self.kind, m, d, q)
        self._red_rows = self._ctx.red
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

    def cardinality(self):
        return self.m**self.d

    def enumerate_elements(self):
        for tup in self.enumerate_payloads():
            yield RingElement(self, tup)

    def enumerate_payloads(self):
        """The payloads of enumerate_elements, in its order."""
        return itertools.product(range(self.m), repeat=self.d)

    def _mul_matrix(self, b):
        """Columns: b * x^j in canonical form (d x d over Z/m).  Column j+1
        is column j times x: shifted up one slot, plus its top coefficient
        times x^d reduced (the first reduction row), mod m."""
        m = self.m
        cols = [b.data]
        for _ in range(self.d - 1):
            cur = cols[-1]
            top = cur[-1]
            shifted = (0,) + cur[:-1]
            if top:
                shifted = tuple([(s + top * r) % m for s, r in zip(shifted, self._red_rows[0])])
            cols.append(shifted)
        return [list(row) for row in zip(*cols)]

    def _residue(self, a):
        """The image of the payload a in the residue field F_p, as an int."""
        raise NotImplementedError

    def is_unit(self, a):
        """(True, inverse) or (False, None).

        The ring is local with residue field F_p, so a is a unit iff its
        residue is nonzero.  Newton's iteration b <- b(2 - ab), started at the
        inverse of the residue, squares the error 1 - ab, which lies in the
        maximal ideal; the (d*M)-th power of that ideal is zero.
        """
        r = self._residue(a.data) % self.p
        if r == 0:
            return False, None
        two = self.from_int(2).data
        b = self.from_int(pow(r, -1, self.p)).data
        for _ in range((self.d * self._M_for_solve() - 1).bit_length()):
            b = self._mul(b, self._sub(two, self._mul(a.data, b)))
        assert self._mul(a.data, b) == self.one().data
        return True, RingElement(self, b)

    def divide_exact(self, a, b):
        ok, inv = self.is_unit(b)
        if ok:
            return a * inv
        if self._residue(a.data) % self.p:
            return None  # b*c lies in the maximal ideal and a does not
        sol = self._elimination(b).solve(a.data)
        if sol is None:
            return None
        c = RingElement(self, tuple(x % self.m for x in sol))
        assert (b * c) == a
        return c

    def annihilator(self, b, cap=None):
        if self.m != self.p and self.cardinality() > (4096 if cap is None else cap):
            return None  # prime-power modulus: brute force below the cap only
        entry = _divisor_entry(self, b.data)
        ann = entry.get("ann")
        if ann is None:
            if self.m == self.p:
                ann = self._elimination(b).solutions((0,) * self.d, cap)
                if ann is None:
                    return None
                ann = [RingElement(self, u) for u in ann]
            else:
                zero = self.zero()
                ann = [c for c in self.enumerate_elements() if b * c == zero]
            ann = entry["ann"] = tuple(ann)
        elif cap is not None and len(ann) > cap:
            return None
        return list(ann)

    def _elimination(self, b):
        """The recorded elimination of b's multiplication matrix."""
        entry = _divisor_entry(self, b.data)
        elim = entry.get("elim")
        if elim is None:
            elim = entry["elim"] = Elimination(self._mul_matrix(b), self.p, self._M_for_solve())
        return elim

    def _frobenius_rows(self):
        """The matrix of u -> u^p on the power basis (d x d over Z/m, rows),
        column j the payload of (x^j)^p."""
        cols = [self._pow(tuple(int(i == j) for i in range(self.d)), self.p) for j in range(self.d)]
        return [list(row) for row in zip(*cols)]

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
        self._hash = hash(("cyc", p, N, M))
        self.minpoly = _cyclotomic_minpoly(p, N)
        self._init_quotient(p, p**M, len(self.minpoly) - 1, p ** (N - 1), "z")

    def _M_for_solve(self):
        return self.M

    def _residue(self, a):
        # z -> 1; the residue is well defined since Phi_{p^N}(1) = p
        return sum(a)

    def zeta(self, n):
        """Primitive p^n-th root of unity, 1 <= n <= N."""
        if not 1 <= n <= self.N:
            raise ValueError(f"zeta({n}) needs 1 <= n <= N = {self.N}")
        idx = self.p ** (self.N - n)
        vec = [0] * self.d
        vec[idx] = 1
        return RingElement(self, tuple(vec))

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
        return self._hash


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
        self._hash = hash(("charp", p, e, K))
        self._init_quotient(p, p, K * p**e, None, "t")

    def _M_for_solve(self):
        return 1

    def _residue(self, a):
        # s -> 0
        return a[0]

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
        return self._hash


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
    raise ValueError(f"bad ring descriptor {s!r}")


def random_payload(ring, rng):
    """A seeded random payload of ring: over Z, rng.randint(-9, 9); over a
    quotient ring, d coefficients, each drawn as rng.randrange(m) draws it.

    randrange(m) draws k = m.bit_length() bits and redraws while they read m
    or more; this loop does the same, so the coefficients, and rng's state
    after them, are randrange's, without its argument handling per
    coefficient."""
    if isinstance(ring, IntegerRing):
        return rng.randint(-9, 9)
    m = ring.m
    k = m.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(ring.d):
        r = draw(k)
        while r >= m:
            r = draw(k)
        out.append(r)
    return tuple(out)


def random_coefficients(ring, rng, count):
    """The next count coefficients that random_payload draws over the
    quotient ring, as an int64 array (of Python ints when m exceeds int64),
    leaving rng as that loop leaves it.

    getrandbits(k) reads w = ceil(k / 32) 32-bit words of the Mersenne
    Twister, least significant first, and drops the low 32 w - k bits of the
    last; getrandbits(32 w c) reads the same words in the same order.  So
    each pass draws the words of the coefficients still missing in one
    call, keeps those that read below m, and leaves the shortfall to the
    next pass: no word past the last kept coefficient is drawn."""
    m = ring.m
    k = m.bit_length()
    w = (k + 31) // 32
    dtype = np.int64 if k < 64 else object
    out = np.empty(count, dtype=dtype)
    got = 0
    while got < count:
        need = count - got
        bits = rng.getrandbits(32 * w * need).to_bytes(4 * w * need, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(need, w)
        if w == 1:
            # a word reads below m, shifted, iff it is below m shifted back:
            # only the kept words are shifted, straight into out
            keep = words[words[:, 0] < m << (32 - k), 0]
            np.right_shift(keep, 32 - k, out=out[got : got + len(keep)])
        else:
            vals = words[:, -1] >> (32 * w - k)
            for j in range(w - 2, -1, -1):
                vals = vals.astype(dtype) << 32 | words[:, j].astype(dtype)
            keep = vals[vals < m]
            out[got : got + len(keep)] = keep
        got += len(keep)
    return out


def random_element(ring, rng):
    return RingElement(ring, random_payload(ring, rng))
