"""Coefficient-vector arithmetic in Z/m[x]/(minpoly), in pure Python.  Exact
by construction: Python ints never overflow.

Multiplications of canonical coefficient vectors run through this module for
rings with more than ``rings.TABLE_CAP`` elements; smaller rings use the
lookup tables of ``rings.SmallRingTables`` and never call the multiplication
kernel.  The calling convention:

    ctx = make_ctx(m, d, q)         # q = p^(N-1) for cyc, None for charp
    c   = poly_mulmod(a, b, ctx)    # canonical product of canonical vectors
    f   = poly_frobmod(a, ctx)      # a^p, when ctx.char = p is not None
    g   = poly_powmod(a, e, ctx)    # a^e, e >= 0

Vectors are tuples of ints in [0, m).

Every ring that reaches this kernel (more than ``rings.TABLE_CAP`` elements)
is a ``CyclotomicTruncation`` or a ``CharPQuotient``, and the ring passes
its period q to ``make_ctx``, which derives the reduction rows (``ctx.red``,
x^(d+j) reduced) and everything else from it.  Products are packed
(Kronecker substitution): each operand becomes one int with a fixed-width
slot per coefficient, one big-int multiply forms the whole convolution, and
the reduction works on the packed product:

* ``charp`` (all reduction rows zero): keep the low d slots.
* ``cyc`` (modulus Phi = sum_{i<p} x^(i*q), q = p^(N-1), d = (p-1)*q): fold
  modulo x^(p*q) - 1, which Phi divides, with one shift and one add; then
  x^(d+r) = -sum_{i<p-1} x^(i*q+r) for the top q slots, subtracted from a
  per-slot multiple of m so that no slot borrows.

The slots are 16, 32 or 64 bits wide, the narrowest that holds the worst
case: a convolution coefficient is at most d*(m-1)^2, and the cyc fold adds
a pad of the same size.  Slots go in and out through one ``struct.Struct``
and ``int.from_bytes``/``int.to_bytes``, and every output slot is then
reduced mod m.  Contexts whose bound exceeds 64-bit slots (e.g.
cyc(3,1,40)) multiply with the schoolbook loop (``schoolbook_mulmod``).

For ``charp``, and for ``cyc`` with d = (m-1)*q (M = 1, m = p), the ring
has characteristic p and ``ctx.char`` is p (else None).  The Frobenius
a -> a^p is then a ring map that fixes the coefficients (c^p = c in F_p), so
a^p = sum_i c_i x^(i*p): ``poly_frobmod`` moves coefficients instead of
multiplying.  For ``charp`` coefficient i goes to slot i*p, and slots past d
drop.  For ``cyc``, x^(p*q) = 1 gives i*p = p*(i mod q) mod p*q: the p-1
blocks of q coefficients are summed, block entry r goes to slot p*r, and the
top q slots fold through Phi as in the product.  ``poly_powmod`` takes each
factor p of the exponent through ``poly_frobmod`` and square-and-multiplies
the rest.
"""

import operator
import struct

# slot width in bytes -> struct code of exactly that width (little-endian)
_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}


class _Ctx:
    __slots__ = (
        "red", "m", "d", "q", "char", "blocks", "slots", "keep", "fold", "low", "top", "spread",
        "pad"
    )

    def __init__(self, m, d, q):
        self.m = m = int(m)
        self.d = d = int(d)
        self.q = q
        # x^(d+j) reduced, j = 0..d-2: zero for charp; for cyc
        # -sum_{i<p-1} x^(i*q+j) when j < q, else x^(j-q) since x^(p*q) = 1
        zero = (0,) * d
        rows = [zero] * max(d - 1, 0)
        if q is not None:
            for j in range(d - 1):
                row = list(zero)
                if j < q:
                    for k in range(j, d, q):
                        row[k] = m - 1
                else:
                    row[j - q] = 1
                rows[j] = tuple(row)
        self.red = tuple(rows)
        self.slots = None  # struct of the d packed slots; None = schoolbook
        self.char = None  # m when poly_frobmod applies
        if q is None or d == (m - 1) * q:
            self.char = m
            # the p-1 blocks of q coefficients that poly_frobmod sums (cyc)
            self.blocks = None if q is None else tuple(slice(k, k + q) for k in range(0, d, q))
        bound = d * (m - 1) ** 2
        pad = -(-bound // m) * m  # a multiple of m at least the bound
        need = bound if q is None else bound + pad
        width = next((w for w in _SLOT_CODES if need < 1 << (8 * w)), None)
        if width is None:
            return
        s = 8 * width
        self.slots = struct.Struct(f"<{d}{_SLOT_CODES[width]}")
        self.keep = (1 << (d * s)) - 1
        if q is None:
            self.fold = None
            return
        # fold x^(d+q+j) -> x^j; the top q slots then pass through Phi
        self.fold = (d + q) * s
        self.low = (1 << self.fold) - 1
        self.top = d * s
        self.spread = sum(1 << (i * q * s) for i in range(d // q))
        self.pad = sum(pad << (i * s) for i in range(d))


def make_ctx(m, d, q):
    """The context of Z/m[x]/(Phi) with Phi = sum_{i<p} x^(i*q) of degree
    d = (p-1)*q (cyc), or of Z/m[x]/(x^d) when q is None (charp)."""
    return _Ctx(m, d, q)


def poly_mulmod(a, b, ctx):
    slots = ctx.slots
    if slots is None:
        return schoolbook_mulmod(a, b, ctx)
    prod = int.from_bytes(slots.pack(*a), "little")
    prod *= prod if b is a else int.from_bytes(slots.pack(*b), "little")
    if ctx.fold is None:
        prod &= ctx.keep
    else:
        prod = (prod & ctx.low) + (prod >> ctx.fold)
        prod = (prod & ctx.keep) + ctx.pad - (prod >> ctx.top) * ctx.spread
    m = ctx.m
    return tuple([c % m for c in slots.unpack(prod.to_bytes(slots.size, "little"))])


def schoolbook_mulmod(a, b, ctx):
    """The product by the d^2 loop and the reduction rows; any context."""
    d, m = ctx.d, ctx.m
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    out = [c % m for c in conv[:d]]
    for j in range(d - 1):
        c = conv[d + j] % m
        if c:
            row = ctx.red[j]
            for k in range(d):
                out[k] += c * row[k]
    return tuple([c % m for c in out])


def poly_frobmod(a, ctx):
    """a^p for a context of characteristic p = ctx.char, by moving
    coefficients: no product."""
    p, d = ctx.char, ctx.d
    out = [0] * d
    if ctx.blocks is None:  # charp: slot i*p, dropped past d
        out[::p] = a[: (d - 1) // p + 1]
        return tuple(out)
    # cyc: x^(p*q) = 1, so entry r of each of the p-1 blocks of q coefficients
    # goes to slot p*r of p*q.  The slots p*r >= d are q/p slots d+j with j a
    # multiple of p (N >= 2; none at q = 1), and x^(d+j) = -sum_{i<p-1}
    # x^(i*q+j) subtracts slot d+j from the slots p*r < d that are j mod q.
    sums = list(map(sum, zip(*map(a.__getitem__, ctx.blocks))))
    low = (d - 1) // p + 1  # the slots p*r below d
    vals = sums[:low]
    if low < len(sums):
        vals = map(operator.sub, vals, sums[low:] * (p - 1))
    out[::p] = map(p.__rmod__, vals)
    return tuple(out)


def poly_powmod(a, e, ctx):
    p = ctx.char
    if p is not None:
        while e and e % p == 0:
            a = poly_frobmod(a, ctx)
            e //= p
    result = None  # the power 1, never multiplied out
    base = a
    while e:
        if e & 1:
            result = base if result is None else poly_mulmod(result, base, ctx)
        e >>= 1
        if e:
            base = poly_mulmod(base, base, ctx)
    return (1,) + (0,) * (ctx.d - 1) if result is None else result


def vec_addmod(a, b, m):
    return tuple([(x + y) % m for x, y in zip(a, b)])


def vec_submod(a, b, m):
    return tuple([(x - y) % m for x, y in zip(a, b)])


def vec_negmod(a, m):
    return tuple([-x % m for x in a])


def vec_scalemod(a, c, m):
    c %= m
    return tuple([c * x % m for x in a])


def impl_name():
    """The coefficient kernel's name: always "python", the only one there is."""
    return "python"
