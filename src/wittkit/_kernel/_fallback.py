"""Pure-Python kernel.  Exact by construction: Python ints never overflow.

Every ring that reaches this kernel (more than ``rings.TABLE_CAP`` elements)
is a ``CyclotomicTruncation`` or a ``CharPQuotient``, and ``make_ctx``
recognises both shapes from the reduction rows.  Their products are packed
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
reduced mod m.  Contexts whose reduction rows have neither shape, or whose
bound exceeds 64-bit slots (e.g. cyc(3,1,40)), multiply with the schoolbook
loop (``schoolbook_mulmod``).
"""

import struct

# slot width in bytes -> struct code of exactly that width (little-endian)
_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}


class _Ctx:
    __slots__ = ("red", "m", "d", "slots", "keep", "fold", "low", "top", "spread", "pad")

    def __init__(self, red_rows, m, d):
        self.red = tuple(tuple(int(c) % m for c in row) for row in red_rows)
        self.m = int(m)
        self.d = int(d)
        self.slots = None  # struct of the d packed slots; None = schoolbook
        d, m = self.d, self.m
        if not any(any(row) for row in self.red):
            q = None  # x^d = 0: keep the low d slots
        else:
            q = _cyclotomic_period(self.red, m, d)
            if q is None:
                return
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


def _cyclotomic_period(red, m, d):
    """q when the rows reduce modulo sum_{i<p} x^(i*q) with d = (p-1)*q,
    else None."""
    base = red[0]
    q = next((k for k in range(1, d) if base[k]), None)
    if q is None or d % q:
        return None
    want = []
    for j in range(d - 1):
        row = [0] * d
        if j < q:  # x^(d+j) = -sum_{i<p-1} x^(i*q+j)
            for k in range(j, d, q):
                row[k] = m - 1
        else:  # x^(d+j) = x^(j-q), since x^(p*q) = 1
            row[j - q] = 1
        want.append(tuple(row))
    return q if tuple(want) == red else None


def make_ctx(red_rows, m, d):
    return _Ctx(red_rows, m, d)


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


def poly_powmod(a, e, ctx):
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
