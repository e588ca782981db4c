"""Truncated p-typical Witt vectors over any RingHandle.

The ring structure is computed through universal integer polynomials (the
Frobenius, and the carries eta of [x] + [y] in s = x + y and q = xy), built
once per (p, n) by ghost recursion with exact division by p.  Integrality
of those divisions is a theorem; a failed division means the builder is
broken and raises WittTableError immediately.

Universal polynomials are sparse dicts {exponent tuple: int coefficient},
built and checked on packed monomials (one int per monomial, _Packing).
Evaluation happens through Python functions compiled from the dicts; for
truncations with p^M = 0 the compiled form drops monomials whose coefficient
vanishes mod p^M (sound in the target ring, and the bulk of the speedup for
exhaustive checks).  There is one element representation: a WittVector
stores the payload tuple that RawWittOps computes on, and its ``coords`` are
a view built on demand.  RawWittOps runs each of sum, product, Frobenius and
ghost map as one function that computes every coordinate at once.  One
compiler (_compiler._compile_polys) builds them from programs of polynomial
blocks, and one builder (_witt_program) writes the programs.  The Frobenius,
the ghost map and the twist (F^n(x)_0 with the powers of F^n d, for the
twisted module) are one block each.  The sum is a carry program,
a + b = [a_0 + b_0] + V((eta'(a_0, b_0) + a') + b'): a block of the carries
eta, as polynomials in a_0 + b_0 and a_0 b_0, and two shorter sums.  The
product is a program over the sum, a b = [a_0 b_0] + V(([a_0] b)' + a' F(b)):
Teichmuller scalings, a Frobenius block, and a shorter product and sum.
verify_ghost_symbolic checks the ghost identities on these same programs,
evaluated on polynomials: nothing builds the sum or product expanded in 2n
variables.  WittUniversalTable.compiled is the one entry: the ring picks
the back end (_compiler._back_end), lookup tables at or below
rings.TABLE_CAP elements, the coefficient kernel above it, plain ints over
Z, and quotient rings also have a batch form of sum, product and Frobenius.
Coordinates can be fixed at compile time (the exact-rz maps: R z as a
product by the constant R(z), F^n as the ghost block on (w, 0)), and the
compiler folds their products and powers into constants.  The tilt's Witt
arithmetic runs these same operations on the payloads of its lifts, one
lift level at a time.
"""

import functools
import itertools
import math
import operator

import numpy as np

from ._compiler import _back_end, _coeff_batch_dtype, _compile_polys
from .rings import IntegerRing, RingElement, _digits, random_payload, require_odd_prime

_MAX_PRACTICAL_LEN = {3: 5, 5: 4}


class WittTableError(RuntimeError):
    """An exact division by p failed while building universal polynomials."""


# --- sparse integer polynomials -------------------------------------------
#
# A polynomial is a dict {monomial: nonzero int coefficient}.  The tables
# store monomials as exponent tuples.  The arithmetic of this block runs on
# packed monomials instead: one int per monomial, each exponent in a field
# of fixed width, variable 0 in the most significant field (_Packing).  The
# product of two monomials is then the sum of their ints, the monomial 1 is
# 0, and int order is the lex order of exponent tuples (Monagan and Pearce,
# Polynomial division using dynamic arrays, heaps, and packed exponent
# vectors, CASC 2007).
#
# A field that outgrew its width would carry into its neighbour without a
# trace.  So the width is fixed from the data before any arithmetic, wide
# enough for every exponent the computation can form, and packing an
# exponent that does not fit raises WittTableError.  The bound: ghost
# components are weighted-homogeneous (x_k of weight p^k), so every
# exponent of a table built for (p, n) is at most p^(n-1), and so is every
# exponent that its ghost recursion forms.  verify_ghost_symbolic reads
# tables and programs that a caller may have changed, so it takes its width
# from their exponents, carried through the programs (_verify_bound).


class _Packing:
    """Monomials in nvars variables as ints, each exponent in a field of
    width bits, wide enough to hold 0..bound."""

    def __init__(self, nvars, bound):
        self.nvars = nvars
        self.width = max(bound, 1).bit_length()
        self.top = (1 << self.width) - 1
        self.shifts = [self.width * (nvars - 1 - i) for i in range(nvars)]
        self.vars = [1 << s for s in self.shifts]

    def pack(self, mono):
        if len(mono) != self.nvars or min(mono) < 0 or max(mono) > self.top:
            raise WittTableError(
                f"monomial {mono} does not fit {self.nvars} exponent fields of {self.width} bits"
            )
        packed = 0
        for e in mono:
            packed = packed << self.width | e
        return packed

    def unpack(self, packed):
        top = self.top
        return tuple(packed >> s & top for s in self.shifts)

    def pack_poly(self, poly):
        return {self.pack(mono): c for mono, c in poly.items()}

    def unpack_poly(self, poly):
        return {self.unpack(mono): c for mono, c in poly.items()}


def _combine(terms):
    """sum k * poly over the pairs (k, poly) of terms, in monomials of any
    one form."""
    out = {}
    get = out.get
    for k, poly in terms:
        for mono, c in poly.items():
            out[mono] = get(mono, 0) + k * c
    return {mono: c for mono, c in out.items() if c}


def _padd(a, b, k=1):
    """a + k b."""
    return _combine(((1, a), (k, b)))


def _pmul(a, b):
    out = {}
    get = out.get
    for mb, cb in b.items():
        for ma, ca in a.items():
            mono = ma + mb
            out[mono] = get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def _ppow(a, e):
    result = None
    while True:
        if e & 1:
            result = a if result is None else _pmul(result, a)
        e >>= 1
        if not e:
            return {0: 1} if result is None else result
        a = _pmul(a, a)


def _pdiv_exact(a, k):
    out = {}
    for mono, c in a.items():
        if c % k:
            raise WittTableError(
                f"non-integral Witt polynomial: coefficient {c} not divisible by {k}"
            )
        out[mono] = c // k
    return out


def _psubst(poly, subs):
    """poly, in exponent tuples, with the packed polynomials subs put for its
    variables.  A one-monomial substitute shifts and scales each term; a new
    power of another is the largest one taken so far times the rest."""
    powers = {}
    out = {}
    get = out.get
    for mono, c in sorted(poly.items()):
        if min(mono) < 0:
            raise WittTableError(f"negative exponent in {mono}")
        shift, term = 0, None
        for vi, e in enumerate(mono):
            if e:
                sub = subs[vi]
                if len(sub) == 1:
                    ((m, k),) = sub.items()
                    shift += m * e
                    c *= k**e
                    continue
                power = powers.get((vi, e))
                if power is None:
                    below = max((d for v, d in powers if v == vi and d < e), default=0)
                    power = _ppow(sub, e - below)
                    if below:
                        power = _pmul(powers[vi, below], power)
                    powers[vi, e] = power
                term = power if term is None else _pmul(term, power)
        for m, k in ({0: 1} if term is None else term).items():
            m += shift
            out[m] = get(m, 0) + c * k
    return {mono: c for mono, c in out.items() if c}


def _ghost_poly(p, i, xs):
    """w_i over the packed variables xs: sum_j p^j X_j^(p^(i-j))."""
    return {x * p ** (i - j): p**j for j, x in enumerate(xs[: i + 1])}


def _ghost_partials(p, polys):
    """For i = 0, 1, ...: sum_{j<i} p^j polys[j]^(p^(i-j)), the ghost
    component w_i of a vector whose first i coordinates are polys[:i] and
    whose others vanish.  Each power is the p-th power of the one before.
    Step i reads polys[i - 1] only then, so the caller may append it after
    step i - 1, as the recursion does."""
    powers = []
    for i in itertools.count():
        if i:
            powers.append(polys[i - 1])
        powers = [_ppow(f, p) for f in powers]
        yield _combine((p**j, f) for j, f in enumerate(powers))


def _ghost_recursion(p, count, target):
    """The polynomials f_0..f_{count-1} whose ghost components are the
    targets, w_i(f) = target(i): each f_i is solved for by exact division
    by p^i."""
    polys = []
    partials = _ghost_partials(p, polys)
    for i in range(count):
        polys.append(_pdiv_exact(_padd(target(i), next(partials), -1), p**i))
    return polys


def _ghost_components(p, polys):
    """w_0, w_1, ... of the iterable polys: w_i reads none past polys[i]."""
    read = []
    for i, (f, partial) in enumerate(zip(polys, _ghost_partials(p, read))):
        yield _padd(partial, f, p**i)
        read.append(f)


def _power_sum(k, s, q):
    """x^k + y^k (k >= 1) in the packed variables s = x + y and q = xy, by
    Waring's formula: sum_j (-1)^j k/(k-j) C(k-j, j) s^(k-2j) q^j.  At
    k = p^i it is the ghost component w_i of [x] + [y]."""
    return {
        s * (k - 2 * j) + q * j: (-1) ** j * (k * math.comb(k - j, j) // (k - j))
        for j in range(k // 2 + 1)
    }


# --- universal tables -------------------------------------------------------


class WittUniversalTable:
    """Sum/product/Frobenius polynomials for W_n at the prime p.

    ``frob_polys[i]`` (i < n-1) live in the n variables x_0..x_{n-1} and
    compute F: W_n -> W_{n-1}.  Negation is coordinatewise because p is
    odd.  ``eta_sym_polys[k]`` is coordinate k of [x] + [y], which is
    symmetric in x and y, as a polynomial in the two variables s = x + y
    and q = xy: eta_0 = s, and eta_k has weighted degree p^k (q of weight
    2).  The carries are built by ghost recursion in s and q directly,
    against the power sums x^(p^i) + y^(p^i) (_power_sum).  The sum and
    product are the programs of _witt_program over ``eta_sym_polys`` and
    ``frob_polys``: compiled to run, evaluated to be checked, never
    expanded in all 2n coordinates.
    """

    def __init__(self, p, n):
        require_odd_prime(p)
        if n < 1:
            raise ValueError("length must be >= 1")
        self.p = p
        self.n = n
        bound = p ** (n - 1)  # the largest exponent of the table
        pk = _Packing(n, bound)
        self.frob_polys = [
            pk.unpack_poly(f)
            for f in _ghost_recursion(p, n - 1, lambda i: _ghost_poly(p, i + 1, pk.vars))
        ]
        pk = _Packing(2, bound)
        self.eta_sym_polys = [
            pk.unpack_poly(f)
            for f in _ghost_recursion(p, n, lambda i: _power_sum(p**i, *pk.vars))
        ]
        self._compiled = {}

    def compiled(self, which, ring, batch=False, fixed=None):
        """All coordinates of sum/prod/frob/ghost/twist in one function on
        raw payloads of W_n(ring), or with batch on batches of them, through
        the back end that _back_end picks for ring; ghost gives the ghost
        components w_0..w_{n-1}, twist w_{n-1} and the powers of F^(n-1) d
        (_witt_program).  fixed, per element only, is a dict
        {coordinate: payload} of operand coordinates (0..n-1 the first
        operand's, n..2n-1 the second's) folded in at compile time as
        constants: the function takes each operand without its fixed
        coordinates, and an operand fixed whole not at all.  Cached by what
        the back end reads and by fixed, so the rings of one table shape
        share their functions."""
        fixed = tuple(sorted((fixed or {}).items()))
        if batch and fixed:
            raise TypeError("fixed coordinates compile per element only")
        source, make_exprs = _back_end(ring, batch)
        key = (which, source, batch, fixed)
        fn = self._compiled.get(key)
        if fn is None:
            operands = 1 if which in ("frob", "ghost", "twist") else 2
            fn = _compile_polys(self._program(which), operands, self.n, make_exprs(), dict(fixed))
            self._compiled[key] = fn
        return fn

    def _program(self, which):
        """The program of _compile_polys for sum, prod, frob, ghost or twist."""
        return _witt_program(which, self.p, self.n, self.eta_sym_polys, self.frob_polys)


def _witt_program(which, p, n, eta_sym_polys, frob_polys):
    """The Witt sum, product, Frobenius or ghost map of length n as a
    program of _compile_polys on the coordinates a_0..a_{n-1},
    b_0..b_{n-1} (values 0..2n-1; the Frobenius and the ghost map read a
    only).

    Every a in W_n is [a_0] + V(a'), and [x] + [y] = [x + y] + V(eta'(x, y))
    with eta' = (eta_1, ..., eta_{n-1}), so

        a + b = [a_0 + b_0] + V((eta'(a_0, b_0) + a') + b').

    A length-n sum is then one block of s = a_0 + b_0 and q = a_0 b_0, one
    of the carries eta_k = eta_sym_polys[k](s, q), and two sums of length
    n - 1, in place of expanded sum polynomials that read all 2n
    coordinates at once (Finotti, Computations with Witt vectors and the
    Greenberg transform, IJNT 2014).  Each s and q block is a new pair of
    dicts, so no block is shared with another program; the carry blocks
    hold the table's own eta_sym_polys.  V(x) y = V(x F(y)) and
    [c] b = (c^(p^i) b_i)_i, so

        a b = [a_0 b_0] + V(([a_0] b)' + a' F(b))

    (Illusie, Complexe de de Rham-Witt, 1979): a block a_0^(p^i) b_i for
    each i, one Frobenius block, a product of length n - 1 and a sum of
    length n - 1.  The Frobenius W_k -> W_{k-1} is one block, frob_polys[:k-1]
    with monomials cut to k variables: F_i reads only x_0..x_{i+1}.  The
    ghost map is one block, w_i = sum_{j<=i} p^j x_j^(p^(i-j)) for i < n.
    The twist is one block too, the scalars of the F^k-twisted module at
    k = n - 1: w_k = F^k(x)_0, then x_i^(p^(k-i) - 1) for i < k, the powers
    that F^k d(x) = sum_i x_i^(p^(k-i) - 1) d x_i reads (d is no ring map,
    so its products stay outside); each x_i^(p^(k-i)) of w_k is then one
    product past them.
    """
    if which in ("ghost", "twist"):
        pk = _Packing(n, p ** (n - 1))
        if which == "ghost":
            polys = [_ghost_poly(p, i, pk.vars) for i in range(n)]
        else:
            polys = [_ghost_poly(p, n - 1, pk.vars)]
            polys += [{x * (p ** (n - 1 - i) - 1): 1} for i, x in enumerate(pk.vars[:-1])]
        return [(list(map(pk.unpack_poly, polys)), range(n))], range(n, n + len(polys))
    inputs = range((1 if which == "frob" else 2) * n)
    steps = []
    size = len(inputs)  # the number of values so far

    def block(polys, args):
        nonlocal size
        steps.append((polys, args))
        size += len(polys)
        return list(range(size - len(polys), size))

    def add(xs, ys):
        k = len(xs)
        s_q = ({(1, 0): 1, (0, 1): 1}, {(1, 1): 1})  # x + y, xy
        if k == 1:
            return block(s_q[:1], (xs[0], ys[0]))
        s, q = block(s_q, (xs[0], ys[0]))
        carries = block(eta_sym_polys[1:k], (s, q))
        return [s] + add(add(carries, xs[1:]), ys[1:])

    def mul(xs, ys):
        scaled = [block(({(p**i, 1): 1},), (xs[0], y))[0] for i, y in enumerate(ys)]
        if len(xs) == 1:
            return scaled
        return scaled[:1] + add(scaled[1:], mul(xs[1:], frob(ys)))

    def frob(xs):
        k = len(xs)
        return block([{mono[:k]: c for mono, c in f.items()} for f in frob_polys[: k - 1]], xs)

    if which == "frob":
        return steps, frob(inputs)
    return steps, (add if which == "sum" else mul)(inputs[:n], inputs[n:])


@functools.lru_cache(maxsize=None)
def get_table(p, n):
    cap = _MAX_PRACTICAL_LEN.get(p)
    if cap is not None and n > cap:
        raise ValueError(
            f"length {n} exceeds the practical table bound {cap} for p = {p}"
        )
    return WittUniversalTable(p, n)


def verify_ghost_symbolic(table):
    """Exact polynomial identity check of the ghost-homomorphism property.

    The programs that the compiled sum and product run (table._program) are
    evaluated on the variables x_0..x_{n-1}, y_0..y_{n-1} (_run_program),
    level i only on the steps that outputs 0..i read.  Returns None when
    their outputs' ghost components are w_i(x) + w_i(y) and w_i(x) w_i(y),
    and the Frobenius polynomials satisfy their identity; else a witness
    string naming the first failure.  The carries have no check of their
    own: the sum program reads eta_1..eta_{n-1}, so a wrong one fails the
    sum, and nothing compiled reads eta_0.  The programs are built and
    evaluated on every call, so what is checked is what runs, changes to
    the table included.  Negation is implied: p is odd, so w_i(-x) =
    -w_i(x), and the checked sum takes x, -x to 0.
    """
    p, n = table.p, table.n
    programs = [table._program("sum"), table._program("prod")]
    bound = _verify_bound(table, programs)
    pk = _Packing(2 * n, bound)
    xs, ys = pk.vars[:n], pk.vars[n:]
    inputs = [{x: 1} for x in pk.vars]
    sums, prods = (_ghost_components(p, _run_program(prog, inputs)) for prog in programs)
    for i in range(n):
        wx, wy = _ghost_poly(p, i, xs), _ghost_poly(p, i, ys)
        for which, ghosts, target in (
            ("sum", sums, _padd(wx, wy)),
            ("prod", prods, _pmul(wx, wy)),
        ):
            if _padd(next(ghosts), target, -1):
                return f"{which} polynomial violates ghost identity at i={i} (p={p}, n={n})"
    pk = _Packing(n, bound)
    frobs = _ghost_components(p, [pk.pack_poly(f) for f in table.frob_polys])
    for i in range(n - 1):
        if _padd(next(frobs), _ghost_poly(p, i + 1, pk.vars), -1):
            return f"frob polynomial violates ghost identity at i={i} (p={p}, n={n})"
    return None


def _run_program(program, inputs):
    """The outputs of a program of _compile_polys on the packed polynomials
    inputs, as an iterator: each step substitutes the values it reads into
    its block when an output first reads it."""
    steps, outs = program
    values, made = dict(enumerate(inputs)), {}  # a value past the inputs: its step, first value
    for step in steps:
        first = len(inputs) + len(made)
        made.update((first + j, (step, first)) for j in range(len(step[0])))

    def value(v):
        if v not in values:
            (polys, args), first = made[v]
            subs = [value(a) for a in args]
            values.update(enumerate((_psubst(f, subs) for f in polys), first))
        return values[v]

    return map(value, outs)


def _verify_bound(table, programs):
    """The largest exponent that verify_ghost_symbolic can form on table
    and its sum and product programs, p^(n-1) on a table as built: each
    step's exponent bound (_exponent_bounds), and output j of a program
    raised to p^(n-1-j) and polynomial j of the k Frobenius polynomials to
    p^(k-1-j) by the ghost components."""
    p, n = table.p, table.n
    units = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    bounds = [p ** (n - 1)]
    for steps, outs in programs:
        values = _exponent_bounds(steps, units)
        bounds += map(max, values)
        bounds += [max(values[v]) * p ** (n - 1 - j) for j, v in enumerate(outs)]
    k = len(table.frob_polys)
    bounds += [max(map(max, f), default=0) * p ** (k - 1 - j) for j, f in enumerate(table.frob_polys)]
    return max(bounds)


def _exponent_bounds(steps, inputs):
    """The values of a program's steps on exponent bounds, inputs first: a
    value bounds the exponent of each variable, and a step bounds it in
    prod_j v_j^(e_j) by sum_j e_j * bound(args[j])."""
    values = list(inputs)
    for polys, args in steps:
        subs = [values[a] for a in args]
        for f in polys:
            bound = [0] * len(inputs[0])
            for mono in f:
                got = [0] * len(bound)
                for e, sub in zip(mono, subs):
                    if e:
                        got = [g + e * b for g, b in zip(got, sub)]
                bound = list(map(max, bound, got))
            values.append(bound)
    return values


# --- Witt vectors ------------------------------------------------------------


class WittVector:
    """Element of W_n(A), stored as its payload: the tuple of its n
    coordinates' ring payloads, the form RawWittOps computes on.

    ``coords`` is a read-only view that builds the coordinates as
    RingElements on each read.  The constructor takes RingElements and
    checks that ring owns them; _trusted takes a payload unchecked.
    """

    __slots__ = ("ring", "p", "data")

    def __init__(self, ring, p, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("length must be >= 1")
        for c in coords:
            if not isinstance(c, RingElement) or (c.ring is not ring and c.ring != ring):
                raise ValueError("owner mismatch")
        self.ring = ring
        self.p = p
        self.data = tuple(c.data for c in coords)

    @classmethod
    def _trusted(cls, ring, p, data):
        """A vector from a nonempty tuple of payloads of ring, skipping the
        checks of __init__."""
        w = object.__new__(cls)
        w.ring = ring
        w.p = p
        w.data = data
        return w

    @property
    def coords(self):
        ring = self.ring
        return tuple(RingElement(ring, c) for c in self.data)

    @property
    def length(self):
        return len(self.data)

    def _check(self, other):
        if (
            not isinstance(other, WittVector)
            or (other.ring is not self.ring and other.ring != self.ring)
            or other.p != self.p
            or other.length != self.length
        ):
            raise ValueError("shape mismatch")
        return other

    def __add__(self, other):
        return witt_add(self, self._check(other))

    def __sub__(self, other):
        return witt_add(self, witt_neg(self._check(other)))

    def __neg__(self):
        return witt_neg(self)

    def __mul__(self, other):
        return witt_mul(self, self._check(other))

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.p == self.p
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.p, self.data))

    def is_zero(self):
        zero = self.ring.zero().data
        return all(c == zero for c in self.data)

    def __repr__(self):
        return serialize_witt(self)


class RawWittOps:
    """Witt operations on raw coordinate payloads (tuples of ring payloads:
    coefficient tuples, or ints over Z).

    The payload is what a WittVector stores, so there is one element
    representation: wrap attaches ring and p to a payload and unwrap reads
    it back, neither building a RingElement.  Obtain via raw_witt_ops(ring,
    p, n).  Sum, product, Frobenius and ghost map are each one compiled
    function that computes every coordinate at once, from the one entry
    WittUniversalTable.compiled: the ring picks the back end (_back_end),
    the lookup tables of a ring with at most rings.TABLE_CAP elements, the
    coefficient kernel above the cap, or plain ints over Z.  Over a quotient
    ring, add_batch, mul_batch, frob_batch and scalar_mul_batch run the same
    operations on a batch of many payloads, from the same entry.
    """

    def __init__(self, ring, p, n):
        self.ring = ring
        self.p = p
        self.n = n
        self._universal = get_table(p, n)
        self.zero_payload = ring.zero().data
        self._neg = ring._neg
        self._tables = getattr(ring, "_tables", None)
        # compile all three now: the compile's transient memory is then freed
        # before the operations start allocating.  Nothing is pruned over Z,
        # so the polynomials are large and each compiles on its first use.
        if not isinstance(ring, IntegerRing):
            for name in ("_sum", "_prod", "_frob"):
                getattr(self, name)

    @functools.cached_property
    def _sum(self):
        return self._universal.compiled("sum", self.ring)

    @functools.cached_property
    def _prod(self):
        return self._universal.compiled("prod", self.ring)

    @functools.cached_property
    def _frob(self):
        return self._universal.compiled("frob", self.ring)

    @functools.cached_property
    def _ghost(self):
        return self._universal.compiled("ghost", self.ring)

    def add(self, u, v):
        return self._sum(u, v)

    def mul(self, u, v):
        return self._prod(u, v)

    def neg(self, u):
        return tuple(map(self._neg, u))

    def frob(self, u):
        return self._frob(u)

    def ghost(self, u):
        """The ghost components w_0..w_{n-1} of u, as payloads."""
        return self._ghost(u)

    def scalar_mul(self, k, u):
        if k < 0:
            return self.scalar_mul(-k, self.neg(u))
        return _double_and_add(k, u, self.add, (self.zero_payload,) * self.n)

    # --- the batch form, over quotient rings -------------------------------
    #
    # A batch holds B payloads of W_n(A) as one numpy array per coordinate:
    # element indices (shape (B,)) at or below the table cap, coefficient
    # rows (shape (B, d); int64, or Python ints for a large modulus) above
    # it.  Zero is index 0 or the zero row, so V and R are shifts of the
    # coordinate tuple on batches too.  The batch functions come from the
    # same entry and compile on first use; to_batch and payload_at convert
    # through from_coefficients and coefficient_rows.

    def _batch_form(self):
        _back_end(self.ring, batch=True)  # raises over Z

    @functools.cached_property
    def _sum_batch(self):
        return self._universal.compiled("sum", self.ring, batch=True)

    @functools.cached_property
    def _prod_batch(self):
        return self._universal.compiled("prod", self.ring, batch=True)

    @functools.cached_property
    def _frob_batch(self):
        return self._universal.compiled("frob", self.ring, batch=True)

    def add_batch(self, u, v):
        return self._sum_batch(u, v)

    def mul_batch(self, u, v):
        return self._prod_batch(u, v)

    def frob_batch(self, u):
        return self._frob_batch(u)

    def scalar_mul_batch(self, k, u):
        """k*u on a batch, for an integer k >= 0, by the additions of
        scalar_mul."""
        if k < 0:
            raise ValueError("batch scalar multiples take k >= 0")
        return _double_and_add(k, u, self.add_batch, tuple(map(np.zeros_like, u)))

    def to_batch(self, payloads):
        """The batch of a nonempty list of payloads (of any one length)."""
        self._batch_form()
        return self.from_coefficients(np.array(payloads, dtype=_coeff_batch_dtype(self.ring)))

    def from_coefficients(self, rows):
        """The batch of the payloads whose coefficients are rows, a (B, n, d)
        array: element indices at or below the table cap (base-m digits,
        most significant first, as the elements enumerate), and above it
        the coefficient rows themselves, as views of rows when its dtype is
        the batch dtype."""
        ring = self.ring
        if self._tables is not None:
            place = ring.m ** np.arange(ring.d - 1, -1, -1, dtype=np.int64)
            # one 2-D product: numpy's int64 matmul on a stack of (n, d)
            # matrices raises the process's peak resident memory
            return tuple((rows.reshape(-1, ring.d) @ place).reshape(rows.shape[:-1]).T)
        self._batch_form()
        return tuple(rows.astype(_coeff_batch_dtype(ring), copy=False).transpose(1, 0, 2))

    def payload_at(self, batch, k):
        """Payload k of a batch, as the tuple of Python tuples a
        WittVector stores."""
        return tuple(tuple(self.coefficient_rows(c[k : k + 1])[0].tolist()) for c in batch)

    def payload_batch(self, positions):
        """The batch of the payloads at the given positions (an int64 array)
        of enumerate_payloads, computed from the positions alone."""
        ring, n = self.ring, self.n
        if self._tables is not None:
            Q = ring.cardinality()
            return tuple(positions // Q ** (n - 1 - i) % Q for i in range(n))
        self._batch_form()
        if ring.m ** (ring.d * n) > 2**63:
            raise ValueError(f"W_{n}({ring.descriptor()}) is too large to index")
        place = ring.m ** np.arange(ring.d * n - 1, -1, -1, dtype=np.int64)
        digits = positions[:, None] // place % ring.m
        return tuple(digits[:, i * ring.d : (i + 1) * ring.d] for i in range(n))

    def coefficient_rows(self, c):
        """The (B, d) coefficient rows of one coordinate c of a batch."""
        if self._tables is not None:
            return _digits(c, self.ring.m, self.ring.d)
        return c

    @staticmethod
    def equal_batch(u, v):
        """The mask of the elements at which two batches agree."""
        mask = True
        for a, b in zip(u, v, strict=True):
            eq = a == b
            mask &= eq if eq.ndim == 1 else eq.all(axis=1)
        return mask

    def wrap(self, u):
        return WittVector._trusted(self.ring, self.p, u)

    def unwrap(self, w):
        return w.data

    def enumerate_payloads(self):
        """All coordinate payloads of W_n(A), lazily, deterministic order.

        Over a quotient ring: one flat product over the d*n coefficients,
        cut into n coordinates.  A product of per-coordinate products would
        build all m**d coordinates before yielding the first payload, which
        callers that read only a prefix of a large W_n(A) cannot afford.
        Z cannot be enumerated and raises ValueError.
        """
        ring, n = self.ring, self.n
        if isinstance(ring, IntegerRing):
            raise ValueError("cannot enumerate Z")
        d = ring.d
        flat = itertools.product(range(ring.m), repeat=d * n)
        if n == 1:
            return zip(flat)
        return map(operator.itemgetter(*[slice(i * d, (i + 1) * d) for i in range(n)]), flat)


def _double_and_add(k, u, add, zero):
    """k*u for an integer k >= 0, by doubling and adding through add.

    The accumulator starts at the lowest set bit of k, so k > 0 costs
    bit_length(k) - 1 doublings and popcount(k) - 1 additions."""
    if not k:
        return zero
    while not k & 1:
        u = add(u, u)
        k >>= 1
    acc = u
    k >>= 1
    while k:
        u = add(u, u)
        if k & 1:
            acc = add(acc, u)
        k >>= 1
    return acc


_raw_cache = {}


def raw_witt_ops(ring, p, n):
    key = (ring, p, n)
    ops = _raw_cache.get(key)
    if ops is None:
        ops = _raw_cache[key] = RawWittOps(ring, p, n)
    return ops


def witt_zero(ring, p, n):
    return WittVector._trusted(ring, p, (ring.zero().data,) * n)


def witt_one(ring, p, n):
    return teichmuller(ring.one(), p, n)


def witt_int(c, ring, p, n):
    """The image of the integer c in W_n(A)."""
    return witt_scalar_mul(c, witt_one(ring, p, n))


def teichmuller(a, p, n):
    """[a] = (a, 0, ..., 0), the multiplicative section."""
    ring = a.ring
    return WittVector._trusted(ring, p, (a.data,) + (ring.zero().data,) * (n - 1))


def witt_add(u, v):
    u._check(v)
    raw = raw_witt_ops(u.ring, u.p, u.length)
    return WittVector._trusted(u.ring, u.p, raw.add(u.data, v.data))


def witt_mul(u, v):
    u._check(v)
    raw = raw_witt_ops(u.ring, u.p, u.length)
    return WittVector._trusted(u.ring, u.p, raw.mul(u.data, v.data))


def witt_neg(u):
    # p odd: ghost components are odd functions, so negation is coordinatewise
    return WittVector._trusted(u.ring, u.p, tuple(map(u.ring._neg, u.data)))


def witt_scalar_mul(k, u):
    """k*u for an integer k."""
    raw = raw_witt_ops(u.ring, u.p, u.length)
    return WittVector._trusted(u.ring, u.p, raw.scalar_mul(k, u.data))


def verschiebung(u):
    """V: W_n -> W_{n+1}, (a_0..a_{n-1}) -> (0, a_0..a_{n-1})."""
    return WittVector._trusted(u.ring, u.p, (u.ring.zero().data,) + u.data)


def verschiebung_batch(w):
    """V on a batch: zero (index 0, or the zero row) shifted in front."""
    return (np.zeros_like(w[0]),) + tuple(w)


def restriction(u):
    """R: W_n -> W_{n-1}, drop the last coordinate."""
    if u.length < 2:
        raise ValueError("length underflow: R needs n >= 2")
    return WittVector._trusted(u.ring, u.p, u.data[:-1])


def frobenius(u):
    """F: W_n -> W_{n-1}, the unique natural ring map with ghost shift."""
    if u.length < 2:
        raise ValueError("length underflow: F needs n >= 2")
    raw = raw_witt_ops(u.ring, u.p, u.length)
    return WittVector._trusted(u.ring, u.p, raw.frob(u.data))


def frobenius_power(u, k):
    for _ in range(k):
        u = frobenius(u)
    return u


def ghost(u):
    """Ghost components (w_0, ..., w_{n-1}) as ring elements, from the
    compiled ghost block of W_n."""
    ring = u.ring
    return tuple(RingElement(ring, w) for w in raw_witt_ops(ring, u.p, u.length).ghost(u.data))


def witt_is_unit(u):
    """(True, inverse) iff the first coordinate is a unit in A."""
    inv = witt_divide_exact(witt_one(u.ring, u.p, u.length), u)
    return (False, None) if inv is None else (True, inv)


# the most annihilator-coset witnesses witt_divide_exact tries per coordinate
_MAX_WITNESSES = 256


def witt_divide_exact(x, u):
    """Some q with u*q = x in W_n(A), or None.

    First-coordinate peeling.  For a unit first coordinate u_0 the
    coordinate-level witness is x_0 * u_0^-1, and u is a unit of W_n(A), so
    q is exact: it is the quotient.  Otherwise, when a coordinate-level
    witness does not extend, other witnesses in the same annihilator coset
    are tried, up to _MAX_WITNESSES of them.  Witnesses beyond the cap are not
    searched, so None means "no witness found", not a proof of
    indivisibility, unless n = 1 or u_0 is a unit.
    """
    ring, p, n = x.ring, x.p, x.length
    ok, u0_inv = ring.is_unit(u.coords[0])
    q0 = x.coords[0] * u0_inv if ok else ring.divide_exact(x.coords[0], u.coords[0])
    if q0 is None:
        return None
    if n == 1:
        return teichmuller(q0, p, 1)
    candidates = [q0]
    # a unit's annihilator is {0}
    ann = None if ok else ring.annihilator(u.coords[0], cap=_MAX_WITNESSES)
    if ann:
        candidates = [q0 + delta for delta in ann]
    for cand in candidates:
        t = teichmuller(cand, p, n)
        rem = witt_add(x, witt_neg(witt_mul(u, t)))
        if rem.data[0] != ring.zero().data:
            continue
        sub = witt_divide_exact(WittVector._trusted(ring, p, rem.data[1:]), frobenius(u))
        if sub is not None:
            q = witt_add(t, verschiebung(sub))
            if witt_mul(u, q) == x:
                return q
    return None


def teichmuller_divide(x, a, n_max):
    """Minimal N <= n_max and q with [a]*q = p^N * x, or None.

    Uses [a]*(q_0,...,q_{n-1}) = (a q_0, a^p q_1, ..., a^(p^(n-1)) q_{n-1}),
    so each coordinate is an exact division in A.
    """
    ring, p, n = x.ring, x.p, x.length
    for bigN in range(n_max + 1):
        target = witt_scalar_mul(p**bigN, x)
        coords = []
        for i in range(n):
            c = ring.divide_exact(target.coords[i], a ** (p**i))
            if c is None:
                break
            coords.append(c)
        if len(coords) == n:
            q = WittVector(ring, p, coords)
            assert witt_mul(teichmuller(a, p, n), q) == target
            return bigN, q
    return None


def z_element(ring, n):
    """z_n = 1 + [zeta_{p^n}] + ... + [zeta_{p^n}^(p-1)] in W_n(A)."""
    if ring.kind != "CyclotomicTruncation":
        raise ValueError("z_n needs a cyclotomic truncation")
    if n > ring.N:
        raise ValueError(f"depth shortfall: z_{n} needs N >= {n}, have N = {ring.N}")
    p = ring.p
    zeta = ring.zeta(n)
    acc = witt_zero(ring, p, n)
    for i in range(p):
        acc = witt_add(acc, teichmuller(zeta**i, p, n))
    return acc


# --- serialization -----------------------------------------------------------


def serialize_witt(u):
    parts = "; ".join(u.ring.format_element(c) for c in u.coords)
    return f"W[p={u.p},n={u.length}; {parts}]"


def random_witt(ring, p, n, rng):
    return WittVector._trusted(ring, p, tuple(random_payload(ring, rng) for _ in range(n)))
