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
a view built on demand.  RawWittOps runs each of sum, product and Frobenius
as one function that computes every coordinate at once.  One compiler
(_compile_polys) builds them from programs of polynomial blocks, and one
builder (_witt_program) writes the programs.  The Frobenius is one block.
The sum is a carry program, a + b = [a_0 + b_0] + V((eta'(a_0, b_0) + a') +
b'): a block of the carries eta, as polynomials in a_0 + b_0 and a_0 b_0,
and two shorter sums.  The product is a program over the sum,
a b = [a_0 b_0] + V(([a_0] b)' + a' F(b)): Teichmuller scalings, a
Frobenius block, and a shorter product and sum.  The compiler shares every
power and partial product between the coordinates and blocks, and an
expression back end renders the arithmetic.  verify_ghost_symbolic checks
the ghost identities on these same programs, evaluated on polynomials:
nothing builds the sum or product expanded in 2n variables.
WittUniversalTable.compiled is the one entry, and the ring picks the back
end (_back_end).  For rings with lookup tables (rings.SmallRingTables, at
most rings.TABLE_CAP elements) it works over element indices,
converting coordinate tuples only on entry and exit; above the cap it calls
the coefficient kernel (``_kernel``: packed big-int products, and in
characteristic p each p-th power as a coefficient map) and forms each
coordinate as one linear combination reduced mod m; over Z it evaluates the
unpruned polynomials on the coordinates' Python ints.  Quotient rings also
have a batch form of sum, product and Frobenius, from two more back ends of
the same compiler: the table source on numpy arrays of element indices, and
batched convolutions on (B, d) arrays of coefficients above the cap.  The
tilt's Witt arithmetic runs these same operations on the payloads of its
lifts, one lift level at a time.
"""

import collections
import functools
import itertools
import math
import operator
import re

import numpy as np

from . import _kernel
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

    def compiled(self, which, ring, batch=False):
        """All coordinates of sum/prod/frob in one function on raw payloads
        of W_n(ring), or with batch on batches of them, through the back end
        that _back_end picks for ring.  Cached by what that back end reads,
        so the rings of one table shape share their functions."""
        source, make_exprs = _back_end(ring, batch)
        key = (which, source, batch)
        fn = self._compiled.get(key)
        if fn is None:
            operands = 1 if which == "frob" else 2
            fn = _compile_polys(self._program(which), operands, self.n, make_exprs())
            self._compiled[key] = fn
        return fn

    def _program(self, which):
        """The program of _compile_polys for sum, prod or frob."""
        return _witt_program(which, self.p, self.n, self.eta_sym_polys, self.frob_polys)


def _witt_program(which, p, n, eta_sym_polys, frob_polys):
    """The Witt sum, product or Frobenius of length n as a program of
    _compile_polys on the coordinates a_0..a_{n-1}, b_0..b_{n-1} (values
    0..2n-1; the Frobenius reads a only).

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
    with monomials cut to k variables: F_i reads only x_0..x_{i+1}.
    """
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


def _compile_polys(program, operands, n, exprs):
    """Compile a program of polynomial blocks on operands payloads of
    length n to one function f(payload, ...) -> payload.

    A program is (steps, outs).  Values 0..operands*n-1 are the payloads'
    coordinates; each step (polys, args) evaluates every polynomial of polys
    on the values args, polynomial variable j reading value args[j], and
    appends the results as new values; outs are the values returned.  A
    Frobenius is one block on all the coordinates; a sum and a product are
    the programs of _witt_program.

    Monomials are pruned modulo exprs.m (None prunes nothing).  Each value
    is held as a linear combination {atom: c} of named atoms (coordinates,
    products, reduced values; None is the constant 1), so linear steps fuse
    into one combination; a value is reduced to a name (exprs.reduce) only
    where a power or a product reads it, and each output is one combination
    (exprs.combine).  Powers, partial products, scaled terms and reduced
    values are named temporaries, computed once and reused by every block;
    powers come from exprs.pow_expr or, when it gives none, from memoised
    square-and-multiply, except that a back end of characteristic p
    (exprs.char, else None) takes v^(p*k) as the Frobenius exprs.frob of
    v^k, which is a ring map there.  The expression back end (_TableExprs,
    _KernelExprs or _IntExprs, or the batch forms _TableBatchExprs and
    _KernelBatchExprs) renders products, powers, the terms c*atom and the
    combinations, and names them through temp() where they are worth
    sharing.  Back ends with
    inline_once set then get every temporary read only once substituted
    into its reader.
    """
    steps, outs = program
    m = exprs.m
    ns = dict(exprs.namespace)
    body = []
    used = set()
    memo = {}
    nin = operands * n
    values = []  # the linear combinations of values nin, nin + 1, ...

    def temp(key, expr):
        name = memo.get(key)
        if name is None:
            name = memo[key] = f"t{len(body)}"
            body.append(f"    {name} = {expr}")
        return name

    def mul(a, b):
        return exprs.product(a, b, temp)

    def power(v, e):
        if e == 1:
            return v
        key = ("pow", v, e)
        name = memo.get(key)
        if name is None:
            expr = exprs.pow_expr(v, e, ns)
            if expr is not None:
                return temp(key, expr)
            if exprs.char and e % exprs.char == 0:  # v^(p*k) = F(v^k)
                return temp(key, exprs.frob(power(v, e // exprs.char)))
            half = power(v, e // 2)
            name = mul(half, half)
            if e & 1:
                name = mul(name, v)
            memo[key] = name
        return name

    def combination(vi):
        if vi < nin:
            used.add(vi)
            return {exprs.var(vi): 1}
        return values[vi - nin]

    def terms(comb):
        return [exprs.term(c, atom, temp, ns) for atom, c in comb.items()]

    def named(vi):
        comb = combination(vi)
        if len(comb) == 1:
            ((atom, c),) = comb.items()
            if c == 1 and atom is not None:
                return atom
        expr = exprs.reduce(terms(comb), temp)
        name = expr if expr.isidentifier() else temp(("reduce", vi), expr)
        values[vi - nin] = {name: 1}  # later steps read the reduced value
        return name

    def accumulate(comb, atom, c):
        c += comb.get(atom, 0)
        if m is not None:
            c %= m
        if c:
            comb[atom] = c
        else:
            comb.pop(atom, None)

    for polys, args in steps:
        # reduce the values that powers and products read first, so that the
        # block's linear steps read them reduced too
        nonlinear = set()
        for poly in polys:
            for mono, c in poly.items():
                if sum(mono) > 1 and (m is None or c % m):
                    nonlinear.update(j for j, e in enumerate(mono) if e)
        for j in sorted(nonlinear):
            named(args[j])
        for poly in polys:
            comb = {}
            for mono in sorted(poly):
                c = poly[mono] if m is None else poly[mono] % m
                if c == 0:
                    continue
                if sum(mono) == 1:  # c times one value: a linear step
                    for atom, k in combination(args[mono.index(1)]).items():
                        accumulate(comb, atom, c * k)
                    continue
                val = None  # None: the constant 1
                for j, e in enumerate(mono):
                    if e:
                        f = power(named(args[j]), e)
                        val = f if val is None else mul(val, f)
                accumulate(comb, val, c)
            values.append(comb)
    outs = [exprs.combine(terms(combination(vi)), temp) for vi in outs]
    if exprs.inline_once:
        body, outs = _inline_single_uses(body, outs)
    args = [f"u{k}" for k in range(operands)]
    head = [f"def _f({', '.join(args)}):"]
    for k, arg in enumerate(args):
        head.append(f"    ({''.join(f'a{k * n + i}, ' for i in range(n))}) = {arg}")
    head += [line for line in map(exprs.load, sorted(used)) if line]
    tail = f"    return ({''.join(f'{out}, ' for out in outs)})"
    src = "\n".join(head + body + [tail]) + "\n"
    exec(src, ns)  # noqa: S102 - generated from table data only
    fn = ns["_f"]
    fn.__source__ = src
    return fn


# the names _compile_polys gives its temporaries
_TEMP = re.compile(r"\bt\d+\b")

# the most substitutions _inline_single_uses nests into one expression: each
# adds a level or two of calls or operators, and CPython's compiler recurses
# once per level, so a few thousand exhaust it
_MAX_INLINE_DEPTH = 32


def _inline_single_uses(body, outs):
    """(body, outs) with every temporary that is read once substituted into
    the expression that reads it, unless that would nest more than
    _MAX_INLINE_DEPTH substitutions: such a temporary keeps its name.

    Only sound for side-effect-free expressions that evaluate each operand
    once.  A function with a thousand single-use temporaries compiles into
    several MB that the allocator then keeps; nested calls compile smaller
    and run no slower.
    """
    uses = collections.Counter(_TEMP.findall("\n".join(body + outs)))
    inlined = {}  # name -> (expression, substitutions nested in it)

    def substitute(text):
        depth = 0

        def expand(mt):
            nonlocal depth
            got = inlined.get(mt.group())
            if got is None:
                return mt.group()
            depth = max(depth, got[1])
            return got[0]

        return _TEMP.sub(expand, text), depth + 1

    kept = []
    for line in body:
        name, expr = line.strip().split(" = ", 1)
        expr, depth = substitute(expr)
        if uses[name] == 2 and depth <= _MAX_INLINE_DEPTH:  # its definition and one read
            inlined[name] = expr, depth
        else:
            kept.append(f"    {name} = {expr}")
    return kept, [substitute(out)[0] for out in outs]


def _signed_groups(terms, m):
    """Terms (c, name) grouped by coefficient, each c the residue of least
    absolute value mod m (m None: c as given), in first-seen order."""
    groups = {}
    for c, name in terms:
        if m is not None and c > m - c:
            c -= m
        groups.setdefault(c, []).append(name)
    return groups


def _linear_expr(groups):
    """Source of sum_c c * (sum of names) for groups {c: [names]}."""
    signed = []  # (sign, source of |c| * (sum of names))
    for c, names in groups.items():
        inner = " + ".join(names)
        if c != 1 and len(names) > 1:
            inner = f"({inner})"
        signed.append(("-" if c < 0 else "+", inner if abs(c) == 1 else f"{abs(c)}*{inner}"))
    expr = " ".join(f"{sign} {term}" for sign, term in signed)
    return expr[2:] if expr.startswith("+ ") else expr


class _TableExprs:
    """Back end over element indices of a SmallRingTables ring: coordinates
    convert to indices on entry and back on exit, and every product, sum,
    power and scalar multiple in between is a table lookup."""

    inline_once = False  # mul_expr reads its operands twice and uses walrus names
    char = None  # powers are table lookups

    def __init__(self, tables):
        self.tables = tables
        self.m = tables.m
        self.namespace = dict(tables.namespace, _E=tables.elems, _I=tables.index)

    def _table(self, table):
        return table

    def var(self, i):
        return f"v{i}"

    def load(self, i):
        return f"    v{i} = _I[a{i}]"

    def product(self, a, b, temp):
        return temp(("mul", a, b), self.tables.mul_expr(a, b))

    def pow_expr(self, v, e, ns):
        ns[f"_P{e}"] = self._table(self.tables.pow_table(e))
        return f"_P{e}[{v}]"

    def term(self, c, val, temp, ns):
        if val is None:
            return str(c * self.tables.one)  # the constant c*1
        if c != 1:
            ns[f"_S{c}"] = self._table(self.tables.scale_table(c))
            val = temp(("scale", val, c), f"_S{c}[{val}]")
        return val

    def reduce(self, terms, temp):
        return self._sum(terms, temp)

    def combine(self, terms, temp):
        return f"_E[{self._sum(terms, temp)}]"

    def _sum(self, terms, temp):
        acc = terms[0] if terms else "0"
        for t in terms[1:]:
            acc = temp(("add", acc, t), self.tables.add_expr(acc, t))
        return acc


class _TableBatchExprs(_TableExprs):
    """The table back end on a batch: every coordinate is a numpy array of
    element indices, in and out, and the same source gathers through int64
    copies of the tables."""

    def __init__(self, tables):
        self.tables = tables
        self.m = tables.m
        self.namespace = {name: tables.int64(t) for name, t in tables.namespace.items()}

    def _table(self, table):
        return self.tables.int64(table)

    def load(self, i):
        return f"    v{i} = a{i}"

    def combine(self, terms, temp):
        return self._sum(terms, temp)


class _IntExprs:
    """Back end over Python ints (W_n(Z)): exact, nothing pruned, and each
    coordinate one integer linear combination of its terms."""

    m = None
    namespace = {}
    inline_once = True  # plain calls and operators: inlining is sound
    char = None  # Z has no Frobenius ring map

    def var(self, i):
        return f"a{i}"

    def load(self, i):
        return None  # payload entries are used as they are

    def product(self, a, b, temp):
        return temp(("mul", a, b), f"{a} * {b}")

    def pow_expr(self, v, e, ns):
        return f"{v} ** {e}"

    def term(self, c, val, temp, ns):
        return c, val

    def combine(self, terms, temp):
        if not terms:
            return "0"
        return f"({_linear_expr(_signed_groups(((c, v or '1') for c, v in terms), None))})"

    def reduce(self, terms, temp):
        return self.combine(terms, temp)  # every value is canonical


class _KernelExprs(_IntExprs):
    """Back end over coefficient tuples of a quotient ring above the table
    cap: products call the kernel's poly_mulmod, powers are built from
    products and, in characteristic p, from the kernel's poly_frobmod, and
    each coordinate is one linear combination of its terms, reduced slot by
    slot mod m."""

    def __init__(self, ring):
        self.m = ring.m
        self.char = ring._ctx.char
        # the module, not its function: the call resolves when it runs, so
        # a wrapper installed after compiling still sees it
        self.namespace = {
            "_kernel": _kernel,
            "_ctx": ring._ctx,
            "_zero": ring.zero().data,
            "_one": ring.one().data,
        }

    def product(self, a, b, temp):
        return temp(("mul", a, b), f"_kernel.poly_mulmod({a}, {b}, _ctx)")

    def frob(self, v):
        return f"_kernel.poly_frobmod({v}, _ctx)"

    def pow_expr(self, v, e, ns):
        return None

    def combine(self, terms, temp):
        if not terms:
            return "_zero"
        if len(terms) == 1 and terms[0][0] == 1 and terms[0][1] is not None:
            return terms[0][1]  # a product or an input, already canonical
        names = [v or "_one" for _, v in terms]
        zs = [f"z{k}" for k in range(len(names))]
        groups = _signed_groups(zip((c for c, _ in terms), zs), self.m)
        expr = f"({_linear_expr(groups)}) % {self.m}"
        return f"tuple([{expr} for {', '.join(zs)}, in zip({', '.join(names)})])"


class _KernelBatchExprs(_IntExprs):
    """The kernel back end on a batch: every coordinate is a (B, d) array of
    coefficient rows, of int64 or Python ints (_coeff_batch_dtype).  A
    product is a batched convolution reduced through the ring's reduction
    rows (_batch_mulmod), a Frobenius in characteristic p the coefficient
    map of _batch_frobmod, and each coordinate one linear combination of its
    terms, reduced mod m."""

    def __init__(self, ring):
        self.m = ring.m
        self.char = ring._ctx.char
        self.namespace = {
            "_mul": _batch_mulmod(ring),
            "_one": np.array(ring.one().data, dtype=_coeff_batch_dtype(ring)),
        }
        if self.char:
            self.namespace["_frob"] = _batch_frobmod(ring)

    def product(self, a, b, temp):
        return temp(("mul", a, b), f"_mul({a}, {b})")

    def frob(self, v):
        return f"_frob({v})"

    def pow_expr(self, v, e, ns):
        return None

    def combine(self, terms, temp):
        # every coordinate of a Witt sum, product or Frobenius keeps a
        # monomial in the variables (x_i + y_i, x_i y_0^(p^i), x_i^p mod p),
        # and so does every carry that a block reads (eta_k has x^(p^k - 1) y
        # with coefficient -1) and every Teichmuller scaling a_0^(p^i) b_i,
        # so terms is never empty and never all constants
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]  # a product or an input, already reduced
        groups = _signed_groups(((c, v or "_one") for c, v in terms), self.m)
        return f"({_linear_expr(groups)}) % {self.m}"


def _back_end(ring, batch):
    """The back end of _compile_polys for W_n(ring), per element or on a
    batch, as (what it reads, a function that builds it): the ints over Z,
    which have no batch form; the ring's SmallRingTables when it has them;
    else the ring's coefficient kernel."""
    if isinstance(ring, IntegerRing):
        if batch:
            raise TypeError(f"W_n({ring.descriptor()}) has no batch form")
        return ring, _IntExprs
    if ring._tables is not None:
        return ring._tables, functools.partial(
            _TableBatchExprs if batch else _TableExprs, ring._tables
        )
    return ring, functools.partial(_KernelBatchExprs if batch else _KernelExprs, ring)


def _coeff_batch_dtype(ring):
    """The dtype of a batch of coefficient rows of a quotient ring: int64
    when no sum inside a batched product can reach 2**63 (they stay below
    (2d-1) * d * (m-1)^3), else Python ints."""
    d, m = ring.d, ring.m
    return np.int64 if (2 * d - 1) * d * (m - 1) ** 3 < 2**63 else object


def _batch_mulmod(ring):
    """The product of (B, d) coefficient arrays in a quotient ring: the
    convolution of each pair of rows, one shifted multiple of the second
    factor per column of the first, then its top d-1 slots folded in
    through the reduction rows (x^(d+j) reduced) by one matrix product, and
    mod m.  Numpy's integer loops run it: a float64 product would call
    BLAS, and numpy's sliding windows would leave a little memory behind
    on every call, both costing more resident memory than the arrays."""
    d, m = ring.d, ring.m
    dtype = _coeff_batch_dtype(ring)
    red = np.array(ring._red_rows, dtype=dtype).reshape(d - 1, d)

    def mul(a, b):
        conv = np.zeros((len(a), 2 * d - 1), dtype=dtype)
        for i in range(d):
            conv[:, i : i + d] += a[:, i, None] * b
        out = conv[:, :d] + conv[:, d:] @ red
        out %= m
        return out

    return mul


def _batch_frobmod(ring):
    """a^p of (B, d) coefficient arrays in a quotient ring of characteristic
    p (ring._ctx.char), as _kernel.poly_frobmod computes it: for charp a
    column scatter, coefficient i to column i*p; for cyc the sum of the p-1
    blocks of q columns, the first (d-1)//p+1 sums less the others tiled
    p-1 times, scattered to the columns p*r."""
    ctx = ring._ctx
    p, d = ctx.char, ctx.d
    low = (d - 1) // p + 1  # the columns i*p below d
    q = None if ctx.blocks is None else d // (p - 1)

    def frob(a):
        out = np.zeros_like(a)
        if q is None:
            out[:, ::p] = a[:, :low]
            return out
        sums = a.reshape(len(a), p - 1, q).sum(axis=1)
        vals = sums[:, :low]
        if low < q:
            vals = vals - np.tile(sums[:, low:], p - 1)
        out[:, ::p] = vals % p
        return out

    return frob


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
    p, n).  Sum, product and Frobenius are each one compiled function that
    computes every coordinate at once, from the one entry
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

    def add(self, u, v):
        return self._sum(u, v)

    def mul(self, u, v):
        return self._prod(u, v)

    def neg(self, u):
        return tuple(map(self._neg, u))

    def frob(self, u):
        return self._frob(u)

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


def ghost_terms(ring, p, k):
    """The number of leading terms of w_k = sum_{i<=k} p^i u_i^(p^(k-i)) that
    can be nonzero over ring: over a quotient ring with coefficient modulus m
    the term i vanishes from the first i with m | p^i on, as the compiled
    polynomials drop it; over Z all k + 1 terms count."""
    m = getattr(ring, "m", None)  # None over Z
    if m is not None:
        for i in range(k + 1):
            if p**i % m == 0:
                return i
    return k + 1


def ghost_component(ring, p, u, k, powers=None):
    """The payload of the ghost component w_k(u) = sum_{i<=k} p^i u_i^(p^(k-i))
    of a payload u over ring; coordinates past the end of u count as zero.

    F shifts the ghost components, so w_k(u) is also coordinate 0 of F^k(u).
    powers, if given, holds u_i^(p^(k-i)) for each coordinate i <= k of u,
    for a caller that has computed them already.  Every coordinate of u
    counts, so callers pass u[:ghost_terms(ring, p, k)] and no power of a
    vanishing term is taken; a map counts those terms once, not per element.
    """
    acc = None
    for i, c in enumerate(u[: k + 1]):
        x = ring._pow(c, p ** (k - i)) if powers is None else powers[i]
        acc = x if acc is None else ring._add(acc, ring._scale(x, p**i))
    return acc


def ghost(u):
    """Ghost components (w_0, ..., w_{n-1}) as ring elements."""
    ring, p = u.ring, u.p
    # a term that vanishes in w_{n-1} vanishes in every w_k
    data = u.data[: ghost_terms(ring, p, u.length - 1)]
    out, powers = [], []
    for k in range(u.length):
        # u_i^(p^(k-i)) is the p-th power of u_i^(p^(k-1-i))
        powers = [ring._pow(x, p) for x in powers]
        powers += data[k : k + 1]
        out.append(RingElement(ring, ghost_component(ring, p, data, k, powers)))
    return tuple(out)


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
