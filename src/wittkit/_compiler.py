"""The one compiler of the Witt operations: _compile_polys turns a program
of polynomial blocks (witt._witt_program) into one Python function that
computes every output at once, and an expression back end renders its
arithmetic.  _back_end picks the back end from the ring, per element or on
a batch: plain ints over Z (_IntExprs); element indices through the lookup
tables of a ring with at most rings.TABLE_CAP elements (_TableExprs, and
_TableBatchExprs on numpy index arrays); the coefficient kernel above the
cap (_KernelExprs, and _KernelBatchExprs on (B, d) coefficient arrays,
multiplied by _batch_mulmod).  witt.WittUniversalTable.compiled is the one
entry.
"""

import collections
import functools
import re

import numpy as np

from . import _kernel
from .rings import IntegerRing


# a constant of _compile_polys: a payload of the ring, folded at compile time
_Const = collections.namedtuple("_Const", "payload")


def _is_constant(atom):
    """Whether an atom of _compile_polys is a constant: 1 (None) or a _Const."""
    return atom is None or isinstance(atom, _Const)


def _compile_polys(program, operands, n, exprs, fixed=None):
    """Compile a program of polynomial blocks on operands payloads of
    length n to one function f(payload, ...) -> payload.

    A program is (steps, outs).  Values 0..operands*n-1 are the payloads'
    coordinates; each step (polys, args) evaluates every polynomial of polys
    on the values args, polynomial variable j reading value args[j], and
    appends the results as new values; outs are the values returned.  A
    Frobenius and the ghost map are one block on all the coordinates; a sum
    and a product are the programs of _witt_program.

    Monomials are pruned modulo exprs.m (None prunes nothing).  Each value
    is held as a linear combination {atom: c} of named atoms (coordinates,
    products, reduced values; None is the constant 1), so linear steps fuse
    into one combination; a value is reduced to a name (exprs.reduce) only
    where a power or a product reads it, and each output is one combination
    (exprs.combine), or an input coordinate as the function got it when it
    is exactly that coordinate: no conversion in and out, and no load of it
    when nothing else reads it.  Powers, partial products, scaled terms and
    reduced values are named temporaries, computed once and reused by every
    block.
    A power comes from exprs.pow_expr; when that gives none, a block forms
    each value's powers in ascending order, a new one the largest taken so
    far times the rest by memoised square-and-multiply (as _psubst does).
    A back end of characteristic p (exprs.char, else None) takes v^(p*k)
    as the Frobenius exprs.frob of v^k instead, a ring map there, when v^k
    is taken or no lower power is.  The expression back end (_TableExprs, _KernelExprs
    or _IntExprs, or the batch forms _TableBatchExprs and _KernelBatchExprs)
    renders products, powers, the terms c*atom and the combinations, and
    names them through temp() where they are worth sharing.  Back ends with
    inline_once set then get every temporary read only once substituted
    into its reader.

    fixed, a dict {input value: payload}, makes those coordinates
    constants (_Const atoms), and the function takes each operand without
    them, an operand fixed whole not at all.  Products and powers of
    constants are folded through the ring arithmetic of exprs.ring, a
    product of a constant and a value is exprs.product_const, and the
    constants of a combination are summed into one, rendered by
    exprs.constant.
    """
    steps, outs = program
    fixed = fixed or {}
    m = exprs.m
    ns = dict(exprs.namespace)
    body = []
    memo = {}
    taken = collections.defaultdict(list)  # value name -> exponents of its powers so far
    nin = operands * n
    inputs = {exprs.var(vi): f"a{vi}" for vi in range(nin)}  # atom -> argument
    values = []  # the linear combinations of values nin, nin + 1, ...

    def temp(key, expr):
        name = memo.get(key)
        if name is None:
            name = memo[key] = f"t{len(body)}"
            body.append(f"    {name} = {expr}")
        return name

    def fold(comb):
        """The payload of a combination of constants."""
        ring = exprs.ring
        one, acc = ring.one().data, ring.zero().data
        for atom, c in comb.items():
            acc = ring._add(acc, ring._scale(one if atom is None else atom.payload, c))
        return acc

    def mul(a, b):
        if isinstance(b, _Const):
            a, b = b, a
        if not isinstance(a, _Const):
            return exprs.product(a, b, temp)
        ring = exprs.ring
        if isinstance(b, _Const):
            return _Const(ring._mul(a.payload, b.payload))
        if a.payload == ring.zero().data:
            return a
        if a.payload == ring.one().data:
            return b
        return exprs.product_const(a.payload, b, temp, ns)

    def power(v, e, chain=True):
        if e == 1:
            return v
        if isinstance(v, _Const):
            return _Const(exprs.ring._pow(v.payload, e))
        key = ("pow", v, e)
        name = memo.get(key)
        if name is None:
            expr = exprs.pow_expr(v, e, ns)
            if expr is not None:
                return temp(key, expr)
            p = exprs.char
            below = max((d for d in taken[v] if d < e), default=0) if chain else 0
            if p and e % p == 0 and (e == p or e // p in taken[v] or not below):
                name = temp(key, exprs.frob(power(v, e // p)))  # v^(p*k) = F(v^k)
            elif below:
                name = mul(memo["pow", v, below], power(v, e - below, chain=False))
            elif e & 1:
                name = mul(power(v, e - 1, chain=False), v)
            else:
                half = power(v, e // 2, chain=False)
                name = mul(half, half)
            memo[key] = name
            taken[v].append(e)
        return name

    def combination(vi):
        if vi < nin:
            if vi in fixed:
                return {_Const(fixed[vi]): 1}
            return {exprs.var(vi): 1}
        return values[vi - nin]

    def fold_constants(comb):
        """comb with its constants summed into one _Const, or none if they
        sum to zero."""
        if not any(isinstance(atom, _Const) for atom in comb):
            return comb
        k = fold({atom: c for atom, c in comb.items() if _is_constant(atom)})
        comb = {atom: c for atom, c in comb.items() if not _is_constant(atom)}
        if k != exprs.ring.zero().data:
            comb[_Const(k)] = 1
        return comb

    def terms(comb):
        out = []
        for atom, c in fold_constants(comb).items():
            if isinstance(atom, _Const):
                atom = exprs.constant(atom.payload, ns)
            out.append(exprs.term(c, atom, temp, ns))
        return out

    def reads_zero(mono, args):
        """Whether the monomial reads a value that is the constant zero."""
        if not fixed:
            return False
        zero = exprs.ring.zero().data
        for j, e in enumerate(mono):
            if e:
                comb = combination(args[j])
                if all(map(_is_constant, comb)) and fold(comb) == zero:
                    return True
        return False

    def named(vi):
        comb = combination(vi)
        if fixed and all(map(_is_constant, comb)):
            return _Const(fold(comb))
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
        # block's linear steps read them reduced too, and form their powers
        # in ascending order
        exponents = collections.defaultdict(set)
        for poly in polys:
            for mono, c in poly.items():
                if sum(mono) > 1 and (m is None or c % m) and not reads_zero(mono, args):
                    for j, e in enumerate(mono):
                        if e:
                            exponents[j].add(e)
        for j in sorted(exponents):
            v = named(args[j])
            for e in sorted(exponents[j]):
                power(v, e)
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
                if reads_zero(mono, args):
                    continue
                val = None  # None: the constant 1
                for j, e in enumerate(mono):
                    if e:
                        f = power(named(args[j]), e)
                        val = f if val is None else mul(val, f)
                accumulate(comb, val, c)
            values.append(comb)

    def output(vi):
        comb = fold_constants(combination(vi))
        atom = next(iter(comb), None)
        if comb == {atom: 1} and atom in inputs:
            return inputs[atom]
        return exprs.combine(terms(comb), temp)

    outs = [output(vi) for vi in outs]
    if exprs.inline_once:
        body, outs = _inline_single_uses(body, outs)
    unpack = {}  # operand -> the names of its coordinates that are not fixed
    for vi in range(nin):
        if vi not in fixed:
            unpack.setdefault(f"u{vi // n}", []).append(f"a{vi}, ")
    head = [f"def _f({', '.join(unpack)}):"]
    head += [f"    ({''.join(names)}) = {arg}" for arg, names in unpack.items()]
    read = set(_NAME.findall("\n".join(body + outs)))  # the names the code reads
    head += [line for vi in range(nin) if exprs.var(vi) in read and (line := exprs.load(vi))]
    tail = f"    return ({''.join(f'{out}, ' for out in outs)})"
    src = "\n".join(head + body + [tail]) + "\n"
    exec(src, ns)  # noqa: S102 - generated from table data only
    fn = ns["_f"]
    fn.__source__ = src
    return fn


# the names _compile_polys gives its temporaries
_TEMP = re.compile(r"\bt\d+\b")
# any name in generated code
_NAME = re.compile(r"\b\w+\b")

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

    def __init__(self, ring):
        self.ring = ring
        self.tables = tables = ring._tables
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

    def product_const(self, k, b, temp, ns):
        i = self.tables.index[k]  # one gather through the row of k
        ns[f"_R{i}"] = self._table(self.tables.mul_row(i))
        return temp(("row", i, b), f"_R{i}[{b}]")

    def constant(self, k, ns):
        return str(self.tables.index[k])

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

    def __init__(self, ring):
        self.tables = tables = ring._tables
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
    ring = IntegerRing()
    inline_once = True  # plain calls and operators: inlining is sound
    char = None  # Z has no Frobenius ring map

    def var(self, i):
        return f"a{i}"

    def load(self, i):
        return None  # payload entries are used as they are

    def product(self, a, b, temp):
        return temp(("mul", a, b), f"{a} * {b}")

    def product_const(self, k, b, temp, ns):
        return self.product(self.constant(k, ns), b, temp)

    def constant(self, k, ns):
        return str(k) if k >= 0 else f"({k})"

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
        self.ring = ring
        self.m = ring.m
        self.char = ring._ctx.char
        self._constants = {}
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

    def constant(self, k, ns):
        name = self._constants.setdefault(k, f"_K{len(self._constants)}")
        ns[name] = k
        return name

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
        # with coefficient -1), every Teichmuller scaling a_0^(p^i) b_i, and
        # every output of the ghost and twist blocks (x_0^(p^k) in w_k, the
        # powers x_i^(p^(k-i) - 1) of F^k d), so terms is never empty and
        # never all constants
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
        return ring._tables, functools.partial(_TableBatchExprs if batch else _TableExprs, ring)
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
    q = ctx.q

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
