"""Truncated p-typical Witt vectors over any RingHandle.

The ring structure is computed through universal integer polynomials (sum,
product, Frobenius), built once per (p, n) by ghost recursion with exact
division by p.  Integrality of those divisions is a theorem; a failed division
means the builder is broken and raises WittTableError immediately.

Universal polynomials are sparse dicts {exponent tuple: int coefficient}.
Evaluation happens through Python functions compiled from the dicts; for
truncations with p^M = 0 the compiled form drops monomials whose coefficient
vanishes mod p^M (sound in the target ring, and the bulk of the speedup for
exhaustive checks).  RawWittOps, which the wrapped operations go through on
quotient rings and on Z, compiles one of three forms: for rings with lookup
tables (rings.SmallRingTables, at most rings.TABLE_CAP elements) one
function per operation over element indices, converting coordinate tuples
only on entry and exit; above the cap one function per coordinate calling
the coefficient kernel (packed big-int products); over Z the unpruned
polynomials evaluated on the coordinates' Python ints, wrapping only the
results.  An interpreted evaluator with pluggable scalar operations covers
carriers that are not RingElements (tilt lifts need fused sums).
"""

import functools
import itertools

from .rings import IntegerRing, RingElement, RingHandle, require_odd_prime

_MAX_PRACTICAL_LEN = {3: 5, 5: 4}


class WittTableError(RuntimeError):
    """An exact division by p failed while building universal polynomials."""


# --- sparse integer polynomials -------------------------------------------


def _padd(a, b):
    out = dict(a)
    for mono, c in b.items():
        nc = out.get(mono, 0) + c
        if nc:
            out[mono] = nc
        else:
            out.pop(mono, None)
    return out


def _pscale(a, k):
    if k == 0:
        return {}
    return {mono: c * k for mono, c in a.items()}


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            nc = out.get(mono, 0) + ca * cb
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
    return out


def _ppow(a, e, nvars):
    result = {(0,) * nvars: 1}
    base = a
    while e:
        if e & 1:
            result = _pmul(result, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return result


def _pdiv_exact(a, k):
    out = {}
    for mono, c in a.items():
        if c % k:
            raise WittTableError(
                f"non-integral Witt polynomial: coefficient {c} not divisible by {k}"
            )
        out[mono] = c // k
    return out


def _var(i, nvars):
    mono = [0] * nvars
    mono[i] = 1
    return {tuple(mono): 1}


def _psubst(poly, subs, nvars_out):
    """Substitute polynomials (in nvars_out variables) for the variables."""
    out = {}
    for mono, c in poly.items():
        term = {(0,) * nvars_out: c}
        for vi, e in enumerate(mono):
            if e:
                term = _pmul(term, _ppow(subs[vi], e, nvars_out))
        out = _padd(out, term)
    return out


def _ghost_poly(p, i, var_indices, nvars):
    """w_i over the given variables: sum_j p^j X_j^(p^(i-j))."""
    out = {}
    for j in range(i + 1):
        term = _pscale(_ppow(_var(var_indices[j], nvars), p ** (i - j), nvars), p**j)
        out = _padd(out, term)
    return out


# --- universal tables -------------------------------------------------------


class WittUniversalTable:
    """Sum/product/Frobenius polynomials for W_n at the prime p.

    ``sum_polys[i]`` and ``prod_polys[i]`` live in 2n variables
    (x_0..x_{n-1}, y_0..y_{n-1}); ``frob_polys[i]`` (i < n-1) live in the n
    variables x_0..x_{n-1} and compute F: W_n -> W_{n-1}.  Negation is
    coordinatewise because p is odd.
    """

    def __init__(self, p, n):
        require_odd_prime(p)
        if n < 1:
            raise ValueError("length must be >= 1")
        self.p = p
        self.n = n
        nv2 = 2 * n
        xs = list(range(n))
        ys = list(range(n, 2 * n))
        self.sum_polys = []
        self.prod_polys = []
        for i in range(n):
            wx = _ghost_poly(p, i, xs, nv2)
            wy = _ghost_poly(p, i, ys, nv2)
            target_s = _padd(wx, wy)
            target_p = _pmul(wx, wy)
            acc_s, acc_p = {}, {}
            for j in range(i):
                acc_s = _padd(
                    acc_s, _pscale(_ppow(self.sum_polys[j], p ** (i - j), nv2), p**j)
                )
                acc_p = _padd(
                    acc_p, _pscale(_ppow(self.prod_polys[j], p ** (i - j), nv2), p**j)
                )
            self.sum_polys.append(_pdiv_exact(_padd(target_s, _pscale(acc_s, -1)), p**i))
            self.prod_polys.append(_pdiv_exact(_padd(target_p, _pscale(acc_p, -1)), p**i))
        self.frob_polys = []
        for i in range(n - 1):
            target = _ghost_poly(p, i + 1, xs, n)
            acc = {}
            for j in range(i):
                acc = _padd(
                    acc, _pscale(_ppow(self.frob_polys[j], p ** (i - j), n), p**j)
                )
            self.frob_polys.append(_pdiv_exact(_padd(target, _pscale(acc, -1)), p**i))
        # negation is coordinatewise because p is odd (all ghost exponents
        # are odd); stored for the interface, verified symbolically below
        self.neg_polys = [_pscale(_var(i, n), -1) for i in range(n)]
        self._compiled = {}

    def _poly(self, which, i):
        return {"sum": self.sum_polys, "prod": self.prod_polys, "frob": self.frob_polys}[
            which
        ][i]

    def compiled(self, which, i, prune_mod=None):
        """Compiled evaluator for sum/prod/frob polynomial i.

        prune_mod != None drops monomials with coefficient = 0 mod prune_mod
        and reduces the others; only sound when the target ring satisfies
        prune_mod = 0.
        """
        key = (which, i, prune_mod)
        fn = self._compiled.get(key)
        if fn is None:
            nvars = self.n if which == "frob" else 2 * self.n
            fn = _compile_poly(self._poly(which, i), nvars, prune_mod)
            self._compiled[key] = fn
        return fn

    def compiled_raw(self, which, i, ring):
        key = (which, i, "raw", ring)
        fn = self._compiled.get(key)
        if fn is None:
            nvars = self.n if which == "frob" else 2 * self.n
            fn = _compile_poly_raw(self._poly(which, i), nvars, ring, ring.m)
            self._compiled[key] = fn
        return fn

    def compiled_indexed(self, which, tables):
        """All coordinates of sum/prod/frob in one function on raw payloads,
        evaluated through the lookup tables of a small ring."""
        key = (which, "indexed", tables)
        fn = self._compiled.get(key)
        if fn is None:
            polys = getattr(self, f"{which}_polys")
            fn = _compile_polys_indexed(polys, 1 if which == "frob" else 2, self.n, tables)
            self._compiled[key] = fn
        return fn


def _compile_polys_indexed(polys, operands, n, tables):
    """Compile polynomials in operands*n variables to one function
    f(payload, ...) -> payload over a SmallRingTables ring.

    Coordinates convert to element indices on entry and back on exit; in
    between every product, sum, power and scalar multiple is a table lookup.
    Monomials are pruned modulo m as in _compile_poly_raw, and powers and
    partial products are shared between the coordinates.
    """
    m = tables.m
    ns = dict(tables.namespace, _E=tables.elems, _I=tables.index)
    body = []
    used = set()
    memo = {}

    def temp(key, expr):
        name = memo.get(key)
        if name is None:
            name = memo[key] = f"t{len(memo)}"
            body.append(f"    {name} = {expr}")
        return name

    def power(i, e):
        used.add(i)
        if e == 1:
            return f"v{i}"
        ns[f"_P{e}"] = tables.pow_table(e)
        return temp(("pow", i, e), f"_P{e}[v{i}]")

    def mul(a, b):
        return temp(("mul", a, b), tables.mul_expr(a, b))

    def add(a, b):
        return temp(("add", a, b), tables.add_expr(a, b))

    outs = []
    for poly in polys:
        terms = []
        for mono in sorted(poly):
            c = poly[mono] % m
            if c == 0:
                continue
            factors = [power(i, e) for i, e in enumerate(mono) if e]
            if not factors:
                terms.append(str(c * tables.one))  # the constant c*1
                continue
            val = factors[0]
            for f in factors[1:]:
                val = mul(val, f)
            if c != 1:
                ns[f"_S{c}"] = tables.scale_table(c)
                val = temp(("scale", val, c), f"_S{c}[{val}]")
            terms.append(val)
        acc = terms[0] if terms else "0"
        for t in terms[1:]:
            acc = add(acc, t)
        outs.append(f"_E[{acc}]")
    args = [f"u{k}" for k in range(operands)]
    head = [f"def _f({', '.join(args)}):"]
    for k, arg in enumerate(args):
        head.append(f"    ({''.join(f'a{k * n + i}, ' for i in range(n))}) = {arg}")
    head += [f"    v{i} = _I[a{i}]" for i in sorted(used)]
    tail = f"    return ({''.join(f'{out}, ' for out in outs)})"
    src = "\n".join(head + body + [tail]) + "\n"
    exec(src, ns)  # noqa: S102 - generated from table data only
    fn = ns["_f"]
    fn.__source__ = src
    return fn


def _compile_poly_raw(poly, nvars, ring, prune_mod):
    """Compile to a function on raw payload tuples, bound to kernel calls.

    Much faster than the operator form: no RingElement allocation per
    intermediate.  Only valid for quotient-ring handles (single modulus m).
    """
    from . import _kernel as kernel

    lines = [f"def _f({', '.join(f'v{i}' for i in range(nvars))}):"]
    # per-variable power prelude
    needed = {}
    for mono in poly:
        for i, e in enumerate(mono):
            if e > 1:
                needed.setdefault(i, set()).add(e)
    terms = []
    for mono in sorted(poly):
        c = poly[mono]
        if prune_mod is not None:
            c %= prune_mod
            if c == 0:
                continue
            if c > prune_mod - c:
                c -= prune_mod
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"v{i}")
            elif e > 1:
                factors.append(f"w{i}_{e}")
        if not factors:
            expr = "_one"
        else:
            expr = factors[0]
            for f in factors[1:]:
                expr = f"_mul({expr}, {f}, _ctx)"
        terms.append((c, expr))
    used_powers = set()
    for mono in sorted(poly):
        c = poly[mono]
        if prune_mod is not None and c % prune_mod == 0:
            continue
        for i, e in enumerate(mono):
            if e > 1:
                used_powers.add((i, e))
    for i, e in sorted(used_powers):
        lines.append(f"    w{i}_{e} = _pow(v{i}, {e}, _ctx)")
    if not terms:
        lines.append("    return _zero")
    else:
        first = True
        for c, expr in terms:
            if c == 1:
                t = expr
            elif c == -1:
                t = f"_neg({expr}, _m)"
            else:
                t = f"_scale({expr}, {c}, _m)"
            if first:
                lines.append(f"    acc = {t}")
                first = False
            else:
                lines.append(f"    acc = _add(acc, {t}, _m)")
        lines.append("    return acc")
    src = "\n".join(lines) + "\n"
    ns = {
        "_mul": kernel.poly_mulmod,
        "_pow": kernel.poly_powmod,
        "_add": kernel.vec_addmod,
        "_neg": kernel.vec_negmod,
        "_scale": kernel.vec_scalemod,
        "_ctx": ring._ctx,
        "_m": ring.m,
        "_zero": ring.zero().data,
        "_one": ring.one().data,
    }
    exec(src, ns)  # noqa: S102 - generated from table data only
    fn = ns["_f"]
    fn.__source__ = src
    return fn


def _compile_poly(poly, nvars, prune_mod):
    args = ", ".join(f"v{i}" for i in range(nvars))
    terms = []
    for mono in sorted(poly):
        c = poly[mono]
        if prune_mod is not None:
            c %= prune_mod
            if c == 0:
                continue
            if c > prune_mod - c:
                c -= prune_mod  # small negative beats large positive
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"v{i}")
            elif e > 1:
                factors.append(f"v{i}**{e}")
        body = "*".join(factors)
        if c == 1 and body:
            terms.append(body)
        elif c == -1 and body:
            terms.append(f"-{body}")
        elif body:
            terms.append(f"{c}*{body}")
        else:
            terms.append(f"_zero + {c}" if c != 0 else "")
    terms = [t for t in terms if t]
    if not terms:
        src = f"def _f({args}, _zero=0):\n    return _zero\n"
    else:
        src = f"def _f({args}, _zero=0):\n    return sum(({', '.join(terms)},), _zero)\n"
    ns = {}
    exec(src, ns)  # noqa: S102 - generated from table data only
    fn = ns["_f"]
    fn.__source__ = src
    return fn


@functools.lru_cache(maxsize=None)
def multi_sum_polys(p, n, k):
    """Universal polynomials for the k-fold Witt sum at length n.

    Returned polynomials live in k*n variables (operand 0 coords, operand 1
    coords, ...).  Needed by carriers whose addition loses precision: a k-fold
    sum evaluated through these costs one stabilization instead of k-1.
    """
    table = get_table(p, n)
    nvars = k * n
    acc = [_var(i, nvars) for i in range(n)]
    for j in range(1, k):
        operand = [_var(j * n + i, nvars) for i in range(n)]
        subs = acc + operand
        acc = [_psubst(table.sum_polys[i], subs, nvars) for i in range(n)]
    return tuple(acc)


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

    Returns None when every sum/product polynomial satisfies its ghost
    identity, else a witness string naming the first failure.
    """
    p, n = table.p, table.n
    nv2 = 2 * n
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    for i in range(n):
        wx = _ghost_poly(p, i, xs, nv2)
        wy = _ghost_poly(p, i, ys, nv2)
        for which, polys, target in (
            ("sum", table.sum_polys, _padd(wx, wy)),
            ("prod", table.prod_polys, _pmul(wx, wy)),
        ):
            acc = {}
            for j in range(i + 1):
                acc = _padd(acc, _pscale(_ppow(polys[j], p ** (i - j), nv2), p**j))
            if _padd(acc, _pscale(target, -1)):
                return f"{which} polynomial violates ghost identity at i={i} (p={p}, n={n})"
    for i in range(n - 1):
        target = _ghost_poly(p, i + 1, xs, n)
        acc = {}
        for j in range(i + 1):
            acc = _padd(acc, _pscale(_ppow(table.frob_polys[j], p ** (i - j), n), p**j))
        if _padd(acc, _pscale(target, -1)):
            return f"frob polynomial violates ghost identity at i={i} (p={p}, n={n})"
    # x + neg(x) = 0: substitute the negation polynomials into the sum ones
    subs = [_var(i, n) for i in range(n)] + list(table.neg_polys)
    for i in range(n):
        if _psubst(table.sum_polys[i], subs, n):
            return f"negation polynomial fails S_{i}(x, -x) = 0 (p={p}, n={n})"
    return None


# --- Witt vectors ------------------------------------------------------------


class WittVector:
    """Element of W_n(A): a length-n tuple of canonical RingElements."""

    __slots__ = ("ring", "p", "coords")

    def __init__(self, ring, p, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("length must be >= 1")
        for c in coords:
            if not isinstance(c, RingElement) or c.ring != ring:
                raise ValueError("owner mismatch")
        self.ring = ring
        self.p = p
        self.coords = coords

    @property
    def length(self):
        return len(self.coords)

    def _check(self, other):
        if (
            not isinstance(other, WittVector)
            or other.ring != self.ring
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
            and other.ring == self.ring
            and other.p == self.p
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __repr__(self):
        return serialize_witt(self)


def _prune_mod(ring):
    """p^M when the ring satisfies p^M = 0, else None."""
    m = getattr(ring, "m", None)
    return m


class RawWittOps:
    """Witt operations on raw coordinate payloads (tuples of ring payloads:
    coefficient tuples, or ints over Z).

    The workhorse of exhaustive checks: no RingElement allocation in the
    loop.  Obtain via raw_witt_ops(ring, p, n); results equal the wrapped
    API coordinatewise.
    """

    def __init__(self, ring, p, n):
        self.ring = ring
        self.p = p
        self.n = n
        table = get_table(p, n)
        self.zero_payload = ring.zero().data
        self._neg = ring._neg
        tables = getattr(ring, "_tables", None)
        if tables is not None:
            # (sum, prod, frob), each computing every coordinate at once
            self._indexed = tuple(
                table.compiled_indexed(which, tables) for which in ("sum", "prod", "frob")
            )
            return
        self._indexed = None
        if isinstance(ring, IntegerRing):
            # exact over plain ints; nothing is pruned, so the polynomials are
            # large and each operation compiles on its first use
            self._compile = table.compiled
        else:
            self._compile = functools.partial(table.compiled_raw, ring=ring)
            # compile all three now: the compile's transient memory is then
            # freed before the operations start allocating
            for name in ("_sum", "_prod", "_frob"):
                getattr(self, name)

    # one function per coordinate, for rings without tables
    @functools.cached_property
    def _sum(self):
        return [self._compile("sum", i) for i in range(self.n)]

    @functools.cached_property
    def _prod(self):
        return [self._compile("prod", i) for i in range(self.n)]

    @functools.cached_property
    def _frob(self):
        return [self._compile("frob", i) for i in range(self.n - 1)]

    def add(self, u, v):
        if self._indexed:
            return self._indexed[0](u, v)
        args = u + v
        return tuple(f(*args) for f in self._sum)

    def mul(self, u, v):
        if self._indexed:
            return self._indexed[1](u, v)
        args = u + v
        return tuple(f(*args) for f in self._prod)

    def neg(self, u):
        return tuple(map(self._neg, u))

    def frob(self, u):
        if self._indexed:
            return self._indexed[2](u)
        return tuple(f(*u) for f in self._frob)

    def scalar_mul(self, k, u):
        if k < 0:
            return self.scalar_mul(-k, self.neg(u))
        acc = (self.zero_payload,) * self.n
        base = u
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc

    def wrap(self, u):
        return WittVector(self.ring, self.p, tuple(RingElement(self.ring, c) for c in u))

    def unwrap(self, w):
        return tuple(c.data for c in w.coords)

    def enumerate_payloads(self):
        """All coordinate payloads of W_n(A), lazily, deterministic order."""
        d, n = self.ring.d, self.n
        for flat in itertools.product(range(self.ring.m), repeat=d * n):
            yield tuple(flat[i * d : (i + 1) * d] for i in range(n))


_raw_cache = {}


def raw_witt_ops(ring, p, n):
    key = (ring, p, n)
    ops = _raw_cache.get(key)
    if ops is None and (hasattr(ring, "_ctx") or isinstance(ring, IntegerRing)):
        ops = RawWittOps(ring, p, n)
        _raw_cache[key] = ops
    return ops


def witt_zero(ring, p, n):
    z = ring.zero()
    return WittVector(ring, p, (z,) * n)


def witt_one(ring, p, n):
    return teichmuller(ring.one(), p, n)


def witt_int(c, ring, p, n):
    """The image of the integer c in W_n(A)."""
    return witt_scalar_mul(c, witt_one(ring, p, n))


def teichmuller(a, p, n):
    """[a] = (a, 0, ..., 0), the multiplicative section."""
    ring = a.ring
    z = ring.zero()
    return WittVector(ring, p, (a,) + (z,) * (n - 1))


def witt_add(u, v):
    u._check(v)
    raw = raw_witt_ops(u.ring, u.p, u.length)
    if raw is not None:
        return raw.wrap(raw.add(raw.unwrap(u), raw.unwrap(v)))
    table = get_table(u.p, u.length)
    prune = _prune_mod(u.ring)
    zero = u.ring.zero()
    args = u.coords + v.coords
    coords = [
        table.compiled("sum", i, prune)(*args, zero) for i in range(u.length)
    ]
    return WittVector(u.ring, u.p, coords)


def witt_mul(u, v):
    u._check(v)
    raw = raw_witt_ops(u.ring, u.p, u.length)
    if raw is not None:
        return raw.wrap(raw.mul(raw.unwrap(u), raw.unwrap(v)))
    table = get_table(u.p, u.length)
    prune = _prune_mod(u.ring)
    zero = u.ring.zero()
    args = u.coords + v.coords
    coords = [
        table.compiled("prod", i, prune)(*args, zero) for i in range(u.length)
    ]
    return WittVector(u.ring, u.p, coords)


def witt_neg(u):
    # p odd: ghost components are odd functions, so negation is coordinatewise
    return WittVector(u.ring, u.p, tuple(-c for c in u.coords))


def witt_scalar_mul(k, u):
    """k*u for an integer k, by double-and-add on Witt addition."""
    if k < 0:
        return witt_scalar_mul(-k, witt_neg(u))
    acc = witt_zero(u.ring, u.p, u.length)
    base = u
    while k:
        if k & 1:
            acc = witt_add(acc, base)
        k >>= 1
        if k:
            base = witt_add(base, base)
    return acc


def verschiebung(u):
    """V: W_n -> W_{n+1}, (a_0..a_{n-1}) -> (0, a_0..a_{n-1})."""
    return WittVector(u.ring, u.p, (u.ring.zero(),) + u.coords)


def restriction(u):
    """R: W_n -> W_{n-1}, drop the last coordinate."""
    if u.length < 2:
        raise ValueError("length underflow: R needs n >= 2")
    return WittVector(u.ring, u.p, u.coords[:-1])


def frobenius(u):
    """F: W_n -> W_{n-1}, the unique natural ring map with ghost shift."""
    if u.length < 2:
        raise ValueError("length underflow: F needs n >= 2")
    raw = raw_witt_ops(u.ring, u.p, u.length)
    if raw is not None:
        return WittVector(
            u.ring,
            u.p,
            tuple(RingElement(u.ring, c) for c in raw.frob(raw.unwrap(u))),
        )
    table = get_table(u.p, u.length)
    prune = _prune_mod(u.ring)
    zero = u.ring.zero()
    coords = [
        table.compiled("frob", i, prune)(*u.coords, zero)
        for i in range(u.length - 1)
    ]
    return WittVector(u.ring, u.p, coords)


def frobenius_power(u, k):
    for _ in range(k):
        u = frobenius(u)
    return u


def ghost(u):
    """Ghost components (w_0, ..., w_{n-1}) as ring elements."""
    out = []
    for i in range(u.length):
        acc = u.ring.zero()
        for j in range(i + 1):
            acc = acc + (u.p**j) * (u.coords[j] ** (u.p ** (i - j)))
        out.append(acc)
    return tuple(out)


def decompose_teichmuller(u):
    """Coordinates as the standard expansion u = sum_i V^i([a_i])."""
    return u.coords


def witt_is_unit(u):
    """(True, inverse) iff the first coordinate is a unit in A."""
    ok, _ = u.ring.is_unit(u.coords[0])
    if not ok:
        return False, None
    inv = _witt_invert(u)
    return True, inv


def _witt_invert(u):
    ok, a0_inv = u.ring.is_unit(u.coords[0])
    if not ok:
        raise ValueError("first Witt coordinate is not a unit")
    if u.length == 1:
        return teichmuller(a0_inv, u.p, 1)
    # peel: v = [a0^-1] + V(w); solve F(u) w = unV(1 - u*[a0^-1])
    t = teichmuller(a0_inv, u.p, u.length)
    rem = witt_add(witt_one(u.ring, u.p, u.length), witt_neg(witt_mul(u, t)))
    assert rem.coords[0].is_zero()
    w = _witt_invert(frobenius(u))  # F(u) is a unit too: (a0^p) is a unit
    # solve F(u) * y = unV(rem) exactly: y = F(u)^{-1} * unV(rem)
    y = witt_mul(w, WittVector(u.ring, u.p, rem.coords[1:]))
    return witt_add(t, verschiebung(y))


def witt_divide_exact(x, u, ann_cap=256):
    """Some q with u*q = x in W_n(A), or None.

    First-coordinate peeling; when a coordinate-level witness does not
    extend, other witnesses in the same annihilator coset are tried, up to
    ann_cap of them.  Witnesses beyond the cap are not searched, so None
    means "no witness found", not a proof of indivisibility, unless n = 1.
    """
    ring, p, n = x.ring, x.p, x.length
    q0 = ring.divide_exact(x.coords[0], u.coords[0])
    if q0 is None:
        return None
    if n == 1:
        return teichmuller(q0, p, 1)
    candidates = [q0]
    ann = ring.annihilator(u.coords[0], cap=ann_cap)
    if ann:
        candidates = [q0 + delta for delta in ann]
    for cand in candidates:
        t = teichmuller(cand, p, n)
        rem = witt_add(x, witt_neg(witt_mul(u, t)))
        if not rem.coords[0].is_zero():
            continue
        sub = witt_divide_exact(
            WittVector(ring, p, rem.coords[1:]), frobenius(u), ann_cap
        )
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


def parse_witt(s, ring):
    import re as _re

    m = _re.fullmatch(r"W\[p=(\d+),n=(\d+);\s*(.*)\]", s.strip())
    if not m:
        raise ValueError(f"bad Witt vector literal {s!r}")
    p, n, rest = int(m.group(1)), int(m.group(2)), m.group(3)
    parts = rest.split(";")
    if len(parts) != n:
        raise ValueError("coordinate count mismatch")
    return WittVector(ring, p, tuple(ring.parse_element(part) for part in parts))


def witt_to_json(u):
    """JSON-array form used by reports."""
    return {
        "p": u.p,
        "n": u.length,
        "ring": u.ring.descriptor(),
        "coords": [u.ring.format_element(c) for c in u.coords],
    }


def witt_from_json(d, ring):
    if ring.descriptor() != d["ring"]:
        raise ValueError("ring descriptor mismatch")
    return WittVector(
        ring, d["p"], tuple(ring.parse_element(s) for s in d["coords"])
    )


# --- generic-ops evaluation (tilt lifts and other non-RingElement scalars) ---


class ScalarOps:
    """Interface for evaluating universal polynomials over foreign scalars."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def scale_int(self, a, c):
        raise NotImplementedError

    def sum(self, items):
        raise NotImplementedError


def eval_poly_ops(poly, values, ops):
    """Evaluate a sparse polynomial with the given scalar operations.

    The final accumulation goes through ops.sum in one call, which lets
    precision-losing carriers (tilt addition) pay a single stabilization
    cost per polynomial instead of one per monomial.
    """
    powers = {}

    def power(vi, e):
        key = (vi, e)
        got = powers.get(key)
        if got is None:
            if e == 1:
                got = values[vi]
            else:
                half = power(vi, e // 2)
                got = ops.mul(half, half)
                if e & 1:
                    got = ops.mul(got, values[vi])
            powers[key] = got
        return got

    terms = []
    for mono in sorted(poly):
        c = poly[mono]
        val = None
        for vi, e in enumerate(mono):
            if e:
                v = power(vi, e)
                val = v if val is None else ops.mul(val, v)
        if val is None:
            val = ops.one()
        if c != 1:
            val = ops.scale_int(val, c)
        terms.append(val)
    if not terms:
        return ops.zero()
    return ops.sum(terms)


def random_witt(ring, p, n, rng):
    from .rings import random_element

    return WittVector(ring, p, tuple(random_element(ring, rng) for _ in range(n)))
