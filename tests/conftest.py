"""The tests' oracles for Witt arithmetic: sparse polynomials evaluated
on RingElements; the universal polynomials by ghost recursion on exponent
tuples, with the programs of the compiled operations evaluated and checked
in the same arithmetic; a fixture that corrupts one raw Witt operation at
chosen inputs; the witt-identities suite's draws, one vector at a time; and
the inverses of the text and JSON forms of a Witt vector."""

import functools
import math
import re

import numpy as np
import pytest

from wittkit.rings import IntegerRing, ring_from_descriptor
from wittkit.witt import WittVector, random_witt


def eval_poly(poly, values):
    """A sparse polynomial {exponent tuple: int} evaluated on a nonempty
    list of RingElements of one ring.  Nothing is pruned and nothing is
    compiled: each power is built by squaring and multiplying, once per
    variable and exponent."""
    ring = values[0].ring
    powers = {}

    def power(vi, e):
        key = (vi, e)
        got = powers.get(key)
        if got is None:
            if e == 1:
                got = values[vi]
            else:
                half = power(vi, e // 2)
                got = half * half
                if e & 1:
                    got = got * values[vi]
            powers[key] = got
        return got

    terms = []
    for mono in sorted(poly):
        c = poly[mono]
        val = None
        for vi, e in enumerate(mono):
            if e:
                v = power(vi, e)
                val = v if val is None else val * v
        if val is None:
            val = ring.one()
        if c != 1:
            val = val * c
        terms.append(val)
    return sum(terms, ring.zero())


def _eval_polys(polys, values):
    return tuple(eval_poly(poly, values) for poly in polys)


@pytest.fixture(scope="session")
def eval_polys():
    """eval_polys(polys, values): the polynomials evaluated, unpruned, on a
    nonempty list of RingElements of one ring, independently of the compiled
    Witt operations; the oracle for raw_witt_ops and the wrapped API."""
    return _eval_polys


# --- the tuple oracle: sparse polynomials keyed by exponent tuples ----------
#
# The arithmetic of wittkit.witt as it was before monomials were packed:
# each monomial an exponent tuple, each product a new tuple.  It builds, by
# ghost recursion, the sum and product expanded in all 2n coordinates and
# the carries in x and y, none of which src/ builds, rewrites the carries in
# x + y and xy (_symmetric_form), and evaluates the programs of the compiled
# operations step by step.


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
    assert all(c % k == 0 for c in a.values())
    return {mono: c // k for mono, c in a.items()}


def _var(i, nvars):
    mono = [0] * nvars
    mono[i] = 1
    return {tuple(mono): 1}


def _psubst(poly, subs, nvars_out):
    out = {}
    for mono, c in poly.items():
        term = {(0,) * nvars_out: c}
        for vi, e in enumerate(mono):
            if e:
                term = _pmul(term, _ppow(subs[vi], e, nvars_out))
        out = _padd(out, term)
    return out


def _ghost_poly(p, i, var_indices, nvars):
    out = {}
    for j in range(i + 1):
        term = _pscale(_ppow(_var(var_indices[j], nvars), p ** (i - j), nvars), p**j)
        out = _padd(out, term)
    return out


def _ghost_of(polys, p, i, nvars):
    acc = {}
    for j, poly in enumerate(polys):
        acc = _padd(acc, _pscale(_ppow(poly, p ** (i - j), nvars), p**j))
    return acc


def _ghost_recursion(p, count, target, nvars):
    polys = []
    for i in range(count):
        acc = _ghost_of(polys, p, i, nvars)
        polys.append(_pdiv_exact(_padd(target(i), _pscale(acc, -1)), p**i))
    return polys


def _teichmuller_ghost(p, i):
    return _padd(_ppow(_var(0, 2), p**i, 2), _ppow(_var(1, 2), p**i, 2))


def _symmetric_form(poly):
    """H with poly(x, y) = H(x + y, xy), for a polynomial poly in two
    variables that is symmetric and homogeneous: each step takes the term
    c x^i y^j (i >= j) of highest degree in x and subtracts c (x + y)^(i-j)
    (xy)^j, whose term of highest degree in x it is."""
    rest, out = dict(poly), {}
    while rest:
        i, j = max(rest)
        c = rest[i, j]
        assert i >= j, "not a symmetric polynomial"
        out[i - j, j] = c
        a = i - j
        rest = _padd(rest, {(t + j, a - t + j): -c * math.comb(a, t) for t in range(a + 1)})
    return out


@functools.lru_cache(maxsize=None)
def _oracle_carries(p, n):
    """The carries eta_0..eta_{n-1} of [x] + [y] in W_n at p, in the two
    variables x, y, by ghost recursion on exponent tuples."""
    return _ghost_recursion(p, n, functools.partial(_teichmuller_ghost, p), 2)


@functools.lru_cache(maxsize=None)
def _oracle_table(p, n):
    """The universal polynomials of W_n at p, built on exponent tuples: the
    sum and product expanded in x_0..x_{n-1}, y_0..y_{n-1}, and every
    field of WittUniversalTable(p, n).  eta_sym is the symmetric form of
    the oracle's carries in x, y."""
    nv2 = 2 * n
    xs, ys = list(range(n)), list(range(n, nv2))
    return {
        "sum_polys": _ghost_recursion(
            p, n, lambda i: _padd(_ghost_poly(p, i, xs, nv2), _ghost_poly(p, i, ys, nv2)), nv2
        ),
        "prod_polys": _ghost_recursion(
            p, n, lambda i: _pmul(_ghost_poly(p, i, xs, nv2), _ghost_poly(p, i, ys, nv2)), nv2
        ),
        "frob_polys": _ghost_recursion(p, n - 1, lambda i: _ghost_poly(p, i + 1, xs, n), n),
        "eta_sym_polys": [_symmetric_form(poly) for poly in _oracle_carries(p, n)],
    }


def _program_outputs(program, nvars):
    """The outputs of a program of _compiler._compile_polys as polynomials in its
    nvars input variables, one at a time: each step substitutes the values
    it reads into its polynomials, once an output reads it."""
    steps, outs = program
    values = {i: _var(i, nvars) for i in range(nvars)}
    makers = {}
    for polys, args in steps:
        first = nvars + len(makers)
        makers.update((first + j, (polys, args, first)) for j in range(len(polys)))

    def value(v):
        if v not in values:
            polys, args, first = makers[v]
            subs = [value(a) for a in args]
            for j, poly in enumerate(polys):
                values[first + j] = _psubst(poly, subs, nvars)
        return values[v]

    for v in outs:
        yield value(v)


def _run_program(program, nvars):
    return list(_program_outputs(program, nvars))


def _oracle_verify(table):
    """witt.verify_ghost_symbolic on exponent tuples: the same checks in
    the same order, on the programs table._program returns, each output
    evaluated when its level is checked."""
    p, n = table.p, table.n
    nv2 = 2 * n
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    runs = {which: (_program_outputs(table._program(which), nv2), []) for which in ("sum", "prod")}
    for i in range(n):
        wx = _ghost_poly(p, i, xs, nv2)
        wy = _ghost_poly(p, i, ys, nv2)
        for which, target in (("sum", _padd(wx, wy)), ("prod", _pmul(wx, wy))):
            outputs, polys = runs[which]
            polys.append(next(outputs))
            if _padd(_ghost_of(polys, p, i, nv2), _pscale(target, -1)):
                return f"{which} polynomial violates ghost identity at i={i} (p={p}, n={n})"
    for i in range(n - 1):
        target = _ghost_poly(p, i + 1, xs, n)
        if _padd(_ghost_of(table.frob_polys[: i + 1], p, i, n), _pscale(target, -1)):
            return f"frob polynomial violates ghost identity at i={i} (p={p}, n={n})"
    return None


@pytest.fixture(scope="session")
def oracle_table():
    """oracle_table(p, n): {field: polynomials} on exponent tuples, built by
    ghost recursion independently of wittkit's packed engine and programs:
    "sum_polys" and "prod_polys", the sum and product expanded in the 2n
    variables x_0..x_{n-1}, y_0..y_{n-1}, and "frob_polys" and
    "eta_sym_polys", as the table's fields of those names.  Cached for the
    session; callers must not change it."""
    return _oracle_table


@pytest.fixture(scope="session")
def oracle_carries():
    """oracle_carries(p, n): the carries eta_0..eta_{n-1} of [x] + [y] as
    polynomials in x, y on exponent tuples, by ghost recursion and without
    the 2n-variable expansion.  Cached for the session; callers must not
    change them."""
    return _oracle_carries


@pytest.fixture(scope="session")
def symmetric_form():
    """symmetric_form(poly): H with poly(x, y) = H(x + y, xy), for a
    symmetric homogeneous polynomial in x, y on exponent tuples."""
    return _symmetric_form


@pytest.fixture(scope="session")
def run_program():
    """run_program(program, nvars): the list of outputs of a program of
    _compiler._compile_polys, evaluated on exponent tuples in its nvars input
    variables."""
    return _run_program


@pytest.fixture(scope="session")
def oracle_verify():
    """oracle_verify(table): the witness of witt.verify_ghost_symbolic,
    computed on exponent tuples through run_program."""
    return _oracle_verify


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(raw, name, targets): give raw's operation `name` a wrong first
    coordinate at the target inputs, per element and in the batch form
    alike: that coordinate moves to the next element index (tables) or gets
    1 added to its first coefficient (above the cap)."""

    def apply(raw, name, targets):
        ring, tables = raw.ring, raw.ring._tables
        op, batch_op = getattr(raw, name), getattr(raw, f"{name}_batch")

        def bump(c):
            if tables is not None:
                return tables.elems[(tables.index[c] + 1) % tables.Q]
            return ((c[0] + 1) % ring.m,) + c[1:]

        def bad(*args):
            out = op(*args)
            return (bump(out[0]),) + out[1:] if args in targets else out

        target_batches = [[raw.to_batch([a]) for a in args] for args in targets]

        def bad_batch(*args):
            out = batch_op(*args)
            hit = np.zeros(len(out[0]), dtype=bool)
            for target in target_batches:
                hit |= np.logical_and.reduce([raw.equal_batch(a, t) for a, t in zip(args, target)])
            first = out[0].copy()
            if tables is not None:
                first[hit] = (first[hit] + 1) % tables.Q
            else:
                first[hit, 0] = (first[hit, 0] + 1) % ring.m
            return (first,) + tuple(out[1:])

        monkeypatch.setitem(raw.__dict__, name, bad)
        monkeypatch.setitem(raw.__dict__, f"{name}_batch", bad_batch)

    return apply


def _witt_identity_draws(cfg):
    """The Witt vectors that suite_witt_identities draws from its rng, by
    (ring descriptor, length), in draw order, one random_witt per vector:
    the per-sample form of its chunked draws.  The ghost checks over Z draw
    first, 100 pairs per length (none fail here).  Over charp(p,0,3) come
    1000 sampled V-additivity pairs when its pairs exceed the budget, then
    200 samples (x, y), x in W_3 and y in W_2; over the cyc ring 1000."""
    p, rng, Z = cfg.p, cfg.rng("witt-identities"), IntegerRing()
    for length in range(1, {3: 4}.get(p, 3) + 1):
        for _ in range(200):
            random_witt(Z, p, length, rng)
    draws = {}
    charp = ring_from_descriptor(f"charp({p},0,3)")
    cyc = ring_from_descriptor(f"cyc({p},{min(cfg.N, 2)},{max(cfg.M, 2)})")
    for ring, samples in ((charp, 200), (cyc, 1000)):
        desc = ring.descriptor()
        xs, ys = draws.setdefault((desc, 3), []), draws.setdefault((desc, 2), [])
        if ring is charp and ring.cardinality() ** 4 > cfg.budget:
            ys += [random_witt(ring, p, 2, rng) for _ in range(2000)]
        for _ in range(samples):
            xs.append(random_witt(ring, p, 3, rng))
            ys.append(random_witt(ring, p, 2, rng))
    return draws


@pytest.fixture(scope="session")
def witt_identity_draws():
    """witt_identity_draws(cfg): the Witt vectors the witt-identities suite
    draws under cfg, by (ring descriptor, length), drawn one at a time."""
    return _witt_identity_draws


def _parse_witt(s, ring):
    """The Witt vector over ring of its text form, witt.serialize_witt."""
    m = re.fullmatch(r"W\[p=(\d+),n=(\d+);\s*(.*)\]", s.strip())
    if not m:
        raise ValueError(f"bad Witt vector literal {s!r}")
    p, n, rest = int(m.group(1)), int(m.group(2)), m.group(3)
    parts = rest.split(";")
    if len(parts) != n:
        raise ValueError("coordinate count mismatch")
    return WittVector(ring, p, tuple(ring.parse_element(part) for part in parts))


def _witt_to_json(u):
    return {
        "p": u.p,
        "n": u.length,
        "ring": u.ring.descriptor(),
        "coords": [u.ring.format_element(c) for c in u.coords],
    }


def _witt_from_json(d, ring):
    if ring.descriptor() != d["ring"]:
        raise ValueError("ring descriptor mismatch")
    return WittVector(ring, d["p"], tuple(ring.parse_element(s) for s in d["coords"]))


@pytest.fixture(scope="session")
def witt_text():
    """(parse_witt, witt_to_json, witt_from_json): parse_witt(s, ring)
    inverts witt.serialize_witt, and witt_from_json(d, ring) inverts
    witt_to_json, a Witt vector's JSON object of p, n, ring and coords."""
    return _parse_witt, _witt_to_json, _witt_from_json
