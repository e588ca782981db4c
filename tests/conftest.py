"""The tests' oracle for Witt arithmetic: sparse polynomials evaluated
on RingElements; a fixture that corrupts one raw Witt operation at chosen
inputs; the witt-identities suite's draws, one vector at a time; and the
inverses of the text and JSON forms of a Witt vector."""

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
