"""The tests' oracle for Witt arithmetic: sparse polynomials evaluated
on RingElements; and a fixture that corrupts one raw Witt operation at
chosen inputs."""

import numpy as np
import pytest


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
