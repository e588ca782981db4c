"""The tests' oracle for Witt arithmetic: eval_poly_ops on RingElements."""

import pytest

from wittkit.witt import eval_poly_ops


class RingOps:
    """The scalar operations of one ring, on its RingElements."""

    def __init__(self, ring):
        self.ring = ring

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def mul(self, a, b):
        return a * b

    def scale_int(self, a, c):
        return a * c

    def sum(self, items):
        return sum(items, self.ring.zero())


def _eval_polys(polys, values):
    ops = RingOps(values[0].ring)
    return tuple(eval_poly_ops(poly, values, ops) for poly in polys)


@pytest.fixture(scope="session")
def eval_polys():
    """eval_polys(polys, values): the polynomials evaluated, unpruned, on a
    nonempty list of RingElements of one ring, independently of the compiled
    Witt operations; the oracle for raw_witt_ops and the wrapped API."""
    return _eval_polys
