"""The explicit rank-one model of the p-adic Tate module of the degree-one
de Rham-Witt layers.

Layer n is the free W_n(A)-module on a formal generator alpha_n; the element
([zeta_{p^n}] - 1) * alpha_n plays the role of dlog of the compatible root
tower.  Transition laws are part of the structure and re-verified, not
derived:

    F(x * alpha_{n+1}) = F(x) * alpha_n
    R(x * alpha_{n+1}) = R(x) R(z_{n+1}) * alpha_n

Tower elements are F-compatible sequences of layer elements; scalars for the
twist law R(t x) = phi^{-1}(t) R(x) come from the tilt through the theta maps.
Fixed points of R delegate to the characteristic-p solver and are reported in
the alpha coordinates.
"""

from .tilt import (
    eps_charp,
    frobenius_equation_solve,
    q_log,
    theta_r,
    tilt_witt_phi_inv,
)
from .witt import (
    frobenius,
    restriction,
    teichmuller,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    z_element,
)


class TateLayer:
    """Free rank-one W_n(A)-module on the generator alpha_n; elements are
    their scalars."""

    def __init__(self, ring, n):
        if ring.kind != "CyclotomicTruncation" or ring.N < n:
            raise ValueError("depth shortfall: layer n needs N >= n")
        self.ring = ring
        self.n = n

    def element(self, scalar):
        if scalar.length != self.n:
            raise ValueError("scalar length mismatch")
        return scalar

    def generator(self):
        return witt_one(self.ring, self.ring.p, self.n)

    def dlog_element(self):
        """([zeta_{p^n}] - 1) * alpha_n."""
        p = self.ring.p
        return witt_add(
            teichmuller(self.ring.zeta(self.n), p, self.n),
            witt_neg(witt_one(self.ring, p, self.n)),
        )

    def scalar_of(self, elem):
        """The unique scalar with elem = scalar * alpha_n (free rank one)."""
        return elem


class TateTower:
    """Layers 1..height with the F- and R-transition laws."""

    def __init__(self, ring, height):
        if ring.N < height + 1:
            raise ValueError("depth shortfall: tower height h needs N >= h + 1")
        self.ring = ring
        self.height = height
        self.layers = [TateLayer(ring, n) for n in range(1, height + 1)]

    def layer(self, n):
        return self.layers[n - 1]

    def alpha_tower(self):
        """The canonical generator: scalar 1 at every layer."""
        return [layer.generator() for layer in self.layers]

    def dlog_tower(self):
        return [layer.dlog_element() for layer in self.layers]

    def is_f_compatible(self, elem):
        for n in range(1, self.height):
            if frobenius(elem[n]) != elem[n - 1]:
                return False
        return True

    def f_transition(self, scalar_np1):
        return frobenius(scalar_np1)

    def r_transition(self, scalar_np1, n):
        """R(x alpha_{n+1}) = R(x) R(z_{n+1}) alpha_n."""
        rz = restriction(z_element(self.ring, n + 1))
        return witt_mul(restriction(scalar_np1), rz)

    def tower_restrict(self, elem, check=True):
        """R on tower elements: height drops by one."""
        if len(elem) != self.height:
            raise ValueError("height mismatch")
        if check and not self.is_f_compatible(elem):
            raise ValueError("compatibility violation: F(x_{n+1}) != x_n")
        return [self.r_transition(elem[n], n) for n in range(1, self.height)]

    def scalar_tower_from_tilt(self, w):
        """An F-compatible scalar tower (theta_n(w))_n from a tilt Witt vector."""
        return [theta_r(w, n) for n in range(1, self.height + 1)]

    def scalar_mul(self, scalars, elem):
        return [witt_mul(s, x) for s, x in zip(scalars, elem)]

    def twist_law_holds(self, w, elem):
        """R(t x) = phi^{-1}(t) R(x) for the tilt scalar t = theta-tower of w."""
        scalars = self.scalar_tower_from_tilt(w)
        lhs = self.tower_restrict(self.scalar_mul(scalars, elem))
        w_shift = tilt_witt_phi_inv(w)
        scalars_shift = [theta_r(w_shift, n) for n in range(1, self.height)]
        rhs = self.scalar_mul(scalars_shift, self.tower_restrict(elem))
        return lhs == rhs

    def twist_law_holds_int(self, c, elem):
        """R(c x) = c R(x) for integer scalars (phi fixes them)."""
        lhs = self.tower_restrict(
            [witt_mul(witt_scalar(self.ring, n + 1, c), x) for n, x in enumerate(elem)]
        )
        rhs = [
            witt_mul(witt_scalar(self.ring, n + 1, c), x)
            for n, x in enumerate(self.tower_restrict(elem))
        ]
        return lhs == rhs

    def ratio_identity_holds(self, n):
        """([zeta_{p^{n+1}}] - 1) R(z_{n+1}) = [zeta_{p^n}] - 1 in W_n(A)."""
        p = self.ring.p
        one = witt_one(self.ring, p, n)
        lhs = witt_mul(
            witt_add(teichmuller(self.ring.zeta(n + 1), p, n), witt_neg(one)),
            restriction(z_element(self.ring, n + 1)),
        )
        rhs = witt_add(teichmuller(self.ring.zeta(n), p, n), witt_neg(one))
        return lhs == rhs

    def dlog_compatibility(self):
        """F and R both carry dlog_{n+1} to dlog_n."""
        out = []
        for n in range(1, self.height):
            dn1 = self.layer(n + 1).dlog_element()
            dn = self.layer(n).dlog_element()
            out.append(
                (
                    n,
                    self.f_transition(dn1) == dn,
                    self.r_transition(dn1, n) == dn,
                )
            )
        return out

    def bott_image(self, n):
        """The trace image of the Bott class at layer n: dlog_element(n)."""
        return self.layer(n).dlog_element()


def witt_scalar(ring, n, c):
    from .witt import witt_int

    return witt_int(c, ring, ring.p, n)


def r_of_alpha_tower_is_xi_tower(tower, xi):
    """R(alpha-tower) = theta-tower of xi (the mu / phi^{-1}(mu) scalar)."""
    lhs = tower.tower_restrict(tower.alpha_tower())
    rhs = [theta_r(xi, n) for n in range(1, tower.height)]
    return lhs == rhs


# random payloads the freeness probe checks when W_n(A) is over its budget
FREENESS_SAMPLES = 1000


def freeness_probe(ring, n, budget=None, rng=None):
    """Distinct scalars give distinct elements, exhaustively over W_n(A).

    The model is free by construction; this guards the element representation
    (no accidental identification through normalization or hashing).  When
    W_n(A) has more than ``budget`` elements, FREENESS_SAMPLES payloads drawn
    from ``rng`` are checked instead, or None is returned without an rng.
    """
    from .witt import raw_witt_ops

    raw = raw_witt_ops(ring, ring.p, n)
    size = ring.cardinality() ** n
    layer = TateLayer(ring, n)
    if budget is not None and size > budget:
        if rng is None:
            return None
        payloads = {
            tuple(tuple(rng.randrange(ring.m) for _ in range(ring.d)) for _ in range(n))
            for _ in range(FREENESS_SAMPLES)
        }
        return len({layer.element(raw.wrap(u)) for u in payloads}) == len(payloads)
    seen = set()
    count = 0
    for payload in raw.enumerate_payloads():
        seen.add(layer.element(raw.wrap(payload)))
        count += 1
    return len(seen) == count


def fixed_points_report(charp_ring, n, solution_budget=100000):
    """Fixed points of R on the F-limit, in alpha coordinates.

    Delegates to the characteristic-p solver for
    phi(y) = (([eps^p]-1)/([eps]-1)) y and re-labels solutions y as y*alpha.
    The claimed set W_n(F_p) ([eps]-1) alpha must be exactly fixed.
    """
    rep = frobenius_equation_solve(charp_ring, n, solution_budget)
    rep["fixed_elements"] = [f"({y!r}) * alpha" for y in rep["claimed"]]
    return rep


def bott_limit_cross_check(charp_ring, length, terms=3):
    """q_log([eps]) = [eps] - 1, so the limit Bott image is ([eps]-1) alpha."""
    p = charp_ring.p
    eps = eps_charp(charp_ring)
    q = teichmuller(eps, p, length)
    val, _ = q_log(q, q, terms)
    mu = witt_add(q, witt_neg(witt_one(charp_ring, p, length)))
    return val == mu
